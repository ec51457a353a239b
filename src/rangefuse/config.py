"""Flat key-value configuration files with [channel] and [experiment] sections.

Also holds read_input and atomic_output, the one read of every input file
of the package and the write-then-rename step of every output file.
"""

from __future__ import annotations

import configparser
import os
import tempfile
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

from .channel import ChannelParams
from .errors import ConfigurationError

# the file spelling of each ChannelParams field, in field order; f(d)
# tables write them in this order too
CHANNEL_KEYS = ("p_ref_dbm", "alpha", "sigma_db", "rss_threshold_dbm", "d0_m")


@contextmanager
def atomic_output(path):
    """Yield a temporary path beside path, then os.replace it onto path.

    The temporary file lives in the target's directory, so the rename is
    atomic: readers see the old file or the whole new one, never a torn
    one. If the body raises, the target stays absent or unchanged and the
    temporary file is removed. The new file gets the mode a plain open()
    would give it under the process umask.
    """
    path = Path(path)
    handle, partial = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(handle)
    partial = Path(partial)
    try:
        umask = os.umask(0)
        os.umask(umask)
        partial.chmod(0o666 & ~umask)
        yield partial
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def read_input(path, what: str) -> str:
    """The UTF-8 text of the file at path, a what file ("config", say); errors name the path."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except OSError as exc:
        exc.filename = exc.filename or str(path)  # a failed read, unlike open, names none
        raise


def channel_to_mapping(params: ChannelParams) -> dict:
    return dict(zip(CHANNEL_KEYS, map(repr, astuple(params)), strict=True))


def channel_from_mapping(mapping) -> ChannelParams:
    """Channel parameters from exactly the CHANNEL_KEYS; unknown keys are rejected."""
    unknown = [key for key in mapping if key not in CHANNEL_KEYS]
    if unknown:
        raise ConfigurationError(f"unknown channel keys: {', '.join(sorted(unknown))}")
    missing = [key for key in CHANNEL_KEYS if key not in mapping]
    if missing:
        raise ConfigurationError(f"channel section is missing keys: {', '.join(missing)}")
    values = []
    for key in CHANNEL_KEYS:
        try:
            values.append(float(mapping[key]))
        except ValueError as exc:
            raise ConfigurationError(
                f"channel key {key} is not a number: {mapping[key]!r}"
            ) from exc
    try:
        return ChannelParams(*values)
    except ValueError as exc:
        raise ConfigurationError(f"invalid channel parameters: {exc}") from exc


def parse_distances(text: str) -> tuple:
    try:
        values = tuple(float(item) for item in str(text).split(",") if item.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad distance list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"empty distance list {text!r}")
    return values


# each experiment key and the reader of its value
_EXPERIMENT_TYPES = {"mu": float, "distances": parse_distances, "trials": int, "seed": int,
                     "margin": float, "n_knots": int, "quad_tol": float}


def experiment_from_mapping(mapping) -> dict:
    """Typed experiment settings; unknown keys are rejected to catch typos."""
    unknown = [key for key in mapping if key not in _EXPERIMENT_TYPES]
    if unknown:
        raise ConfigurationError(f"unknown experiment keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, value in mapping.items():
        try:
            out[key] = _EXPERIMENT_TYPES[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"bad experiment value {key}={value!r}") from exc
    return out


def load_config(path):
    """Read a config file; returns (ChannelParams or None, experiment dict)."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_input(path, "config"), source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    try:
        channel = (channel_from_mapping(dict(parser.items("channel")))
                   if parser.has_section("channel") else None)
        experiment = (experiment_from_mapping(dict(parser.items("experiment")))
                      if parser.has_section("experiment") else {})
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return channel, experiment


def write_config(path, params: ChannelParams, experiment: dict | None = None) -> None:
    """Write a config file that load_config reads back as (params, experiment)."""
    parser = configparser.ConfigParser()
    parser["channel"] = channel_to_mapping(params)
    if experiment:
        parser["experiment"] = {
            key: ", ".join(map(repr, value)) if isinstance(value, (list, tuple)) else str(value)
            for key, value in experiment.items()
        }
    with atomic_output(path) as partial, open(partial, "w", newline="\n") as handle:
        parser.write(handle)
