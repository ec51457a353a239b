"""Flat key-value configuration files with [channel] and [experiment] sections.

Also holds atomic_output, the write-then-rename step every output file of
the package goes through.
"""

from __future__ import annotations

import configparser
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .channel import ChannelParams
from .errors import ConfigurationError

# in the order f(d) tables write them
CHANNEL_KEYS = ("p_ref_dbm", "alpha", "sigma_db", "rss_threshold_dbm", "d0_m")
EXPERIMENT_KEYS = ("mu", "distances", "trials", "seed", "margin", "n_knots", "quad_tol")


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


def channel_to_mapping(params: ChannelParams) -> dict:
    return {
        "p_ref_dbm": repr(params.p_ref_dbm),
        "d0_m": repr(params.d0),
        "alpha": repr(params.alpha),
        "sigma_db": repr(params.sigma_db),
        "rss_threshold_dbm": repr(params.rss_threshold_dbm),
    }


def channel_from_mapping(mapping) -> ChannelParams:
    """Channel parameters from exactly the CHANNEL_KEYS; unknown keys are rejected."""
    unknown = [key for key in mapping if key not in CHANNEL_KEYS]
    if unknown:
        raise ConfigurationError(f"unknown channel keys: {', '.join(sorted(unknown))}")
    missing = [key for key in CHANNEL_KEYS if key not in mapping]
    if missing:
        raise ConfigurationError(f"channel section is missing keys: {', '.join(missing)}")
    values = {}
    for key in CHANNEL_KEYS:
        try:
            values[key] = float(mapping[key])
        except ValueError as exc:
            raise ConfigurationError(
                f"channel key {key} is not a number: {mapping[key]!r}"
            ) from exc
    try:
        return ChannelParams(
            p_ref_dbm=values["p_ref_dbm"],
            alpha=values["alpha"],
            sigma_db=values["sigma_db"],
            rss_threshold_dbm=values["rss_threshold_dbm"],
            d0=values["d0_m"],
        )
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


def experiment_from_mapping(mapping) -> dict:
    """Typed experiment settings; unknown keys are rejected to catch typos."""
    unknown = [key for key in mapping if key not in EXPERIMENT_KEYS]
    if unknown:
        raise ConfigurationError(f"unknown experiment keys: {', '.join(sorted(unknown))}")
    out = {}
    converters = {
        "mu": float,
        "distances": parse_distances,
        "trials": int,
        "seed": int,
        "margin": float,
        "n_knots": int,
        "quad_tol": float,
    }
    for key, value in mapping.items():
        try:
            out[key] = converters[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"bad experiment value {key}={value!r}") from exc
    return out


def load_config(path):
    """Read a config file; returns (ChannelParams or None, experiment dict)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
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
