"""Flat key-value configuration files with [channel] and [experiment] sections.

Also holds ExperimentConfig, the checked settings of one RMSE experiment,
next to the experiment keys that fill it, and read_input and write_atomic,
the one read of every input file of the package and the one write of
every output file.
"""

from __future__ import annotations

import errno
import math
import os
import tempfile
from dataclasses import MISSING, astuple, dataclass, fields
from pathlib import Path

from .channel import ChannelParams
from .errors import ConfigurationError

# the file spelling of each ChannelParams field, in field order; f(d)
# tables write them in this order too
CHANNEL_KEYS = ("p_ref_dbm", "alpha", "sigma_db", "rss_threshold_dbm", "d0_m")


def _real_path(path) -> Path:
    """path with every symlink followed, as open() follows them.

    os.path.realpath returns a looping symlink unresolved; this raises
    OSError (ELOOP) on one, as open() does.
    """
    target = Path(os.path.realpath(path))
    if target.is_symlink():
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), os.fspath(path))
    return target


def write_atomic(path, text: str) -> None:
    """Write text to path as open(path, "w") would, but never leave a torn file.

    A symlink at path is followed, as open() follows it, and a looping one
    raises OSError (ELOOP), as open() does. The text goes to a temporary
    file in the target's directory, which os.replace then moves onto the
    target: readers see the old file or the whole new one. The temporary
    file is named .rangefuse-<random>.tmp, short whatever the target's
    name, so any name open() takes is written. If the write fails, the
    target stays absent or unchanged and the temporary file is removed.
    The new file gets the mode open() would give it: an existing target's
    permission bits, else 0o666 less the process umask.
    """
    target = _real_path(path)
    handle, partial = tempfile.mkstemp(dir=target.parent, prefix=".rangefuse-", suffix=".tmp")
    os.close(handle)
    partial = Path(partial)
    try:
        if target.exists():
            mode = target.stat().st_mode & 0o777
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        partial.chmod(mode)
        partial.write_text(text)
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def read_input(path, what: str) -> str:
    """The UTF-8 text, less any byte-order mark, of the what file ("config", say) at path."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except OSError as exc:
        exc.filename = exc.filename or str(path)  # a failed read, unlike open, names none
        raise


def channel_to_mapping(params: ChannelParams) -> dict:
    return dict(zip(CHANNEL_KEYS, map(repr, astuple(params)), strict=True))


def channel_from_mapping(mapping) -> ChannelParams:
    """Channel parameters from the CHANNEL_KEYS; unknown keys are rejected.

    A key whose ChannelParams field has a default (d0_m) may be left out.
    """
    unknown = [key for key in mapping if key not in CHANNEL_KEYS]
    if unknown:
        raise ConfigurationError(f"unknown channel keys: {', '.join(sorted(unknown))}")
    keyed = dict(zip(CHANNEL_KEYS, fields(ChannelParams), strict=True))
    missing = [key for key, item in keyed.items()
               if key not in mapping and item.default is MISSING]
    if missing:
        raise ConfigurationError(f"channel section is missing keys: {', '.join(missing)}")
    values = {}
    for key in filter(mapping.__contains__, keyed):
        try:
            values[keyed[key].name] = float(mapping[key])
        except ValueError as exc:
            raise ConfigurationError(
                f"channel key {key} is not a number: {mapping[key]!r}"
            ) from exc
    try:
        return ChannelParams(**values)
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One RMSE experiment: density, probe distances, trial count, seed, edge margin.

    The channel is not part of it: run_experiment takes it from the f(d)
    table it is given. The pair sits at the center of a square of side
    (2 margin + 1) d_th, so margin >= 1 and d <= d_th (run_experiment) put
    each endpoint at least d_th from every edge, up to rounding, for any
    channel: the endpoints need no check of their own.
    """

    mu: float
    distances: tuple
    trials: int = 10000
    seed: int = 0
    margin: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 1.0 <= self.margin < math.inf:
            raise ValueError(
                f"margin must be finite and >= 1 cutoff distance, got {self.margin!r}"
            )
        distances = tuple(float(d) for d in self.distances)
        if not distances or any(not d > 0.0 for d in distances):
            raise ValueError(f"distances must be positive, got {self.distances!r}")
        object.__setattr__(self, "distances", distances)


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
    """Read a config file; returns (ChannelParams or None, experiment dict).

    Values are taken as written (a % is no interpolation), and a syntax
    error is one line, path:line: reason. configparser is imported here, so
    that only a command given --config loads it.
    """
    import configparser

    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_input(path, "config"), source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}: text before any [section] header") from exc
    except configparser.ParsingError as exc:
        raise ConfigurationError(
            f"{path}:{exc.errors[0][0]}: not a [section] header or a key = value line") from exc
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        # the message reads "While reading from 'path' [line  n]: <reason>"
        raise ConfigurationError(
            f"{path}:{exc.lineno}: {exc.message.partition(']: ')[2]}") from exc
    try:
        channel = (channel_from_mapping(dict(parser.items("channel")))
                   if parser.has_section("channel") else None)
        experiment = (experiment_from_mapping(dict(parser.items("experiment")))
                      if parser.has_section("experiment") else {})
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return channel, experiment

