"""Command-line interface.

Subcommands: fd-table (tabulate and save the common-neighborhood model),
simulate (Monte Carlo RMSE report), crlb (variance lower-bound curve),
estimate (one pair from an RSS reading and neighbor counts), dataset
(evaluate measured deployments). Exit codes: 0 success, 2 usage,
configuration or file error or a run too large for memory (say, a huge
--mu), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import re
import sys
from dataclasses import MISSING, astuple, fields
from pathlib import Path

import numpy as np

from .channel import ChannelParams
from .config import atomic_output, load_config, parse_distances
from .connectivity import build_fd_model, load_fd_model, save_fd_model
from .crlb import crlb_distance
from .errors import ConfigurationError, NumericError
from .dataset import checked_ranges, evaluate_pairs, load_measurements
from .fusion import BOUNDARY_CLAMPED, INTERIOR
from .pipeline import CONNECTIVITY_ONLY, RSS_ONLY, clamp_to_cutoff, estimate_pairs
from .simulator import ExperimentConfig, mu_to_lambda, run_experiment

# the help text of each ChannelParams field's flag, in field order; the
# flag of field p_ref_dbm is --p-ref-dbm, and so on
_CHANNEL_FLAGS = {
    "p_ref_dbm": "mean RSS at the reference distance, dBm",
    "alpha": "path loss exponent",
    "sigma_db": "shadowing standard deviation, dB",
    "rss_threshold_dbm": "minimum RSS for a link, dBm",
    "d0": f"reference distance, m (default {ChannelParams.d0})",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_channel_arguments(parser):
    parser.add_argument("--config", help="config file with [channel] and [experiment] "
                                         "sections; flags beat its settings")
    for name, help_text in _CHANNEL_FLAGS.items():
        parser.add_argument(_flag(name), type=float, default=None, help=help_text)


def _add_table_arguments(parser):
    parser.add_argument("--n-knots", type=int, default=None,
                        help="table size for the f(d) model (>= 8, default 64)")
    parser.add_argument("--quad-tol", type=float, default=None,
                        help="relative quadrature tolerance (default 1e-6)")


def _add_model_arguments(parser):
    _add_table_arguments(parser)
    parser.add_argument("--fd-table", default=None,
                        help="load the f(d) model from this file instead of building it")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for content-hashed f(d) model reuse")


def _resolve_channel(args) -> tuple:
    """Channel parameters and the experiment settings, reading --config once.

    Channel flags beat the config file's [channel] section.
    """
    base, experiment = load_config(args.config) if args.config else (None, {})
    values = {}
    for item in fields(ChannelParams):
        name = item.name
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
        elif base is not None:
            values[name] = getattr(base, name)
        elif item.default is MISSING:
            raise ConfigurationError(
                f"channel parameter {name} missing: supply {_flag(name)} or a config file"
            )
    return ChannelParams(**values), experiment


def _model_cache_key(params: ChannelParams, n_knots: int, quad_tol: float) -> str:
    text = "|".join(map(repr, (*astuple(params), n_knots, quad_tol)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _model_settings(args, experiment: dict) -> tuple:
    """Model tabulation settings: CLI flags beat the config file beat defaults."""
    n_knots, quad_tol = args.n_knots, args.quad_tol
    if n_knots is None:
        n_knots = experiment.get("n_knots", 64)
    if quad_tol is None:
        quad_tol = experiment.get("quad_tol", 1e-6)
    if n_knots < 8:
        raise ConfigurationError(f"--n-knots must be >= 8, got {n_knots}")
    if not (quad_tol > 0.0 and math.isfinite(quad_tol)):
        raise ConfigurationError(f"--quad-tol must be positive and finite, got {quad_tol}")
    return n_knots, quad_tol


def _load_model_for(path, params: ChannelParams):
    """The f(d) table at path; a table built for another channel is an error."""
    model = load_fd_model(path)
    if model.params != params:
        raise ConfigurationError(f"{path} was built for different channel parameters")
    return model


def _resolve_model(args, params: ChannelParams, experiment: dict):
    """The f(d) table for the channel: loaded (--fd-table, a --cache-dir hit) or built.

    The library takes the channel from the table alone, so this is where
    the channel of the flags and config file is checked against a loaded one.
    """
    n_knots, quad_tol = _model_settings(args, experiment)
    if args.fd_table:
        return _load_model_for(args.fd_table, params)
    if args.cache_dir:
        cache = Path(args.cache_dir)
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / f"fd_{_model_cache_key(params, n_knots, quad_tol)}.txt"
        if path.is_file():
            return _load_model_for(path, params)
        model = build_fd_model(params, n_knots, quad_tol)
        save_fd_model(model, path)  # atomically: a cache entry appears whole or not at all
        return model
    return build_fd_model(params, n_knots, quad_tol)


def _cmd_fd_table(args) -> int:
    params, experiment = _resolve_channel(args)
    n_knots, quad_tol = _model_settings(args, experiment)
    model = build_fd_model(params, n_knots, quad_tol)
    save_fd_model(model, args.output)
    print(f"s_mass = {model.s_mass!r}")
    print(f"d_th = {model.d_th!r}")
    print(f"n_knots = {model.n_knots}")
    return 0


def _cmd_simulate(args) -> int:
    params, experiment = _resolve_channel(args)
    # the table settings reach _resolve_model, not the experiment config
    settings = {key: value for key, value in experiment.items()
                if key not in ("n_knots", "quad_tol")}
    flags = {"mu": args.mu, "trials": args.trials, "seed": args.seed, "margin": args.margin,
             "distances": None if args.distances is None else parse_distances(args.distances)}
    settings.update({key: value for key, value in flags.items() if value is not None})
    missing = [key for key in ("mu", "distances") if key not in settings]
    if missing:
        raise ConfigurationError(
            f"experiment settings missing: {', '.join(missing)} "
            "(supply flags or an [experiment] config section)"
        )
    cfg = ExperimentConfig(**settings)
    model = _resolve_model(args, params, experiment)
    report = run_experiment(cfg, model)
    report.write_csv(args.output)
    if args.json:
        report.write_json(args.json)
    return 0


def _cmd_crlb(args) -> int:
    params, experiment = _resolve_channel(args)
    if params.sigma_db == 0.0:
        raise ConfigurationError("the bound is undefined for sigma_db = 0")
    model = _resolve_model(args, params, experiment)
    if args.intensity is not None:
        intensity = args.intensity
    elif args.mu is not None:
        intensity = mu_to_lambda(args.mu, model.s_mass)
    else:
        raise ConfigurationError("supply --mu or --intensity")
    if args.distances is not None:
        distances = parse_distances(args.distances)
    else:
        distances = tuple(model.d_th * k / 20.0 for k in range(1, 20))
    for d in distances:
        if not 0.0 < d <= model.d_th:
            raise ConfigurationError(f"distance {d!r} outside (0, {model.d_th!r}]")
    variances = crlb_distance(model, intensity, distances).tolist()
    lines = ["d,crlb_variance,sqrt_crlb",
             *(f"{d!r},{v!r},{math.sqrt(v)!r}" for d, v in zip(distances, variances))]
    with atomic_output(args.output) as partial:
        partial.write_text("\n".join(lines) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    params, experiment = _resolve_channel(args)
    if not math.isfinite(args.rss):
        raise ConfigurationError(f"--rss must be finite, got {args.rss!r}")
    for name, value in (("m", args.m), ("p", args.p), ("q", args.q)):
        if value < 0:
            raise ConfigurationError(f"{name} must be a nonnegative integer, got {value!r}")
    d_rss = float(checked_ranges(params, [args.rss], lambda _: "the pair")[0])
    model = _resolve_model(args, params, experiment)
    usable = args.rss >= params.rss_threshold_dbm
    est = estimate_pairs(model, [d_rss if usable else math.nan],
                         [args.m], [args.p], [args.q], args.intensity)
    d_conn, d_fused, lam = (float(v[0]) for v in (est.d_conn, est.d_fused, est.intensity))
    status, conn = str(est.status[0]), lam > 0.0
    sqrt_crlb = math.nan  # the bound of the sources the estimate used
    if d_fused > 0.0 and status == CONNECTIVITY_ONLY:
        sqrt_crlb = float(est.sigma_c[0])  # sigma_c**2 bounds the counts alone
    elif d_fused > 0.0 and status in (INTERIOR, BOUNDARY_CLAMPED):
        point = clamp_to_cutoff(d_fused, model.d_th)
        sqrt_crlb = math.sqrt(crlb_distance(model, lam, point))
    for applies, note in (
        (not conn, "all-zero counts: no intensity estimate, connectivity unusable"
         if args.intensity is None else "zero intensity supplied: connectivity unusable"),
        (not usable, "RSS below the link threshold: treated as uninformative"),
        (status == RSS_ONLY and params.sigma_db == 0.0,
         "noise-free channel: the RSS estimate is exact"),
        (status == CONNECTIVITY_ONLY and d_conn == 0.0,
         "zero connectivity estimate with no usable RSS"),
    ):
        if applies:
            print(f"warning: {note}", file=sys.stderr)
    print(f"d_rss = {d_rss!r}")
    print(f"d_conn = {d_conn!r}")
    print(f"d_fused = {d_fused!r}")
    print(f"sqrt_crlb = {sqrt_crlb!r}")
    print(f"status = {status}")
    return 0


# one --pairs token: two ids, each with an optional leading minus, joined by '-' or ':'
_PAIR_TOKEN = re.compile(r"(-?[^-:]+)[-:](-?[^-:]+)")


def _parse_pair(token: str) -> tuple:
    match = _PAIR_TOKEN.fullmatch(token)
    if match:
        with contextlib.suppress(ValueError):
            return int(match[1]), int(match[2])
    raise ConfigurationError(f"bad pair {token!r}; expected 'id-id' or 'id:id' tokens")


def _cmd_dataset(args) -> int:
    params, experiment = _resolve_channel(args)
    ms = load_measurements(args.input)
    pairs = [_parse_pair(token) for token in filter(None, map(str.strip, args.pairs.split(",")))]
    if not pairs:
        raise ConfigurationError("no pairs requested")
    model = _resolve_model(args, params, experiment)
    result = evaluate_pairs(ms, pairs, model, intensity=args.intensity)
    for i, j in result.pairs[~result.measured].tolist():
        print(f"warning: pair {i}-{j}: no RSS measurement for this pair", file=sys.stderr)
    # NaN prints as 'nan', the value of every error column and of d_fused
    # for an unmeasured pair, whose status is 'error'
    columns = (*result.pairs.T.tolist(),
               *(v.tolist() for v in (result.d_true, result.err_rss, result.err_conn,
                                      result.err_fused)),
               result.status.tolist(), result.d_fused.tolist())
    lines = ["pair,d_true,err_rss,err_conn,err_fused,status,d_fused",
             *map("{}-{},{!r},{!r},{!r},{!r},{},{!r}".format, *columns)]
    with atomic_output(args.output) as partial:
        partial.write_text("\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="rangefuse",
        description="Range estimation from RSS and local connectivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fd = sub.add_parser("fd-table", help="tabulate and save the f(d) model")
    _add_channel_arguments(p_fd)
    _add_table_arguments(p_fd)
    p_fd.add_argument("--output", required=True, help="model file to write")
    p_fd.set_defaults(func=_cmd_fd_table)

    p_sim = sub.add_parser("simulate", help="Monte Carlo RMSE experiment")
    _add_channel_arguments(p_sim)
    _add_model_arguments(p_sim)
    p_sim.add_argument("--mu", type=float, default=None,
                       help="expected neighbor count per node")
    p_sim.add_argument("--trials", type=int, default=None,
                       help=f"Monte Carlo trials per distance (default {ExperimentConfig.trials})")
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"master random seed (default {ExperimentConfig.seed})")
    p_sim.add_argument("--distances", default=None, help="comma-separated meters")
    p_sim.add_argument("--margin", type=float, default=None,
                       help="edge margin in cutoff-distance multiples "
                            f"(default {ExperimentConfig.margin})")
    p_sim.add_argument("--output", required=True, help="CSV report path")
    p_sim.add_argument("--json", default=None, help="also write a JSON report here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_crlb = sub.add_parser("crlb", help="variance lower-bound curve as CSV")
    _add_channel_arguments(p_crlb)
    _add_model_arguments(p_crlb)
    p_crlb.add_argument("--mu", type=float, default=None,
                        help="expected neighbor count per node")
    p_crlb.add_argument("--intensity", type=float, default=None,
                        help="node intensity, overrides --mu")
    p_crlb.add_argument("--distances", default=None,
                        help="comma-separated meters in (0, d_th] (default 0.05-0.95 d_th)")
    p_crlb.add_argument("--output", required=True, help="CSV bound curve path")
    p_crlb.set_defaults(func=_cmd_crlb)

    p_est = sub.add_parser("estimate", help="estimate one pair's distance")
    _add_channel_arguments(p_est)
    _add_model_arguments(p_est)
    p_est.add_argument("--rss", type=float, required=True, help="measured RSS, dBm")
    p_est.add_argument("--m", type=int, required=True, help="common neighbors")
    p_est.add_argument("--p", type=int, required=True, help="neighbors of A only")
    p_est.add_argument("--q", type=int, required=True, help="neighbors of B only")
    p_est.add_argument("--intensity", type=float, default=None,
                       help="node intensity; estimated from counts when omitted")
    p_est.set_defaults(func=_cmd_estimate)

    p_data = sub.add_parser("dataset", help="evaluate a measured deployment")
    _add_channel_arguments(p_data)
    _add_model_arguments(p_data)
    p_data.add_argument("--input", required=True, help="measurement file")
    p_data.add_argument("--pairs", required=True,
                        help="comma-separated id pairs, e.g. 24-25,15-23")
    p_data.add_argument("--intensity", type=float, default=None,
                        help="node intensity; estimated from each pair's counts when omitted")
    p_data.add_argument("--output", required=True, help="CSV error table path")
    p_data.set_defaults(func=_cmd_dataset)

    return parser


def _check_outputs(args) -> None:
    """Fail before any work on an output that is a directory, unwritable, or named before.

    An output may not name an input file (--input, --fd-table, --config)
    or the other output; paths are compared after resolving them.
    """
    named = {}  # each resolved path given so far, and the flag that gave it
    for name in ("input", "fd_table", "config", "output", "json"):
        path = getattr(args, name, None)
        if not path:
            continue
        # realpath, unlike Path.resolve, returns a looping symlink unresolved
        resolved = Path(os.path.realpath(path))
        if name in ("output", "json"):
            if resolved in named:
                raise ConfigurationError(
                    f"{named[resolved]} and {_flag(name)} both name {path}")
            if resolved.is_dir():
                raise ConfigurationError(f"cannot write {path}: it is a directory")
            if not (resolved.parent.is_dir() and os.access(resolved.parent, os.W_OK)):
                raise ConfigurationError(
                    f"cannot write {path}: {resolved.parent} is not a writable directory")
        named.setdefault(resolved, _flag(name))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
