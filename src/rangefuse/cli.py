"""Command-line interface.

Subcommands: fd-table (tabulate and save the common-neighborhood model),
simulate (Monte Carlo RMSE report), crlb (variance lower-bound curve),
estimate (one pair from an RSS reading and neighbor counts), dataset
(evaluate measured deployments). Exit codes: 0 success, 2 usage,
configuration or file error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelParams
from .config import experiment_from_mapping, load_config, parse_distances
from .connectivity import (
    NeighborCounts,
    build_fd_model,
    load_fd_model,
    save_fd_model,
)
from .crlb import crlb_distance
from .errors import ConfigurationError, NumericError
from .dataset import evaluate_pairs, load_measurements
from .pipeline import estimate_pair
from .simulator import ExperimentConfig, mu_to_lambda, run_experiment

_CHANNEL_FLAGS = (
    ("p_ref_dbm", "--p-ref-dbm", "mean RSS at the reference distance, dBm"),
    ("alpha", "--alpha", "path loss exponent"),
    ("sigma_db", "--sigma-db", "shadowing standard deviation, dB"),
    ("rss_threshold_dbm", "--rss-threshold-dbm", "minimum RSS for a link, dBm"),
    ("d0", "--d0", "reference distance, m (default 1)"),
)


def _add_channel_arguments(parser):
    parser.add_argument("--config", help="config file with a [channel] section")
    for _, flag, help_text in _CHANNEL_FLAGS:
        parser.add_argument(flag, type=float, default=None, help=help_text)


def _add_model_arguments(parser):
    parser.add_argument("--n-knots", type=int, default=None,
                        help="table size for the f(d) model (>= 8, default 64)")
    parser.add_argument("--quad-tol", type=float, default=None,
                        help="relative quadrature tolerance (default 1e-6)")
    parser.add_argument("--fd-table", default=None,
                        help="load the f(d) model from this file instead of building it")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for content-hashed f(d) model reuse")


def _resolve_channel(args) -> ChannelParams:
    base = None
    if args.config:
        base, _ = load_config(args.config)
    values = {}
    for name, flag, _ in _CHANNEL_FLAGS:
        override = getattr(args, flag.lstrip("-").replace("-", "_"))
        if override is not None:
            values[name] = override
        elif base is not None:
            values[name] = getattr(base, name)
        elif name == "d0":
            values[name] = 1.0
        else:
            raise ConfigurationError(
                f"channel parameter {name} missing: supply {flag} or a config file"
            )
    return ChannelParams(**values)


def _model_cache_key(params: ChannelParams, n_knots: int, quad_tol: float) -> str:
    text = (
        f"{params.p_ref_dbm!r}|{params.alpha!r}|{params.sigma_db!r}|"
        f"{params.rss_threshold_dbm!r}|{params.d0!r}|{n_knots}|{quad_tol!r}"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _model_settings(args) -> tuple:
    """Model tabulation settings: CLI flags beat the config file beat defaults."""
    n_knots, quad_tol = args.n_knots, args.quad_tol
    if args.config and (n_knots is None or quad_tol is None):
        _, experiment = load_config(args.config)
        if n_knots is None:
            n_knots = experiment.get("n_knots")
        if quad_tol is None:
            quad_tol = experiment.get("quad_tol")
    if n_knots is None:
        n_knots = 64
    if quad_tol is None:
        quad_tol = 1e-6
    if n_knots < 8:
        raise ConfigurationError(f"--n-knots must be >= 8, got {n_knots}")
    if not quad_tol > 0.0:
        raise ConfigurationError(f"--quad-tol must be positive, got {quad_tol}")
    return n_knots, quad_tol


def _resolve_model(args, params: ChannelParams):
    n_knots, quad_tol = _model_settings(args)
    if args.fd_table:
        model = load_fd_model(args.fd_table)
        if model.params != params:
            raise ConfigurationError(
                f"{args.fd_table} was built for different channel parameters"
            )
        return model
    if args.cache_dir:
        cache = Path(args.cache_dir)
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / f"fd_{_model_cache_key(params, n_knots, quad_tol)}.txt"
        if path.is_file():
            return load_fd_model(path)
        model = build_fd_model(params, n_knots, quad_tol)
        save_fd_model(model, path)
        return model
    return build_fd_model(params, n_knots, quad_tol)


def _cmd_fd_table(args) -> int:
    params = _resolve_channel(args)
    n_knots, quad_tol = _model_settings(args)
    model = build_fd_model(params, n_knots, quad_tol)
    save_fd_model(model, args.output)
    print(f"s_mass = {model.s_mass!r}")
    print(f"d_th = {model.d_th!r}")
    print(f"n_knots = {model.n_knots}")
    return 0


def _cmd_simulate(args) -> int:
    params = _resolve_channel(args)
    experiment = {}
    if args.config:
        _, experiment = load_config(args.config)
    if args.mu is not None:
        experiment["mu"] = args.mu
    if args.trials is not None:
        experiment["trials"] = args.trials
    if args.seed is not None:
        experiment["seed"] = args.seed
    if args.distances is not None:
        experiment["distances"] = parse_distances(args.distances)
    if args.margin is not None:
        experiment["margin"] = args.margin
    experiment.setdefault("trials", 10000)
    experiment.setdefault("seed", 0)
    missing = [key for key in ("mu", "distances") if key not in experiment]
    if missing:
        raise ConfigurationError(
            f"experiment settings missing: {', '.join(missing)} "
            "(supply flags or an [experiment] config section)"
        )
    experiment.pop("n_knots", None)
    experiment.pop("quad_tol", None)
    n_knots, quad_tol = _model_settings(args)
    cfg = ExperimentConfig(
        channel=params,
        n_knots=n_knots,
        quad_tol=quad_tol,
        **experiment,
    )
    model = _resolve_model(args, params)
    report = run_experiment(cfg, model=model)
    report.write_csv(args.output)
    if args.json:
        report.write_json(args.json)
    return 0


def _cmd_crlb(args) -> int:
    params = _resolve_channel(args)
    if params.sigma_db == 0.0:
        raise ConfigurationError("the bound is undefined for sigma_db = 0")
    model = _resolve_model(args, params)
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
        if not 0.0 < d < model.d_th:
            raise ConfigurationError(
                f"distance {d!r} outside the open interval (0, {model.d_th!r})"
            )
    lines = ["d,crlb_variance,sqrt_crlb"]
    for d in distances:
        variance = crlb_distance(params, model, intensity, d)
        lines.append(f"{float(d)!r},{variance!r},{math.sqrt(variance)!r}")
    with open(args.output, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    params = _resolve_channel(args)
    if not math.isfinite(args.rss):
        raise ConfigurationError(f"--rss must be finite, got {args.rss!r}")
    try:
        counts = NeighborCounts(args.m, args.p, args.q)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    model = _resolve_model(args, params)
    result = estimate_pair(
        params, model, args.rss, counts, intensity=args.intensity
    )
    for note in result.notes:
        print(f"warning: {note}", file=sys.stderr)
    print(f"d_rss = {result.d_rss!r}")
    print(f"d_conn = {result.d_conn!r}")
    print(f"d_fused = {result.d_fused!r}")
    print(f"sqrt_crlb = {result.sqrt_crlb if result.sqrt_crlb is not None else float('nan')!r}")
    print(f"status = {result.status}")
    return 0


def _format_optional(value) -> str:
    return repr(float(value)) if value is not None else "nan"


def _cmd_dataset(args) -> int:
    params = _resolve_channel(args)
    ms = load_measurements(args.input, params)
    pairs = []
    for token in args.pairs.split(","):
        token = token.strip()
        if not token:
            continue
        sep = "-" if "-" in token else ":"
        try:
            left, right = token.split(sep)
            pairs.append((int(left), int(right)))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad pair {token!r}; expected 'id-id' tokens"
            ) from exc
    if not pairs:
        raise ConfigurationError("no pairs requested")
    model = _resolve_model(args, params)
    results = evaluate_pairs(
        ms, pairs, model=model, intensity=args.intensity
    )
    lines = ["pair,d_true,err_rss,err_conn,err_fused"]
    for row in results:
        if row.error is not None:
            print(f"warning: pair {row.pair[0]}-{row.pair[1]}: {row.error}",
                  file=sys.stderr)
        lines.append(
            f"{row.pair[0]}-{row.pair[1]},{_format_optional(row.d_true)},"
            f"{_format_optional(row.err_rss)},{_format_optional(row.err_conn)},"
            f"{_format_optional(row.err_fused)}"
        )
    with open(args.output, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangefuse",
        description="Range estimation from RSS and local connectivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fd = sub.add_parser("fd-table", help="tabulate and save the f(d) model")
    _add_channel_arguments(p_fd)
    p_fd.add_argument("--n-knots", type=int, default=None)
    p_fd.add_argument("--quad-tol", type=float, default=None)
    p_fd.add_argument("--output", required=True, help="model file to write")
    p_fd.set_defaults(func=_cmd_fd_table)

    p_sim = sub.add_parser("simulate", help="Monte Carlo RMSE experiment")
    _add_channel_arguments(p_sim)
    _add_model_arguments(p_sim)
    p_sim.add_argument("--mu", type=float, default=None,
                       help="expected neighbor count per node")
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--distances", default=None, help="comma-separated meters")
    p_sim.add_argument("--margin", type=float, default=None,
                       help="edge margin in cutoff-distance multiples")
    p_sim.add_argument("--output", required=True, help="CSV report path")
    p_sim.add_argument("--json", default=None, help="also write a JSON report here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_crlb = sub.add_parser("crlb", help="variance lower-bound curve as CSV")
    _add_channel_arguments(p_crlb)
    _add_model_arguments(p_crlb)
    p_crlb.add_argument("--mu", type=float, default=None)
    p_crlb.add_argument("--intensity", type=float, default=None,
                        help="node intensity, overrides --mu")
    p_crlb.add_argument("--distances", default=None)
    p_crlb.add_argument("--output", required=True)
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
    p_data.add_argument("--intensity", type=float, default=None)
    p_data.add_argument("--output", required=True, help="CSV error table path")
    p_data.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
