"""Command-line interface.

Subcommands: fd-table (tabulate and save the common-neighborhood model),
simulate (Monte Carlo RMSE report), crlb (variance lower-bound curve),
estimate (one pair from an RSS reading and neighbor counts), dataset
(evaluate measured deployments). The other four build the f(d) table of
their channel, in 0.01 to 0.02 s at the default size, unless --fd-table names
one that fd-table saved; that table then supplies the channel, which the
flags and config file may leave out, or state whole and equal. dataset
evaluates every link of its file unless --pairs names some. A command
parses its arguments, prints warnings and writes its results; the checks of
readings, counts, distances and the channel, and how a reading and counts
become an estimate and an error bar, are the library's (pipeline, crlb),
whose ValueError is a usage error here. Every error, the parser's included,
is one "error: ..." line on stderr. Exit codes: 0 success, 2 usage,
configuration or file error or a run too large for memory (say, a huge
--mu), 3 numeric failure. A flag's value may start with '-' in either form:
--rss -inf or --rss=-inf. The module loads what the parser and every
command share; a command imports the rest of what it runs when it runs, so
fd-table loads no simulator, pipeline or dataset, and a command given
--fd-table loads no quadrature (connectivity).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import MISSING, fields, replace

from .channel import ChannelParams
from .config import (_EXPERIMENT_TYPES, ExperimentConfig, _real_path, load_config,
                     parse_distances, write_atomic)
from .errors import ConfigurationError, NumericError
from .fdtable import load_fd_model, mu_to_lambda, save_fd_model

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


def _add_channel_arguments(parser, note=""):
    parser.add_argument("--config", help="config file with [channel] and [experiment] "
                                         "sections; flags beat its settings, and a [channel] "
                                         "section must be whole (d0_m may be left out): "
                                         "flags then replace its keys one by one")
    for name, help_text in _CHANNEL_FLAGS.items():
        parser.add_argument(_flag(name), type=float, default=None, help=help_text + note)


def _add_table_arguments(parser, knots_note="", tol_note=""):
    parser.add_argument("--n-knots", type=int, default=None,
                        help=f"table size for the f(d) model (>= 8, default 64{knots_note})")
    parser.add_argument("--quad-tol", type=float, default=None,
                        help=f"relative quadrature tolerance (default 1e-6{tol_note})")


def _add_model_arguments(parser):
    """The channel, table and --fd-table flags of a command that may load its table."""
    _add_channel_arguments(parser, "; taken from --fd-table when no channel is given")
    _add_table_arguments(parser, "; must equal --fd-table's", "; unused with --fd-table")
    parser.add_argument("--fd-table", default=None,
                        help="load the f(d) model from this file instead of building it")


def _resolve_settings(args) -> tuple:
    """Channel parameters and experiment settings: flags beat --config beat defaults.

    Reads --config once. Each given flag replaces the key of its name in a
    whole [channel] section or in [experiment]. With --fd-table and no
    channel stated, the channel is None: the table supplies it. Only the
    table settings given are checked: build_fd_model holds their defaults.
    """
    table = getattr(args, "fd_table", None)
    base, settings = load_config(args.config) if args.config else (None, {})
    given = {name: getattr(args, name) for name in _CHANNEL_FLAGS
             if getattr(args, name) is not None}
    settings.update({key: getattr(args, key) for key in _EXPERIMENT_TYPES
                     if getattr(args, key, None) is not None})
    params = None  # the table's, when it is given and no channel is stated
    if base is not None:
        params = replace(base, **given)
    elif given or not table:
        for item in fields(ChannelParams):
            if item.name not in given and item.default is MISSING:
                raise ConfigurationError(f"channel parameter {item.name} missing: "
                                         f"supply {_flag(item.name)} or a config file")
        params = ChannelParams(**given)
    for key, ok, rule in (("n_knots", lambda v: v >= 8, "must be >= 8"),
                          ("quad_tol", lambda v: v > 0.0 and math.isfinite(v),
                           "must be positive and finite")):
        if key in settings and not ok(settings[key]):
            source = (_flag(key) if getattr(args, key) is not None
                      else f"{args.config}: [experiment] {key}")
            raise ConfigurationError(f"{source} {rule}, got {settings[key]}")
    return params, settings


def build_fd_model(*args, **kwargs):
    """connectivity.build_fd_model, imported on the first call: a loaded table needs none."""
    from .connectivity import build_fd_model

    return build_fd_model(*args, **kwargs)


def _resolve_model(args, params, settings: dict):
    """The f(d) table: loaded from --fd-table, else built for params.

    The library takes the channel from the table alone, so this is where a
    loaded table meets the flags and config file: a stated channel (params
    not None) and a stated knot count must be the table's.
    """
    table = getattr(args, "fd_table", None)
    if not table:
        return build_fd_model(params, **{key: settings[key] for key in ("n_knots", "quad_tol")
                                         if key in settings})
    model = load_fd_model(table)
    if params not in (None, model.params):
        raise ConfigurationError(f"{table} was built for different channel parameters")
    if settings.get("n_knots", model.n_knots) != model.n_knots:
        raise ConfigurationError(
            f"{table} has {model.n_knots} knots, not the {settings['n_knots']} stated")
    return model


def _cmd_fd_table(args) -> int:
    model = _resolve_model(args, *_resolve_settings(args))
    save_fd_model(model, args.output)
    print(f"s_mass = {model.s_mass!r}")
    print(f"d_th = {model.d_th!r}")
    print(f"n_knots = {model.n_knots}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import run_experiment

    params, settings = _resolve_settings(args)
    missing = [key for key in ("mu", "distances") if key not in settings]
    if missing:
        raise ConfigurationError(
            f"experiment settings missing: {', '.join(missing)} "
            "(supply flags or an [experiment] config section)"
        )
    cfg = ExperimentConfig(**{item.name: settings[item.name]
                              for item in fields(ExperimentConfig) if item.name in settings})
    model = _resolve_model(args, params, settings)
    report = run_experiment(cfg, model)
    write_atomic(args.output, report.to_csv_text())
    if args.json:
        write_atomic(args.json, report.to_json_text())
    return 0


def _cmd_crlb(args) -> int:
    from .crlb import crlb_distance

    params, settings = _resolve_settings(args)
    if args.intensity is None and "mu" not in settings:
        raise ConfigurationError("supply --mu or --intensity")
    model = _resolve_model(args, params, settings)
    intensity = (mu_to_lambda(settings["mu"], model.s_mass) if args.intensity is None
                 else args.intensity)
    distances = settings.get("distances") or tuple(model.d_th * k / 20.0 for k in range(1, 20))
    variances = crlb_distance(model, intensity, distances).tolist()
    lines = ["d,crlb_variance,sqrt_crlb",
             *(f"{d!r},{v!r},{math.sqrt(v)!r}" for d, v in zip(distances, variances))]
    write_atomic(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    from .pipeline import (CONNECTIVITY_ONLY, NO_INFORMATION, RSS_ONLY, estimate_readings,
                           sqrt_bounds)

    params, settings = _resolve_settings(args)
    model = _resolve_model(args, params, settings)
    d_rss, est = estimate_readings(model, [args.rss], [args.m], [args.p], [args.q],
                                   args.intensity, lambda _: "the pair")
    d_rss, d_conn, d_fused, lam, sqrt_crlb = (
        float(v[0]) for v in (d_rss, est.d_conn, est.d_fused, est.intensity,
                              sqrt_bounds(model, est)))
    status, conn = str(est.status[0]), lam > 0.0
    usable = status not in (CONNECTIVITY_ONLY, NO_INFORMATION)
    for applies, note in (
        (not conn, "all-zero counts: no intensity estimate, connectivity unusable"
         if args.intensity is None else "zero intensity supplied: connectivity unusable"),
        (not usable, "RSS below the link threshold: treated as uninformative"),
        (status == RSS_ONLY and model.params.sigma_db == 0.0,
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


# one --pairs token: two ids joined by '-' or ':', each ASCII digits with an
# optional sign and blanks around it, as the measurement file's reader takes them
_PAIR_TOKEN = re.compile(r"([+-]?[0-9]+)\s*[-:]\s*([+-]?[0-9]+)")


def _parse_pair(token: str) -> tuple:
    match = _PAIR_TOKEN.fullmatch(token)
    if match:
        return int(match[1]), int(match[2])
    raise ConfigurationError(f"bad pair {token!r}; expected 'id-id' or 'id:id' tokens")


def _cmd_dataset(args) -> int:
    from .dataset import evaluate_pairs, load_measurements

    params, settings = _resolve_settings(args)
    ms = load_measurements(args.input)
    pairs = ms.links if args.pairs is None else [
        _parse_pair(token) for token in filter(None, map(str.strip, args.pairs.split(",")))]
    if not len(pairs):
        raise ConfigurationError("no pairs requested" if args.pairs is not None
                                 else f"no links in {args.input}")
    model = _resolve_model(args, params, settings)
    result = evaluate_pairs(ms, pairs, model, intensity=args.intensity)
    for i, j in result.pairs[~result.measured].tolist():
        print(f"warning: pair {i}-{j}: no RSS measurement for this pair", file=sys.stderr)
    write_atomic(args.output, result.to_csv_text())
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so each of its subcommands', that raises its errors."""

    def error(self, message):
        raise ConfigurationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = _Parser(
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
    _add_model_arguments(p_sim)
    p_sim.add_argument("--mu", type=float, default=None,
                       help="expected neighbor count per node")
    p_sim.add_argument("--trials", type=int, default=None,
                       help=f"Monte Carlo trials per distance (default {ExperimentConfig.trials})")
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"master random seed (default {ExperimentConfig.seed})")
    p_sim.add_argument("--distances", type=parse_distances, default=None,
                       help="comma-separated meters")
    p_sim.add_argument("--margin", type=float, default=None,
                       help="edge margin in cutoff-distance multiples "
                            f"(default {ExperimentConfig.margin})")
    p_sim.add_argument("--output", required=True, help="CSV report path")
    p_sim.add_argument("--json", default=None, help="also write a JSON report here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_crlb = sub.add_parser("crlb", help="variance lower-bound curve as CSV")
    _add_model_arguments(p_crlb)
    p_crlb.add_argument("--mu", type=float, default=None,
                        help="expected neighbor count per node (default: the config file's mu)")
    p_crlb.add_argument("--intensity", type=float, default=None,
                        help="node intensity, overrides --mu")
    p_crlb.add_argument("--distances", type=parse_distances, default=None,
                        help="comma-separated meters in (0, d_th] (default: the config "
                             "file's distances, else 0.05-0.95 d_th)")
    p_crlb.add_argument("--output", required=True, help="CSV bound curve path")
    p_crlb.set_defaults(func=_cmd_crlb)

    p_est = sub.add_parser("estimate", help="estimate one pair's distance")
    _add_model_arguments(p_est)
    p_est.add_argument("--rss", type=float, required=True, help="measured RSS, dBm")
    p_est.add_argument("--m", type=int, required=True, help="common neighbors")
    p_est.add_argument("--p", type=int, required=True, help="neighbors of A only")
    p_est.add_argument("--q", type=int, required=True, help="neighbors of B only")
    p_est.add_argument("--intensity", type=float, default=None,
                       help="node intensity; estimated from counts when omitted")
    p_est.set_defaults(func=_cmd_estimate)

    p_data = sub.add_parser("dataset", help="evaluate a measured deployment")
    _add_model_arguments(p_data)
    p_data.add_argument("--input", required=True, help="measurement file")
    p_data.add_argument("--pairs", default=None,
                        help="comma-separated id pairs, e.g. 24-25,15-23 "
                             "(default: every link in the file)")
    p_data.add_argument("--intensity", type=float, default=None,
                        help="node intensity; estimated from each pair's counts when omitted")
    p_data.add_argument("--output", required=True, help="CSV error table path")
    p_data.set_defaults(func=_cmd_dataset)

    return parser


def _check_outputs(args) -> None:
    """Fail before any work on an output that is a directory, unwritable, or named before.

    An output may not name an input file (--input, --fd-table, --config)
    or the other output; paths are compared after resolving them, and a
    looping symlink fails as open() would fail on it.
    """
    named = {}  # each resolved path given so far, and the flag that gave it
    for name in ("input", "fd_table", "config", "output", "json"):
        path = getattr(args, name, None)
        if not path:
            continue
        resolved = _real_path(path)
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


def _join_negative_values(argv) -> list:
    """argv with '--flag value' as '--flag=value' where value starts with exactly one '-'.

    argparse by itself takes -12 and -1.5 for values, but not -1e2, -inf or the
    --pairs token -3-5; no flag of the parser is one '-' and a name but -h.
    """
    out = []
    for token in argv:
        if (out and re.fullmatch(r"--[^=]+", out[-1]) and out[-1] != "--help"
                and re.match(r"-(?!-)", token) and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
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
