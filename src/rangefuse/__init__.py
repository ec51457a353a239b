"""Range estimation for wireless sensor networks.

Fuses the distance information carried by a received-signal-strength
reading with the information in local connectivity (common-neighbor
counts) via maximum likelihood, and ships the Monte Carlo machinery to
validate both ingredients and the fused estimator against the variance
lower bound.

Importing the package loads none of its modules: each public name, and
each module as an attribute (``rangefuse.fusion``), is imported on first
use (PEP 562), so a table load loads channel, config, errors and fdtable
only: no quadrature (connectivity) and no configparser.
"""

import importlib

import numpy as np

# Allocate and free one 2 MB block. glibc serves a block that large by mmap,
# and freeing it raises the dynamic mmap and trim thresholds (mallopt(3),
# M_MMAP_THRESHOLD and M_TRIM_THRESHOLD) to its size and twice that. Without
# it the 128 KB temporaries of the f(d) rule and the simulator's block arrays,
# which that 2 MB block still exceeds, would trim the heap top on every chunk
# and fault it back in on the next.
np.empty(1 << 18)

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "channel": ("ChannelParams", "estimate_distance_rss", "link_probability", "mean_rss",
                    "pseudo_range", "sample_rss"),
        "config": ("ExperimentConfig",),
        "connectivity": ("build_fd_model", "generic_f", "generic_s", "threshold_distance",
                         "unit_disk_f"),
        "crlb": ("FisherInfo", "crlb_distance", "fim", "rss_fisher_scale"),
        "dataset": ("MeasurementSet", "PairEvaluation", "evaluate_pairs", "load_measurements",
                    "save_measurements", "synthesize_measurements"),
        "errors": ("ConfigurationError", "ModelConstructionError", "NumericError",
                   "RangefuseError"),
        "fdtable": ("FdModel", "conn_error_sigma", "eval_fd", "fd_slope", "invert_fd",
                    "load_fd_model", "mu_to_lambda", "save_fd_model"),
        "pipeline": ("estimate_pairs",),
        "simulator": ("Deployment", "ExpectedErrors", "RmseReport", "RmseRow", "deploy_poisson",
                      "expected_errors", "run_experiment"),
    }.items()
    for name in names
}

_MODULES = frozenset({*_HOMES.values(), "cli", "fusion"})

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _MODULES:
        # importing a submodule binds it in the package namespace
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
