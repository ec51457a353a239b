"""Range estimation for wireless sensor networks.

Fuses the distance information carried by a received-signal-strength
reading with the information in local connectivity (common-neighbor
counts) via maximum likelihood, and ships the Monte Carlo machinery to
validate both ingredients and the fused estimator against the variance
lower bound.
"""

import numpy as np

# Allocate and free one 2 MB block. glibc serves a block that large by mmap,
# and freeing it raises the dynamic mmap and trim thresholds (mallopt(3),
# M_MMAP_THRESHOLD and M_TRIM_THRESHOLD) to its size and twice that. Without
# it the 128 KB temporaries of the f(d) rule and the simulator's block arrays,
# which that 2 MB block still exceeds, would trim the heap top on every chunk
# and fault it back in on the next.
np.empty(1 << 18)

from .channel import (
    ChannelParams,
    estimate_distance_rss,
    link_probability,
    mean_rss,
    pseudo_range,
    sample_rss,
)
from .connectivity import (
    FdModel,
    build_fd_model,
    conn_error_sigma,
    eval_fd,
    fd_slope,
    generic_f,
    generic_s,
    invert_fd,
    load_fd_model,
    save_fd_model,
    threshold_distance,
    unit_disk_f,
)
from .crlb import FisherInfo, crlb_distance, fim, rss_fisher_scale
from .dataset import (
    MeasurementSet,
    PairEvaluation,
    evaluate_pairs,
    load_measurements,
    save_measurements,
    synthesize_measurements,
)
from .errors import (
    ConfigurationError,
    ModelConstructionError,
    NumericError,
    RangefuseError,
)
from .pipeline import estimate_pairs
from .simulator import (
    Deployment,
    ExperimentConfig,
    ExpectedErrors,
    RmseReport,
    RmseRow,
    deploy_poisson,
    expected_errors,
    mu_to_lambda,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConfigurationError",
    "Deployment",
    "ExpectedErrors",
    "ExperimentConfig",
    "FdModel",
    "FisherInfo",
    "MeasurementSet",
    "ModelConstructionError",
    "NumericError",
    "PairEvaluation",
    "RangefuseError",
    "RmseReport",
    "RmseRow",
    "build_fd_model",
    "conn_error_sigma",
    "crlb_distance",
    "deploy_poisson",
    "estimate_distance_rss",
    "estimate_pairs",
    "eval_fd",
    "evaluate_pairs",
    "expected_errors",
    "fd_slope",
    "fim",
    "generic_f",
    "generic_s",
    "invert_fd",
    "link_probability",
    "load_fd_model",
    "load_measurements",
    "mean_rss",
    "mu_to_lambda",
    "pseudo_range",
    "rss_fisher_scale",
    "run_experiment",
    "sample_rss",
    "save_fd_model",
    "save_measurements",
    "synthesize_measurements",
    "threshold_distance",
    "unit_disk_f",
]
