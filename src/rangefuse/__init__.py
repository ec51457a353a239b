"""Range estimation for wireless sensor networks.

Fuses the distance information carried by a received-signal-strength
reading with the information in local connectivity (common-neighbor
counts) via maximum likelihood, and ships the Monte Carlo machinery to
validate both ingredients and the fused estimator against the variance
lower bound.
"""

from .channel import (
    ChannelParams,
    estimate_distance_rss,
    link_probability,
    mean_rss,
    pseudo_range,
    rss_estimate_pdf,
    sample_rss,
)
from .connectivity import (
    FdModel,
    NeighborCounts,
    build_fd_model,
    conn_error_sigma,
    conn_estimate_pdf,
    estimate_distance_conn,
    estimate_intensity,
    eval_fd,
    fd_slope,
    generic_f,
    generic_f_derivative,
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
    neighbor_counts_for_pair,
    save_measurements,
    synthesize_measurements,
)
from .errors import (
    ConfigurationError,
    ModelConstructionError,
    NumericError,
    RangefuseError,
)
from .fusion import (
    FuseResult,
    FusionInput,
    fuse_mle,
    log_likelihood,
    score,
)
from .pipeline import PairEstimate, estimate_pair
from .simulator import (
    Deployment,
    ExperimentConfig,
    RmseReport,
    RmseRow,
    deploy_poisson,
    mu_to_lambda,
    realize_neighbors,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConfigurationError",
    "Deployment",
    "ExperimentConfig",
    "FdModel",
    "FisherInfo",
    "FuseResult",
    "FusionInput",
    "MeasurementSet",
    "ModelConstructionError",
    "NeighborCounts",
    "NumericError",
    "PairEstimate",
    "PairEvaluation",
    "RangefuseError",
    "RmseReport",
    "RmseRow",
    "build_fd_model",
    "conn_error_sigma",
    "conn_estimate_pdf",
    "crlb_distance",
    "deploy_poisson",
    "estimate_distance_conn",
    "estimate_distance_rss",
    "estimate_intensity",
    "estimate_pair",
    "eval_fd",
    "evaluate_pairs",
    "fd_slope",
    "fim",
    "fuse_mle",
    "generic_f",
    "generic_f_derivative",
    "generic_s",
    "invert_fd",
    "link_probability",
    "load_fd_model",
    "load_measurements",
    "log_likelihood",
    "mean_rss",
    "mu_to_lambda",
    "neighbor_counts_for_pair",
    "pseudo_range",
    "realize_neighbors",
    "rss_estimate_pdf",
    "rss_fisher_scale",
    "run_experiment",
    "sample_rss",
    "save_fd_model",
    "save_measurements",
    "score",
    "synthesize_measurements",
    "threshold_distance",
    "unit_disk_f",
]
