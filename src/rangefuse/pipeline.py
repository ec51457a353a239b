"""Estimation pipeline shared by the simulator, dataset evaluation and the CLI.

estimate_pairs wires arrays of RSS range estimates and neighbor counts
through the connectivity estimator, its error scale and the ML fusion,
handling the degenerate cases field data produces: no usable RSS reading
(a NaN range estimate; callers decide which readings to drop), no
connectivity information (zero intensity, the default for all-zero counts
without a supplied intensity), and noise-free channels (the RSS estimate
is exact).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .connectivity import FdModel, conn_error_sigma, invert_counts
from .fusion import fuse_arrays

RSS_ONLY = "rss_only"
CONNECTIVITY_ONLY = "connectivity_only"
NO_INFORMATION = "no_information"


class PairEstimates(NamedTuple):
    """Per-pair arrays; sigma_c is NaN where connectivity is unusable."""

    d_conn: np.ndarray
    d_fused: np.ndarray
    sigma_c: np.ndarray
    intensity: np.ndarray
    status: np.ndarray


def clamp_to_cutoff(d, d_th):
    """Clamp distances to [1e-9 d_th, d_th], where the error scales are defined."""
    return np.clip(d, 1e-9 * d_th, d_th)


def estimate_pairs(model: FdModel, d_rss, m, p, q, intensity=None) -> PairEstimates:
    """Estimate the distances of many pairs from RSS ranges and neighbor counts.

    The channel is the one the f(d) table was built for, model.params.
    d_rss holds the RSS range estimates, NaN where a pair has no usable
    reading. intensity (scalar or per pair) defaults to the moment
    estimate (2M+P+Q)/(2S) from the counts; a zero intensity means no
    connectivity information, and a supplied one that is negative or not
    finite raises ValueError. The fusion runs twice: first with sigma_c
    taken at the connectivity estimate, then with sigma_c taken at that
    first fused estimate, both points clamped to [1e-9 d_th, d_th]; the
    reported sigma_c is the second one. Near d = 0 the connectivity
    estimate alone is too noisy to fix the error scale. Where one source
    is unusable, or the channel is noise-free, the fused estimate falls
    back to the other source, mirroring how the likelihood behaves as the
    corresponding error scale grows without bound.
    """
    params, d_th = model.params, model.d_th
    d_rss = np.asarray(d_rss, dtype=float)
    d_conn = invert_counts(model, m, p, q)
    if intensity is None:
        intensity = (2.0 * np.asarray(m) + p + q) / (2.0 * model.s_mass)
    lam = np.asarray(intensity, dtype=float)
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise ValueError(f"intensity must be nonnegative and finite, got {intensity!r}")
    lam = np.broadcast_to(lam, d_conn.shape)
    rss, conn = ~np.isnan(d_rss), lam > 0.0

    sigma_c = np.full(d_conn.shape, math.nan)
    sigma_c[conn] = conn_error_sigma(model, lam[conn], clamp_to_cutoff(d_conn[conn], d_th))

    d_fused = np.where(rss, np.fmin(d_rss, d_th), np.where(conn, d_conn, 0.0))
    status = np.where(rss, RSS_ONLY, np.where(conn, CONNECTIVITY_ONLY, NO_INFORMATION))
    fuse = rss & conn & (params.sigma_db > 0.0)
    x1, x2, lam_fuse = d_rss[fuse], d_conn[fuse], lam[fuse]
    first, _ = fuse_arrays(x1, x2, params.sigma_r, sigma_c[fuse], d_th)
    sigma_c[fuse] = conn_error_sigma(model, lam_fuse, clamp_to_cutoff(first, d_th))
    d_fused[fuse], status[fuse] = fuse_arrays(x1, x2, params.sigma_r, sigma_c[fuse], d_th)
    return PairEstimates(d_conn, d_fused, sigma_c, lam, status)
