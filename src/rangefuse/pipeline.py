"""Estimation pipeline shared by the simulator, dataset evaluation and the CLI.

estimate_pairs wires arrays of RSS range estimates and neighbor counts
through the connectivity estimator, its error scale and the ML fusion,
handling the degenerate cases field data produces: no usable RSS reading
(a NaN range estimate; callers decide which readings to drop), no
connectivity information (zero intensity, the default for all-zero counts
without a supplied intensity), and noise-free channels (the RSS estimate
is exact). estimate_pair is its one-pair form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, estimate_distance_rss
from .connectivity import FdModel, NeighborCounts, conn_error_sigma, invert_counts
from .crlb import crlb_distance
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


def _clamp_to_cutoff(d, d_th):
    """Clamp distances to [1e-9 d_th, d_th], where the error scales are defined."""
    return np.clip(d, 1e-9 * d_th, d_th)


def estimate_pairs(params: ChannelParams, model: FdModel, d_rss, m, p, q,
                   intensity=None) -> PairEstimates:
    """Estimate the distances of many pairs from RSS ranges and neighbor counts.

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
    d_th = model.d_th
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
    sigma_c[conn] = conn_error_sigma(model, lam[conn], _clamp_to_cutoff(d_conn[conn], d_th))

    d_fused = np.where(rss, np.fmin(d_rss, d_th), np.where(conn, d_conn, 0.0))
    status = np.where(rss, RSS_ONLY, np.where(conn, CONNECTIVITY_ONLY, NO_INFORMATION))
    fuse = rss & conn & (params.sigma_db > 0.0)
    x1, x2, lam_fuse = d_rss[fuse], d_conn[fuse], lam[fuse]
    first, _ = fuse_arrays(x1, x2, params.sigma_r, sigma_c[fuse], d_th)
    sigma_c[fuse] = conn_error_sigma(model, lam_fuse, _clamp_to_cutoff(first, d_th))
    d_fused[fuse], status[fuse] = fuse_arrays(x1, x2, params.sigma_r, sigma_c[fuse], d_th)
    return PairEstimates(d_conn, d_fused, sigma_c, lam, status)


@dataclass(frozen=True)
class PairEstimate:
    """All per-pair outputs; sqrt_crlb is None when the bound is undefined."""

    d_rss: float | None
    d_conn: float
    d_fused: float
    sigma_c: float | None
    sqrt_crlb: float | None
    intensity: float | None
    status: str
    notes: tuple = ()


def estimate_pair(
    params: ChannelParams,
    model: FdModel,
    rss_dbm: float | None,
    counts: NeighborCounts,
    intensity: float | None = None,
) -> PairEstimate:
    """Estimate one pair's distance from its RSS reading and neighbor counts.

    The one-pair form of estimate_pairs: a reading below the link
    threshold is treated as uninformative. Also reports the bound at the
    fused estimate.
    """
    d_rss = None if rss_dbm is None else estimate_distance_rss(params, rss_dbm)
    usable = rss_dbm is not None and rss_dbm >= params.rss_threshold_dbm
    est = estimate_pairs(params, model, [d_rss if usable else math.nan],
                         [counts.m], [counts.p], [counts.q], intensity)
    d_conn, d_fused, sigma_c, lam = (float(v[0]) for v in est[:4])
    status, conn = str(est.status[0]), lam > 0.0
    notes = [text for applies, text in (
        (not conn and intensity is None,
         "all-zero counts: no intensity estimate, connectivity unusable"),
        (not conn and intensity is not None, "zero intensity supplied: connectivity unusable"),
        (d_rss is not None and not usable,
         "RSS below the link threshold: treated as uninformative"),
        (status == RSS_ONLY, "noise-free channel: the RSS estimate is exact"
         if params.sigma_db == 0.0 else "connectivity error scale unbounded: kept the RSS estimate"),
        (status == CONNECTIVITY_ONLY and d_conn == 0.0,
         "zero connectivity estimate with no usable RSS"),
    ) if applies]

    sqrt_crlb = None
    if conn and params.sigma_db > 0.0 and d_fused > 0.0:
        # the bound needs a point strictly inside the cutoff
        point = min(float(_clamp_to_cutoff(d_fused, model.d_th)),
                    math.nextafter(model.d_th, 0.0))
        sqrt_crlb = math.sqrt(crlb_distance(params, model, lam, point))

    return PairEstimate(d_rss, d_conn, d_fused, sigma_c if conn else None, sqrt_crlb,
                        lam if conn else None, status, tuple(notes))
