"""Estimation pipeline shared by the simulator, dataset evaluation and the CLI.

It owns how a pair's RSS reading and neighbor counts become an estimate
and an error bar. estimate_readings maps readings in dBm to ranges, treats
a reading below the link threshold as no reading and passes the rest on.
estimate_pairs checks the counts and wires arrays of RSS range estimates
and counts through the connectivity estimator, its error scale and the ML
fusion, handling the degenerate cases field data produces: no usable RSS
reading (a NaN range estimate), no connectivity information (zero
intensity, the default for all-zero counts without a supplied intensity),
and noise-free channels (the RSS estimate is exact). sqrt_bounds gives
each estimate its error bar, the square root of the variance bound of the
sources it used.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import _require, estimate_distance_rss
from .crlb import crlb_distance
from .errors import ConfigurationError
from .fdtable import FdModel, conn_error_sigma, invert_counts
from .fusion import BOUNDARY_CLAMPED, INTERIOR, fuse_arrays

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
    reading. The counts m, p and q must hold nonnegative integer values;
    ValueError names the first that does not. intensity (scalar or per
    pair) defaults to the moment estimate (2M+P+Q)/(2S) from the counts; a
    zero intensity means no connectivity information, and a supplied one
    that is negative or not finite raises ValueError. The fusion runs
    twice: first with sigma_c taken at the connectivity estimate, then
    with sigma_c taken at that first fused estimate, both points clamped
    to [1e-9 d_th, d_th]; the reported sigma_c is the second one. Near
    d = 0 the connectivity estimate alone is too noisy to fix the error
    scale. Where one source is unusable, or the channel is noise-free, the
    fused estimate falls back to the other source, mirroring how the
    likelihood behaves as the corresponding error scale grows without
    bound.
    """
    params, d_th = model.params, model.d_th
    for name, value in zip("mpq", map(np.asarray, (m, p, q))):
        _require(value, (value >= 0) & (value < math.inf) & (np.floor(value) == value),
                 f"{name} must be a nonnegative integer")
    d_rss = np.asarray(d_rss, dtype=float)
    d_conn = np.asarray(invert_counts(model, m, p, q))
    if intensity is None:
        intensity = (2.0 * np.asarray(m) + p + q) / (2.0 * model.s_mass)
    lam = np.asarray(intensity, dtype=float)
    _require(lam, (lam >= 0.0) & (lam < math.inf), "intensity must be nonnegative and finite")
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


def estimate_readings(model: FdModel, rss, m, p, q, intensity=None,
                      subject=lambda k: f"reading {k}") -> tuple:
    """The RSS ranges of readings in dBm, and estimate_pairs of them and the counts.

    Raises ConfigurationError for the first reading whose range is 0 or
    infinite; subject(k) names reading k in the message. A reading below
    the channel's link threshold counts as no reading: the estimates use
    the counts alone there, though its range is still returned.
    """
    params, rss = model.params, np.asarray(rss, dtype=float)
    d_rss = np.asarray(estimate_distance_rss(params, rss))
    lost = np.flatnonzero(~((d_rss > 0.0) & (d_rss < math.inf)))
    if lost.size:
        k = int(lost[0])
        raise ConfigurationError(f"{subject(k)} has an RSS reading of {float(rss.flat[k])!r} "
                                 "dBm, which maps to no positive, finite distance")
    usable = np.where(rss >= params.rss_threshold_dbm, d_rss, math.nan)
    return d_rss, estimate_pairs(model, usable, m, p, q, intensity)


def sqrt_bounds(model: FdModel, est: PairEstimates) -> np.ndarray:
    """The error bar of each estimate: the root of the bound of the sources it used.

    sigma_c for connectivity_only; for a fused status, the root of
    crlb_distance at the estimated intensity and the fused estimate,
    clamped to [1e-9 d_th, d_th]; NaN for rss_only, no_information and
    wherever the estimate is 0.
    """
    d, status = est.d_fused, est.status
    out = np.where((status == CONNECTIVITY_ONLY) & (d > 0.0), est.sigma_c, math.nan)
    fused = ((status == INTERIOR) | (status == BOUNDARY_CLAMPED)) & (d > 0.0)
    out[fused] = np.sqrt(crlb_distance(model, est.intensity[fused],
                                       clamp_to_cutoff(d[fused], model.d_th)))
    return out
