"""Single-pair estimation pipeline shared by the CLI and dataset evaluation.

Wires one RSS reading and one set of neighbor counts through all three
estimators, handling the degenerate cases field data produces: readings
below the link threshold (RSS carries no information), all-zero counts
with no supplied intensity (connectivity carries none), and noise-free
channels (the RSS estimate is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, estimate_distance_rss
from .connectivity import (
    FdModel,
    NeighborCounts,
    conn_error_sigma,
    estimate_distance_conn,
    estimate_intensity,
)
from .crlb import crlb_distance
from .fusion import FusionInput, fuse_mle

RSS_ONLY = "rss_only"
CONNECTIVITY_ONLY = "connectivity_only"
NO_INFORMATION = "no_information"


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

    intensity defaults to the moment estimate from the counts themselves.
    The fused estimate falls back to the single usable source when the
    other is degenerate, mirroring how the likelihood behaves as the
    corresponding error scale grows without bound.
    """
    d_th = model.d_th
    notes = []
    d_conn = estimate_distance_conn(model, counts)
    lam = intensity if intensity is not None else estimate_intensity(counts, model.s_mass)
    if lam <= 0.0:
        lam = None
        notes.append("all-zero counts: no intensity estimate, connectivity unusable")

    d_rss = None
    rss_usable = False
    if rss_dbm is not None:
        d_rss = estimate_distance_rss(params, rss_dbm)
        rss_usable = rss_dbm >= params.rss_threshold_dbm
        if not rss_usable:
            notes.append("RSS below the link threshold: treated as uninformative")

    sigma_c = None
    if lam is not None:
        plug = min(max(d_conn, 1e-9 * d_th), d_th)
        sigma_c = conn_error_sigma(model, lam, plug)

    if rss_usable and lam is not None and params.sigma_db > 0.0:
        result = fuse_mle(FusionInput(d_rss, d_conn, params.sigma_r, sigma_c, d_th))
        d_fused, status = result.d_hat, result.status
    elif rss_usable:
        d_fused, status = min(d_rss, d_th), RSS_ONLY
        if params.sigma_db > 0.0:
            notes.append("connectivity error scale unbounded: kept the RSS estimate")
        else:
            notes.append("noise-free channel: the RSS estimate is exact")
    elif lam is not None:
        d_fused, status = d_conn, CONNECTIVITY_ONLY
        if d_conn == 0.0:
            notes.append("zero connectivity estimate with no usable RSS")
    else:
        d_fused, status = 0.0, NO_INFORMATION

    sqrt_crlb = None
    if lam is not None and params.sigma_db > 0.0 and d_fused > 0.0:
        interior = min(max(d_fused, 1e-9 * d_th), math.nextafter(d_th, 0.0))
        sqrt_crlb = math.sqrt(crlb_distance(params, model, lam, interior))

    return PairEstimate(
        d_rss=d_rss,
        d_conn=d_conn,
        d_fused=d_fused,
        sigma_c=sigma_c,
        sqrt_crlb=sqrt_crlb,
        intensity=lam,
        status=status,
        notes=tuple(notes),
    )
