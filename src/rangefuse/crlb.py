"""Fisher information and the variance lower bound for fused ranging.

The pair observation consists of the three neighbor counts (Poisson with
means driven by f(d) and S) and one RSS reading (normal in dB around the
log-distance path loss). Distance d and node intensity are estimated
jointly, so the bound on d is the (d, d) entry of the inverse of the 2x2
Fisher information matrix. Eliminating the intensity leaves the counts
1/sigma_c^2 of information about d, with sigma_c from conn_error_sigma.
f and its slope come from the tabulated piecewise-linear model; knots
resolve to the left segment. fim and crlb_distance both take broadcastable
arrays on the domain (0, d_th] of conn_error_sigma and share its argument
check: 0 < intensity < inf, d in (0, d_th] and 0 < f(d) < S. The channel,
which sets the RSS term, is the one the model was built for (model.params).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import LN10, ChannelParams
from .connectivity import FdModel, _model_point, conn_error_sigma


class FisherInfo(NamedTuple):
    """Entries of the symmetric 2x2 information matrix over (distance, intensity)."""

    i_dd: float
    i_dl: float
    i_ll: float


def rss_fisher_scale(params: ChannelParams) -> float:
    """Information about distance carried by one RSS reading, times d^2."""
    if params.sigma_db == 0.0:
        raise ValueError("RSS information diverges for sigma_db = 0")
    return (10.0 * params.alpha / (params.sigma_db * LN10)) ** 2


def fim(model: FdModel, intensity, d) -> FisherInfo:
    """Fisher information matrix at distance d and the given node intensity; takes arrays.

    Entries come back as arrays of the broadcast shape, or floats for 0-d input.
    """
    intensity, d, f_val, slope = _model_point(model, intensity, d)
    scale = rss_fisher_scale(model.params)
    s = model.s_mass
    i_dd = intensity * slope * slope * (1.0 / f_val + 2.0 / (s - f_val)) + scale / (d * d)
    # No check of the result: 0 < f < S (from _model_point) and kappa = scale > 0
    # give i_ll = (2S - f)/lambda > 0 and det = f'^2 [(2S - f)(S + f)/(f (S - f)) - 1]
    # + kappa (2S - f)/(lambda d^2) > 0, since (2S - f)(S + f) - f (S - f) = 2 S^2.
    entries = (i_dd, -slope, (2.0 * s - f_val) / intensity)
    return FisherInfo(*(x if np.ndim(x) else float(x) for x in entries))


def crlb_distance(model: FdModel, intensity, d):
    """Lower bound on the variance of any unbiased distance estimate; takes arrays.

    The (d, d) entry of the inverse information matrix: the inverse of the
    connectivity information 1/sigma_c^2 plus the RSS information. Its
    arguments are checked by conn_error_sigma, on the domain fim shares.
    """
    sigma_c = conn_error_sigma(model, intensity, d)
    d = np.asarray(d, dtype=float)
    # float_power is libm's pow; numpy's SIMD ** differs from it in the last
    # bit for about one sigma_c in twenty
    out = 1.0 / (np.float_power(sigma_c, -2.0) + rss_fisher_scale(model.params) / (d * d))
    return out if out.ndim else float(out)
