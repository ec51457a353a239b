"""Fisher information and the variance lower bound for fused ranging.

The pair observation consists of the neighbor counts, under
fdtable.count_law, and one RSS reading (normal in dB around the
log-distance path loss). Distance d and node intensity are estimated
jointly, so the bound on d is the (d, d) entry of the inverse of the 2x2
Fisher information matrix. Eliminating the intensity leaves the counts
1/sigma_c^2 of information about d, with sigma_c from conn_error_sigma.
fim and crlb_distance take broadcastable arrays and share count_law's
argument check. The channel, which sets the RSS term, is the one the
model was built for (model.params).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import LN10, ChannelParams, _like_input
from .fdtable import FdModel, conn_error_sigma, count_law


class FisherInfo(NamedTuple):
    """Entries of the symmetric 2x2 information matrix over (distance, intensity)."""

    i_dd: float
    i_dl: float
    i_ll: float


def rss_fisher_scale(params: ChannelParams) -> float:
    """Information about distance carried by one RSS reading, times d^2.

    Infinite for sigma_db = 0: an exact reading gives the distance exactly.
    """
    if params.sigma_db == 0.0:
        return np.inf
    return (10.0 * params.alpha / (params.sigma_db * LN10)) ** 2


def fim(model: FdModel, intensity, d) -> FisherInfo:
    """Fisher information matrix at distance d and the given node intensity; takes arrays.

    The Poisson information of the two counts of count_law, each of mean
    lambda m(d): lambda m'^2/m, m' and m/lambda summed over the counts, plus
    the RSS reading's information about d. Entries come back as arrays of
    the broadcast shape, or floats for 0-d input.
    """
    intensity, d, means, slopes = count_law(model, intensity, d)
    with np.errstate(over="ignore", divide="ignore"):  # inf RSS information as d -> 0
        i_dd = (intensity * sum(g * g / m for m, g in zip(means, slopes))
                + rss_fisher_scale(model.params) / (d * d))
    # unchecked: knots decrease strictly, so f' < 0 and the two counts' scores are never parallel
    return FisherInfo(*map(_like_input, (i_dd, sum(slopes), sum(means) / intensity)))


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
    with np.errstate(over="ignore", divide="ignore"):  # the bound is 0 where d * d underflows
        out = 1.0 / (np.float_power(sigma_c, -2.0) + rss_fisher_scale(model.params) / (d * d))
    return _like_input(out)
