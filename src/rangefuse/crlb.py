"""Fisher information and the variance lower bound for fused ranging.

The pair observation consists of the three neighbor counts (Poisson with
means driven by f(d) and S) and one RSS reading (normal in dB around the
log-distance path loss). Distance d and node intensity are estimated
jointly, so the bound on d is the (d, d) entry of the inverse of the 2x2
Fisher information matrix. Eliminating the intensity leaves the counts
1/sigma_c^2 of information about d, with sigma_c from conn_error_sigma.
f and its slope come from the tabulated piecewise-linear model; knots
resolve to the left segment. The channel, which sets the RSS term, is the
one the model was built for (model.params).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LN10, ChannelParams
from .connectivity import FdModel, conn_error_sigma, eval_fd, fd_slope


@dataclass(frozen=True)
class FisherInfo:
    """Entries of the symmetric 2x2 information matrix over (distance, intensity)."""

    i_dd: float
    i_dl: float
    i_ll: float

    def __post_init__(self):
        if not self.i_dd > 0.0:
            raise ValueError(f"i_dd must be positive, got {self.i_dd!r}")
        if not self.i_ll > 0.0:
            raise ValueError(f"i_ll must be positive, got {self.i_ll!r}")
        if not self.i_dd * self.i_ll - self.i_dl**2 > 0.0:
            raise ValueError("information matrix must be positive definite")


def rss_fisher_scale(params: ChannelParams) -> float:
    """Information about distance carried by one RSS reading, times d^2."""
    if params.sigma_db == 0.0:
        raise ValueError("RSS information diverges for sigma_db = 0")
    return (10.0 * params.alpha / (params.sigma_db * LN10)) ** 2


def _check_point(model: FdModel, intensity: float, d: float) -> tuple[float, float]:
    if not 0.0 < intensity < math.inf:
        raise ValueError(f"intensity must be positive and finite, got {intensity!r}")
    if not 0.0 < d < model.d_th:
        raise ValueError(f"d must lie strictly inside (0, d_th), got {d!r}")
    f_val = eval_fd(model, d)
    if f_val <= 0.0 or f_val >= model.s_mass:
        raise ValueError(
            f"f(d)={f_val!r} touches 0 or the mass {model.s_mass!r}; "
            "the information matrix is singular there"
        )
    return f_val, fd_slope(model, d)


def fim(model: FdModel, intensity: float, d) -> FisherInfo:
    """Fisher information matrix at distance d and the given node intensity."""
    d = float(d)
    f_val, slope = _check_point(model, intensity, d)
    scale = rss_fisher_scale(model.params)
    s = model.s_mass
    i_dd = intensity * slope * slope * (1.0 / f_val + 2.0 / (s - f_val)) + scale / (d * d)
    return FisherInfo(i_dd=i_dd, i_dl=-slope, i_ll=(2.0 * s - f_val) / intensity)


def crlb_distance(model: FdModel, intensity: float, d) -> float:
    """Lower bound on the variance of any unbiased distance estimate.

    The (d, d) entry of the inverse information matrix: the inverse of the
    connectivity information 1/sigma_c^2 plus the RSS information.
    """
    d = float(d)
    _check_point(model, intensity, d)
    sigma_c = conn_error_sigma(model, intensity, d)
    return 1.0 / (sigma_c**-2 + rss_fisher_scale(model.params) / (d * d))
