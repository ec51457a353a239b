"""Log-normal shadowing channel model and the RSS-based range estimator.

Received power decays linearly in log-distance around a reference
measurement and carries a zero-mean normal perturbation in dB (shadowing).
Inverting the deterministic part of the model maps one RSS reading to a
distance estimate; the shadowing term makes that estimate lognormally
distributed around the true distance.

RSS observations are plain floats in dBm throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LN10 = math.log(10.0)

# 1/sqrt(2) = _SQRT_HALF + _SQRT_HALF_REST to about 1e-33
_SQRT_HALF = 0.7071067811865476
_SQRT_HALF_REST = -4.833646656726457e-17
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_erfc = np.vectorize(math.erfc, otypes=[float])


def _halves(a):
    """a as hi + lo, each with at most 26 significant bits, so products of halves are exact."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_SQRT_HALF_HI, _SQRT_HALF_LO = _halves(_SQRT_HALF)


def gaussian_tail(x):
    """Upper tail P(Z > x) of the standard normal, accurate to ~1e-15 relative.

    Computed as erfc(y)/2 at y = x/sqrt(2) with libm's erfc, elementwise.
    Rounding y alone would cost about x**2 ulps of the tail far out, so
    the rounding error e of y is recovered exactly (Dekker's product) and
    taken off to first order: erfc(y + e) = erfc(y) - 2 e exp(-y**2)/sqrt(pi).
    It needs no scipy, so threshold_distance runs without loading it.
    """
    x = np.asarray(x, dtype=float)
    y = x * _SQRT_HALF
    with np.errstate(over="ignore", invalid="ignore"):
        x_hi, x_lo = _halves(x)
        e = (((x_hi * _SQRT_HALF_HI - y) + x_hi * _SQRT_HALF_LO + x_lo * _SQRT_HALF_HI)
             + x_lo * _SQRT_HALF_LO + x * _SQRT_HALF_REST)
        # past |x| = 40 the tail is 0 or 1 in doubles; e may be nan there
        correction = np.where(np.abs(x) < 40.0, e * np.exp(-y * y), 0.0)
    return 0.5 * _erfc(y) - correction / math.sqrt(math.pi)


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the log-normal shadowing channel.

    Attributes
    ----------
    p_ref_dbm : mean received power at the reference distance, dBm.
    alpha : path loss exponent, > 0.
    sigma_db : shadowing standard deviation in dB, >= 0.
    rss_threshold_dbm : minimum power for a link to exist, dBm; must be
        below p_ref_dbm so the pseudo transmission range exceeds d0.
    d0 : reference distance in meters, > 0 (defaults to 1 m).
    """

    p_ref_dbm: float
    alpha: float
    sigma_db: float
    rss_threshold_dbm: float
    d0: float = 1.0

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not math.isfinite(value):
                raise ValueError(f"{item.name} must be finite, got {value!r}")
        if self.d0 <= 0:
            raise ValueError(f"d0 must be > 0, got {self.d0!r}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")
        if self.sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db!r}")
        if self.rss_threshold_dbm >= self.p_ref_dbm:
            raise ValueError(
                "rss_threshold_dbm must be below p_ref_dbm "
                f"(got threshold {self.rss_threshold_dbm!r} vs reference "
                f"{self.p_ref_dbm!r}); the link range would fall inside d0"
            )

    @property
    def sigma_r(self) -> float:
        """Standard deviation of log10(estimated/true distance)."""
        return self.sigma_db / (10.0 * self.alpha)


def _positive_distances(d):
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"d must be positive and finite, got {d!r}")
    return arr


def _like_input(value):
    return value if value.ndim else float(value)


def mean_rss(params: ChannelParams, d):
    """Mean received power in dBm at distance d, shadowing set to zero."""
    d = _positive_distances(d)
    out = params.p_ref_dbm - 10.0 * params.alpha * np.log10(d / params.d0)
    return _like_input(out)


def sample_rss(params: ChannelParams, d, rng: np.random.Generator):
    """Draw received power at distance d: mean_rss plus normal shadowing.

    Vectorizes over d; one independent draw per element. Deterministic for
    a seeded generator.
    """
    d = _positive_distances(d)
    mean = params.p_ref_dbm - 10.0 * params.alpha * np.log10(d / params.d0)
    out = mean + rng.normal(0.0, params.sigma_db, size=d.shape)
    return _like_input(out)


def estimate_distance_rss(params: ChannelParams, obs):
    """Distance estimate from one RSS reading.

    Whether the reading is above the link threshold is the caller's
    concern; any finite value maps to a distance, which is 0 or infinite
    for an extreme one.
    """
    obs = np.asarray(obs, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError(f"RSS observation must be finite, got {obs!r}")
    with np.errstate(over="ignore"):
        out = params.d0 * 10.0 ** ((params.p_ref_dbm - obs) / (10.0 * params.alpha))
    return _like_input(out)


def pseudo_range(params: ChannelParams) -> float:
    """Distance at which the mean RSS equals the link threshold."""
    return params.d0 * 10.0 ** (
        (params.p_ref_dbm - params.rss_threshold_dbm) / (10.0 * params.alpha)
    )


def link_probability(params: ChannelParams, d):
    """Probability that a link exists at distance d.

    Equals the upper Gaussian tail of the shadowing needed to lift the mean
    power above the threshold, so it is 1/2 exactly at the pseudo range and
    nonincreasing in d. With sigma_db = 0 it degenerates to the unit step
    at the pseudo range.
    """
    d = _positive_distances(d)
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        out = np.where(d <= r, 1.0, 0.0)
    else:
        out = gaussian_tail(10.0 * params.alpha * np.log10(d / r) / params.sigma_db)
    return _like_input(out)

