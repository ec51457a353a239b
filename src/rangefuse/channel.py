"""Log-normal shadowing channel model and the RSS-based range estimator.

Received power decays linearly in log-distance around a reference
measurement and carries a zero-mean normal perturbation in dB (shadowing).
Inverting the deterministic part of the model maps one RSS reading to a
distance estimate; the shadowing term makes that estimate lognormally
distributed around the true distance.

RSS observations are plain floats in dBm throughout this package.

A link exists where the shadowed power clears the threshold, so at
distance d it exists with probability Q(10 alpha log10(d / r) / sigma_db),
r the pseudo range. _normal_tail is the package's one kernel of the normal
tail Q(x) = erfc(x / sqrt 2) / 2: link_probability and the closed-form
tails of the f(d) rule both call it. It takes erfc from the standard
library's math.erfc. Its relative error grows with x, mostly from rounding
x / sqrt(2), and stays below 2.2e-16 (x^2 + 4) while Q is a normal float
(x < 37.5; past that Q loses precision to underflow). Against 50-digit
values it is 3.7e-16 at x = 3.09, where the 1e-3 cutoff reads, 5.7e-15 at
x = 8, 3.5e-14 at x = 20 and 9.8e-14 at x = 37 (Q = 6e-300). erfc(x / sqrt 2)
is exactly 0 from x = 38.5 on, so past x = 40 the kernel returns 0.0
without calling erfc.

Also holds _require and _like_input, the one argument check and the one
0-d rule of the package's array functions. _require raises ValueError
"<what>, got <v>" for the first bad value v, printed as its Python scalar
(a count stays an integer); _like_input returns a float for 0-d input and
an array otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LN10 = math.log(10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the log-normal shadowing channel.

    Attributes
    ----------
    p_ref_dbm : mean received power at the reference distance, dBm.
    alpha : path loss exponent, > 0.
    sigma_db : shadowing standard deviation in dB: 0 (noise-free), or large
        enough that sigma_r >= 1e-100, above which the bound and the f(d)
        table stay within the floats.
    rss_threshold_dbm : minimum power for a link to exist, dBm; must be
        below p_ref_dbm so the pseudo transmission range exceeds d0, and
        that range must lie within 1e-140 to 1e140 m.
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
        if self.sigma_db > 0.0 and not self.sigma_r >= 1e-100:
            raise ValueError("sigma_db must be 0 or give sigma_r = sigma_db / (10 alpha) "
                             f">= 1e-100, got sigma_r = {self.sigma_r!r}")
        if self.rss_threshold_dbm >= self.p_ref_dbm:
            raise ValueError(
                "rss_threshold_dbm must be below p_ref_dbm "
                f"(got threshold {self.rss_threshold_dbm!r} vs reference "
                f"{self.p_ref_dbm!r}); the link range would fall inside d0"
            )
        # log10 of pseudo_range, which may overflow. The f(d) table scales as
        # its square: past 1e150 m it overflows, below 1e-154 m it is subnormal
        decades = (math.log10(self.d0)
                   + (self.p_ref_dbm - self.rss_threshold_dbm) / (10.0 * self.alpha))
        if not abs(decades) <= 140.0:
            raise ValueError(f"the pseudo range, 10^{decades:.6g} m, lies outside "
                             "1e-140 to 1e140 m")

    @property
    def sigma_r(self) -> float:
        """Standard deviation of log10(estimated/true distance)."""
        return self.sigma_db / (10.0 * self.alpha)


def _require(values, ok, what: str) -> None:
    """Raise ValueError "<what>, got <v>" for the first v of values where the mask ok is False."""
    if not np.all(ok):
        bad = np.asarray(values)[np.logical_not(ok)].item(0)
        raise ValueError(f"{what}, got {bad!r}")


def _like_input(value):
    """value as a float where it is 0-d, else as it is."""
    return value if np.ndim(value) else float(value)


def _positive_distances(d):
    d = np.asarray(d, dtype=float)
    _require(d, (d > 0.0) & (d < math.inf), "d must be positive and finite")
    return d


def mean_rss(params: ChannelParams, d):
    """Mean received power in dBm at distance d, shadowing set to zero."""
    d = _positive_distances(d)
    return _like_input(params.p_ref_dbm - 10.0 * params.alpha * np.log10(d / params.d0))


def sample_rss(params: ChannelParams, d, rng: np.random.Generator):
    """Draw received power at distance d: mean_rss plus normal shadowing.

    Vectorizes over d; one independent draw per element. Deterministic for
    a seeded generator.
    """
    mean = mean_rss(params, d)
    return _like_input(mean + rng.normal(0.0, params.sigma_db, size=np.shape(mean)))


def estimate_distance_rss(params: ChannelParams, obs):
    """Distance estimate from one RSS reading.

    Whether the reading is above the link threshold is the caller's
    concern; any finite value maps to a distance, which is 0 or infinite
    for an extreme one.
    """
    obs = np.asarray(obs, dtype=float)
    _require(obs, np.isfinite(obs), "RSS observation must be finite")
    with np.errstate(over="ignore"):
        return _like_input(params.d0 * 10.0 ** ((params.p_ref_dbm - obs) / (10.0 * params.alpha)))


def pseudo_range(params: ChannelParams) -> float:
    """Distance at which the mean RSS equals the link threshold."""
    return params.d0 * 10.0 ** (
        (params.p_ref_dbm - params.rss_threshold_dbm) / (10.0 * params.alpha)
    )


def _normal_tail(x) -> np.ndarray:
    """Q(x) = erfc(x / sqrt 2) / 2 elementwise, in the shape of x (accuracy: module docstring)."""
    x = np.asarray(x, dtype=float)
    erfc = np.zeros(x.shape)
    live = ~(x > 40.0)
    erfc[live] = np.fromiter(map(math.erfc, x[live] / math.sqrt(2.0)), float)
    return 0.5 * erfc


def link_probability(params: ChannelParams, d):
    """Probability that a link exists at distance d.

    Equals the upper Gaussian tail of the shadowing needed to lift the mean
    power above the threshold, so it is 1/2 exactly at the pseudo range and
    nonincreasing in d (accuracy: see the module docstring). With sigma_db
    = 0 it degenerates to the unit step at the pseudo range.
    """
    d = _positive_distances(d)
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        return _like_input(np.where(d <= r, 1.0, 0.0))
    scale = 10.0 * params.alpha / params.sigma_db
    return _like_input(_normal_tail(scale * np.log10(np.maximum(d, 1e-300) / r)))
