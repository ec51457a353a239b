"""Maximum-likelihood fusion of the RSS and connectivity range estimates.

The two estimates carry complementary error laws: the RSS estimate is
lognormal around the true distance (multiplicative error), the
connectivity estimate is approximately normal around it (additive error).
Treating them as independent observations of the same distance, the
fused estimate maximizes their joint log-likelihood on (0, d_th].

With A = 1/(sigma_r^2 ln^2 10) and B = 1/sigma_c^2 the stationarity
function is s(d) = A ln(x1/d) + B d (x2 - d), d times the derivative of
the log-likelihood. Its turning points solve 2B d^2 - B x2 d + A = 0, so
there are at most two and both are known in closed form. Between them s
is monotone, and s > 0 on (0, d0] with d0 = min(x1/e, sqrt(A/B)) / 2.
Splitting (0, d_th] at the turning points therefore leaves at most two
segments where s falls from + to -, each bracketing one local maximum;
Brent's method solves each, and the global maximum is the best of those
roots and the boundary d_th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .channel import LN10

INTERIOR = "interior"
BOUNDARY_CLAMPED = "boundary_clamped"


@dataclass(frozen=True)
class FusionInput:
    """One pair's estimates and error scales.

    x1 is the RSS-based distance estimate (> 0, may exceed d_th), x2 the
    connectivity-based one (within [0, d_th]); sigma_r scales the log10
    error of x1, sigma_c the additive error of x2; d_th bounds the search.
    """

    x1: float
    x2: float
    sigma_r: float
    sigma_c: float
    d_th: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and self.x1 > 0.0):
            raise ValueError(f"x1 must be positive and finite, got {self.x1!r}")
        if not (math.isfinite(self.d_th) and self.d_th > 0.0):
            raise ValueError(f"d_th must be positive and finite, got {self.d_th!r}")
        if not (math.isfinite(self.x2) and 0.0 <= self.x2 <= self.d_th):
            raise ValueError(f"x2 must lie in [0, d_th], got {self.x2!r}")
        for name in ("sigma_r", "sigma_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


class FuseResult(NamedTuple):
    d_hat: float
    status: str


def log_likelihood(inp: FusionInput, d):
    """Joint log-likelihood of both estimates at candidate distance d."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError(f"d must be positive and finite, got {d!r}")
    const = -math.log(2.0 * math.pi * inp.sigma_r * inp.sigma_c * inp.x1 * LN10)
    t = math.log10(inp.x1) - np.log10(d)
    out = (
        const
        - t * t / (2.0 * inp.sigma_r**2)
        - (inp.x2 - d) ** 2 / (2.0 * inp.sigma_c**2)
    )
    return out if out.ndim else float(out)


def score(inp: FusionInput, d):
    """Stationarity function whose roots are the log-likelihood's critical points.

    Equals d times the derivative of the log-likelihood, so it shares the
    derivative's sign everywhere on d > 0.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError(f"d must be positive and finite, got {d!r}")
    t = math.log10(inp.x1) - np.log10(d)
    out = t / (inp.sigma_r**2 * LN10) + d * (inp.x2 - d) / inp.sigma_c**2
    return out if out.ndim else float(out)


def fuse_mle(inp: FusionInput) -> FuseResult:
    """Maximize the joint log-likelihood over (0, d_th].

    Deterministic and total. The candidates are the roots of s in every
    segment between turning points where s falls from + to -, plus d_th;
    the one with the lowest penalty wins. The status is BOUNDARY_CLAMPED
    when the winner lies within 1e-9 * d_th of d_th, INTERIOR otherwise.
    """
    x1, x2, d_th = inp.x1, inp.x2, inp.d_th
    a = 1.0 / (inp.sigma_r * LN10) ** 2
    b = 1.0 / inp.sigma_c**2
    ln_x1 = math.log(x1)

    def s(d):
        return a * (ln_x1 - math.log(d)) + b * d * (x2 - d)

    edges = [0.5 * min(x1 / math.e, math.sqrt(a / b))]
    disc = x2 * x2 - 8.0 * a / b
    if disc > 0.0:
        far = 0.25 * (x2 + math.sqrt(disc))
        # the product of the two turning points is A / (2B)
        edges += [t for t in (a / (2.0 * b * far), far) if t < d_th]
    edges.append(d_th)
    edges[0] = min(edges[0], edges[1])

    candidates = [d_th]
    for lo, hi in zip(edges, edges[1:]):
        if s(lo) > 0.0 >= s(hi):
            candidates.append(brentq(s, lo, hi, xtol=1e-15 * d_th))

    log10_x1 = math.log10(x1)
    half_inv_sr2 = 0.5 / inp.sigma_r**2
    half_inv_sc2 = 0.5 * b

    def penalty(d):
        t = log10_x1 - math.log10(d)
        return t * t * half_inv_sr2 + (x2 - d) ** 2 * half_inv_sc2

    winner = min(candidates, key=penalty)
    if d_th - winner <= 1e-9 * d_th:
        return FuseResult(float(d_th), BOUNDARY_CLAMPED)
    return FuseResult(float(winner), INTERIOR)
