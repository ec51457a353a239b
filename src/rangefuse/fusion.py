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
segments where s falls from + to -, each bracketing one local maximum,
and the global maximum is the best of those roots and the boundary d_th.
fuse_arrays does this for whole arrays of pairs at once.

Each root is found by Newton's method in ln d, where
ds/d(ln d) = B d (x2 - 2d) - A, guarded by its bracket: every evaluation
of s tightens the bracket, and a step that leaves it is replaced by the
bracket's midpoint in ln d. A root settles when |s| falls to the rounding
floor of its own terms, 8 eps (A (|ln x1| + |ln d|) + B d (x2 + d)), when
the step is a few ulps, or when the bracket can no longer be split.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import LN10, _require

INTERIOR = "interior"
BOUNDARY_CLAMPED = "boundary_clamped"
EPS = np.finfo(float).eps


def stationarity(ln_x1, x2, a, b, d):
    """The stationarity function s(d) above, from ln x1, A and B precomputed.

    It shares the sign of the log-likelihood's derivative on d > 0. All
    arguments broadcast.
    """
    return a * (ln_x1 - np.log(d)) + b * d * (x2 - d)


def _newton_roots(ln_x1, x2, a, b, lo, hi, start):
    """The root of s in each bracket (lo, hi), where s(lo) > 0 >= s(hi).

    One bracket per element of the one-dimensional columns. The Newton
    steps start from start, or from the bracket's midpoint in ln d where
    start is not inside, and stop by the rule in the module docstring. A
    settled root takes its last step where that stays inside the bracket,
    so a point where s is exactly 0 is kept; a bracket that can no longer
    be split yields its lower end. Settled roots leave the working columns.
    """
    roots = np.empty(lo.size)
    at = np.arange(lo.size)
    d = np.where((lo < start) & (start < hi), start, np.sqrt(lo) * np.sqrt(hi))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while at.size:
            ln_d = np.log(d)
            s = a * (ln_x1 - ln_d) + b * d * (x2 - d)
            lo = np.where(s > 0.0, d, lo)
            hi = np.where(s < 0.0, d, hi)
            # a step that overflows or divides by a zero slope is not inside
            step = d * np.exp(s / (a + b * d * (2.0 * d - x2)))
            inside = (lo < step) & (step < hi)
            floor = (8.0 * EPS) * (a * (np.abs(ln_x1) + np.abs(ln_d)) + b * d * (x2 + d))
            settled = (np.abs(s) <= floor) | (np.abs(step - d) <= (4.0 * EPS) * d)
            mid = np.sqrt(lo) * np.sqrt(hi)
            roots[at] = np.where(settled, np.where(inside, step, d), lo)
            d = np.where(inside, step, mid)
            keep = (lo < mid) & (mid < hi) & ~settled
            at, d, lo, hi, ln_x1, x2, a, b = (v[keep] for v in (at, d, lo, hi, ln_x1, x2, a, b))
    return roots


def fuse_arrays(x1, x2, sigma_r, sigma_c, d_th):
    """Maximize the joint log-likelihood over (0, d_th] for arrays of pairs.

    x1 is the RSS range estimate (positive and finite, may exceed d_th),
    x2 the connectivity one (in [0, d_th]); sigma_r scales the log10 error
    of x1, sigma_c the additive error of x2 (both positive and finite);
    d_th bounds the search (positive and finite). All five broadcast
    against each other; only x1, the one taken from raw readings, is
    checked here. Deterministic and total, and each pair's result depends
    on that pair alone. The candidates are the roots of s in the segments
    (d0, near) and (far, d_th) where s falls from + to - there, plus d_th;
    the one with the lowest penalty wins, ties going to d_th. The search
    for a root starts from x1 in the near segment and from x2 in the far.
    Returns (d_hat, status); the status is BOUNDARY_CLAMPED where the
    winner lies within 1e-9 * d_th of d_th, INTERIOR elsewhere.
    """
    x1, x2, sigma_r, sigma_c, d_th = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x1, x2, sigma_r, sigma_c, d_th))
    )
    _require(x1, (x1 > 0.0) & (x1 < math.inf), "x1 must be positive and finite")
    a = 1.0 / (sigma_r * LN10) ** 2
    b = 1.0 / sigma_c**2
    ln_x1 = np.log(x1)

    disc = x2 * x2 - 8.0 * a / b
    far = 0.25 * (x2 + np.sqrt(np.abs(disc)))
    # the product of the two turning points is A / (2B); turning points
    # that are complex or beyond d_th collapse onto d_th
    near, far = (
        np.where((disc > 0.0) & (t < d_th), t, d_th) for t in (a / (2.0 * b * far), far)
    )
    # the floor keeps d0 positive where x1 / e underflows
    d0 = np.maximum(0.5 * np.minimum(x1 / math.e, np.sqrt(a / b)), 5e-324)
    # row 0 is the segment (d0, near), row 1 the segment (far, d_th); s > 0
    # at d0 by construction, so only the far segment's start is checked
    lo = np.stack([np.minimum(d0, near), far])
    hi = np.stack([near, d_th])
    rises = stationarity(ln_x1, x2, a, b, lo) > 0.0
    rises[0] = True
    usable = rises & (lo < hi) & (stationarity(ln_x1, x2, a, b, hi) <= 0.0)

    # an unusable segment offers d_th; flat index at is row * x1.size + pair
    roots = np.stack([d_th, d_th])
    at = np.flatnonzero(usable)
    pair = at % x1.size
    np.put(roots, at, _newton_roots(*(np.take(v, pair) for v in (ln_x1, x2, a, b)),
                                    *(np.take(v, at) for v in (lo, hi, np.stack([x1, x2])))))

    cand = np.concatenate([d_th[None], roots])
    t = np.log10(x1) - np.log10(cand)
    penalty = t * t * (0.5 / sigma_r**2) + (x2 - cand) ** 2 * (0.5 * b)
    winner = np.take_along_axis(cand, np.argmin(penalty, axis=0)[None], axis=0)[0]
    clamped = d_th - winner <= 1e-9 * d_th
    return np.where(clamped, d_th, winner), np.where(clamped, BOUNDARY_CLAMPED, INTERIOR)
