"""Tabulation of the neighborhood-overlap model f(d): build_fd_model.

Two nodes at separation d share common neighbors at a rate governed by
f(d), the expected number of common neighbors per unit node intensity,
while each node's total expected neighborhood per unit intensity is the
mass S. This module computes f and S for a channel and tabulates f into
an FdModel; reading, inverting and saving a table is fdtable's, which a
command given a saved table loads without this module.

Under the log-normal shadowing channel a node links to an endpoint when
its distance to it is at most a link radius rho = r e^(k z), r the pseudo
range, k = sigma_r ln 10 and z standard normal, drawn afresh for each node
and endpoint; simulator._draw_probe draws links exactly so, one
simulator._links pass testing a block's nodes against both endpoints,
each with its own draw. A node is thus a neighbor of both endpoints when
it lies in the lens where their two link disks overlap, and by Fubini
f(d) = E[lens(rho_a, rho_b, d)] over the two independent draws, just as
S = E[pi rho^2] (generic_s, in closed form).
Under an ideal disk channel both radii are r and f is unit_disk_f.

The whole table is one generic_f call with the knot array, the module's
one quadrature (_lens_rule). The lens area is symmetric in its two radii,
so the rule integrates the half-plane z_b >= z_a, where rho_b >= rho_a,
and doubles the sum. For each z_a the lens has a closed form in z_b outside
the band where the two disks cross: above it b holds a and the lens is
pi rho_a^2, and below it, within the half-plane, the disks are apart and
the lens is 0 (b nested in a needs rho_b < rho_a). The one tail is a
normal tail probability, and Gauss-Legendre panels integrate the band and
z_a. The panels double until two levels agree within quad_tol (no tighter
than the rounding floor QUAD_TOL_FLOOR). Each refinement level is one
array pass over the knots that have not yet converged, and each knot keeps
its own check and its own sums, so a knot's value is the same, to the bit,
as generic_f gives for its distance alone. The tail runs to infinity; z_a
and the band end at z = +-9. Since lens <= pi rho_a^2 on the half-plane,
the part of it beyond 9 in z_b, which holds all of it beyond 9 in z_a,
adds at most Q(9) S, doubled 2 Q(9) S = 2.3e-19 S, and the part below -9
in z_a less. The mass lies where phi(z) e^(2kz), the weight of E[pi
rho^2], peaks: at z = 2k. threshold_distance, and so build_fd_model,
accepts only sigma_r <= 0.647, so that peak lies at z < 3, between the
fixed breaks.

The tail and the cutoff d_th take Q from the one normal-tail kernel,
channel._normal_tail: _lens_tails directly, threshold_distance through the
link probability it bisects. The module needs numpy and the standard
library only.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

from .channel import (LN10, ChannelParams, _like_input, _normal_tail, _require,
                      link_probability, pseudo_range)
from .errors import ModelConstructionError, NumericError
from .fdtable import FdModel

CUTOFF_LINK_PROBABILITY = 1e-3


def unit_disk_f(r, d):
    """Lens-overlap area of two radius-r disks whose centers are d apart."""
    r = float(r)
    _require(r, 0.0 < r < math.inf, "r must be positive and finite")
    d = np.asarray(d, dtype=float)
    _require(d, (d >= 0.0) & (d <= 2.0 * r), "d must lie in [0, 2r]")
    s = math.pi * r * r
    chord = d * np.sqrt(np.maximum(r * r - d * d / 4.0, 0.0))
    return _like_input((2.0 * s / math.pi) * np.arccos(d / (2.0 * r)) - chord)


def generic_s(params: ChannelParams) -> float:
    """Expected neighborhood mass per unit intensity under the channel model.

    E[pi rho^2] = pi r^2 exp(2 k^2) for the link radius rho = r e^(k z),
    k = sigma_r ln 10 (module docstring): the integral of the link
    probability over the plane, and the disk area pi r^2 when sigma_db = 0.
    """
    r = pseudo_range(params)
    return math.pi * r * r * math.exp(2.0 * (params.sigma_r * LN10) ** 2)


def _lens(a, b, d):
    """Intersection area of disks of radii a and b whose centers are d apart; takes arrays.

    a^2 alpha + b^2 beta - d a sin(alpha), with alpha and beta the half
    angles that the common chord subtends at the two centers. Clipping their
    cosines to [-1, 1] gives 0 for disjoint disks and pi min(a, b)^2 for
    nested ones; the chord term takes sin(alpha) = sqrt((1 - c)(1 + c)) from
    the clipped cosine c, which costs a fraction of a sine. At d = 0 every
    pair is nested and the cosines are undefined, so those elements are
    pi min(a, b)^2 outright. The full-size passes run in place in three
    arrays of the broadcast shape, which the area comes back in (a 0-d array
    for scalar arguments); the arguments are left as they are.
    """
    a2, dd = a * a, d * d
    shape = np.broadcast(a, b, d).shape
    b2, cos_a, cos_b = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(b, b, out=b2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(dd, b2, out=cos_b)
        cos_b -= a2
        cos_b /= np.multiply(2.0 * d, b, out=cos_a)
        np.subtract(dd + a2, b2, out=cos_a)
        cos_a /= 2.0 * d * a
        np.clip(cos_a, -1.0, 1.0, out=cos_a)
        np.clip(cos_b, -1.0, 1.0, out=cos_b)
    # b2 becomes the area and cos_b the scratch array of each term after it
    lens = b2
    lens *= np.arccos(cos_b, out=cos_b)
    lens += np.multiply(np.arccos(cos_a, out=cos_b), a2, out=cos_b)
    chord = np.subtract(1.0, cos_a, out=cos_b)
    cos_a += 1.0
    chord *= cos_a
    np.sqrt(chord, out=chord)
    chord *= d * a
    lens -= chord
    at_zero = d == 0.0
    if np.any(at_zero):
        small = np.minimum(a, b)
        np.copyto(lens, math.pi * small * small, where=at_zero)
    return lens


def _gauss_legendre() -> tuple:
    """The 10-point Gauss-Legendre nodes and weights mapped to [0, 1].

    The literals are numpy's leggauss(10) mapped as 0.5 (t + 1) and 0.5 w,
    to the bit (a test checks it), so a table build imports no
    numpy.polynomial and runs no eigen-solve.
    """
    nodes = np.array([0.013046735741414128, 0.06746831665550773, 0.16029521585048778,
                      0.2833023029353764, 0.4255628305091844, 0.5744371694908156,
                      0.7166976970646236, 0.8397047841495122, 0.9325316833444923,
                      0.9869532642585859])
    weights = np.array([0.03333567215434407, 0.0747256745752902, 0.109543181257991,
                        0.13463335965499826, 0.1477621123573764, 0.1477621123573764,
                        0.13463335965499826, 0.109543181257991, 0.0747256745752902,
                        0.03333567215434407])
    return nodes, weights


def _panel_steps(n: int):
    """Nodes and weights of n 10-point Gauss-Legendre panels on [0, 1], mapped by the smoothstep.

    An interval [lo, lo + width] gets the nodes lo + width s and the weights
    width w: s = 3t^2 - 2t^3 of the Gauss-Legendre nodes t, whose zero slope
    at both ends removes the kinks the integrand has at the breaks, and w =
    s'(t) times the Gauss-Legendre weights.
    """
    nodes, weights = _gauss_legendre()
    t = ((np.arange(n)[:, None] + nodes) / n).ravel()
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t) * np.tile(weights / n, n)


def _normal_pdf(z):
    """exp(-z^2 / 2) / sqrt(2 pi) elementwise, in one new array of the shape of z."""
    out = np.multiply(z, -0.5)
    out *= z
    np.exp(out, out=out)
    out *= 1.0 / math.sqrt(2.0 * math.pi)
    return out


def _column_sums(w: np.ndarray) -> np.ndarray:
    """Sum of each column of the 2-D array w, added top to bottom.

    numpy reduces a C-ordered array of two or more columns along axis 0 one
    row after another, but a single column is contiguous and gets a pairwise
    sum; it is folded row by row here, so a column's sum is the same in
    whatever chunk it lands.
    """
    if w.shape[1] > 1:
        return w.sum(axis=0)
    out = w[0].copy()
    for row in w[1:]:
        out += row
    return out


# The lens rule's domain in each standard-normal draw and its fixed breaks
# (the module docstring says what lies beyond +-9)
_Z_BREAKS = np.array([-9.0, -4.0, -2.0, 0.0, 2.0, 4.0, 9.0])
# Values per temporary array in _lens_rule (128 KB of float64, below the 2 MB
# mmap threshold that rangefuse/__init__.py sets): the band intervals of a
# block of z_a rows go through _lens in chunks of at most that many points
_CHUNK_POINTS = 1 << 14
# z_a rows per block of _lens_rule, so that the per-row arrays of a level
# stay small whatever the number of distances
_BLOCK_ROWS = 1024


def _band(params: ChannelParams, rho_a: np.ndarray, d: np.ndarray):
    """Ends z_lo, z_hi of the band of z_b where the disks of radii rho_a and rho_b cross.

    The band is |d - rho_a| < rho_b < rho_a + d, with rho_b = r e^(k z_b),
    unclipped: z_lo is -inf where rho_a = d, and the band is empty at d = 0.
    """
    r, k = pseudo_range(params), params.sigma_r * LN10
    with np.errstate(divide="ignore"):
        return np.log(np.abs(d - rho_a) / r) / k, np.log((rho_a + d) / r) / k


def _lens_tails(rho_a: np.ndarray, z_hi: np.ndarray) -> np.ndarray:
    """E[lens(rho_a, rho_b, d)] over the z_b above the band (_band), in closed form, per row.

    Above the band b holds a and the lens is pi rho_a^2, which weighs
    pi rho_a^2 Q(z_hi). This is the one tail of the half-plane z_b >= z_a
    that _lens_rule integrates: below the band rho_b <= |d - rho_a|, which
    there means the disks are apart (0) or b is nested in a, and nested
    radii rho_b < rho_a lie in the other half. The tail runs to infinity,
    and at d = 0 it is the whole integral.
    """
    return math.pi * rho_a * rho_a * _normal_tail(z_hi)


def _lens_rule(params: ChannelParams, d: np.ndarray, n: int) -> np.ndarray:
    """E[lens(rho_a, rho_b, d)] at each distance of the 1-D array d, by n smoothstep panels.

    rho = r e^(k z), k = sigma_r ln 10, for each of the two standard-normal
    draws z_a and z_b. The lens area is symmetric in its two radii, so the
    rule integrates the half-plane z_b >= z_a and doubles the sum. z_a runs
    over the domain of _Z_BREAKS, with n panels per interval; its intervals
    also break at rho_a = d/2, where the band's lower end crosses z_a, and
    at rho_a = d, breaks outside the domain sit at its ends, and the rows of
    zero-width intervals weigh 0 and are skipped. For each z_a row,
    _lens_tails gives the z_b above the band where the disks cross in
    closed form, and the band, from max(z_lo, z_a) up, clipped to the
    domain and split at the _Z_BREAKS inside it, takes n panels per
    interval of nonzero width. The rows go in blocks of at most _BLOCK_ROWS,
    and each block's band intervals through _lens in chunks of at most
    _CHUNK_POINTS points, laid out (nodes, intervals), whose passes run in
    place in a few arrays of the chunk's size. Each interval is summed on
    its own, each row's intervals in order and each distance's rows on their
    own, so a distance's value does not depend on which other distances
    share the call.
    """
    r, k = pseudo_range(params), params.sigma_r * LN10
    steps, weights = _panel_steps(n)
    with np.errstate(divide="ignore"):
        z = np.clip(np.log(np.stack([d / 2.0, d], axis=1) / r) / k, _Z_BREAKS[0], _Z_BREAKS[-1])
    edges = np.sort(np.concatenate([np.broadcast_to(_Z_BREAKS, (d.size, _Z_BREAKS.size)), z],
                                   axis=1), axis=1)
    lo, width = edges[:, :-1, None], np.diff(edges)[:, :, None]
    shape = (d.size, (edges.shape[1] - 1) * steps.size)
    z_a = (lo + width * steps).reshape(shape)
    w_a = (width * weights).reshape(shape) * _normal_pdf(z_a)
    rows = np.flatnonzero(w_a)
    d_rows = np.repeat(d, z_a.shape[1])[rows]
    z_rows = z_a.ravel()[rows]
    rho_rows = r * np.exp(k * z_rows)
    inner = np.zeros(w_a.size)
    chunk = max(1, _CHUNK_POINTS // steps.size)
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rho, d_row = rho_rows[block], d_rows[block]
        z_lo, z_hi = _band(params, rho, d_row)
        band_lo = np.maximum(np.maximum(z_lo, z_rows[block])[:, None], _Z_BREAKS[:-1])
        band_width = np.minimum(z_hi[:, None], _Z_BREAKS[1:]) - band_lo
        # each row's intervals of nonzero width, in order
        cells = np.flatnonzero(band_width > 0.0)
        owner = cells // (_Z_BREAKS.size - 1)
        band_lo, band_width = band_lo.ravel()[cells], band_width.ravel()[cells]
        sums = np.empty(cells.size)
        for first in range(0, cells.size, chunk):
            cols = slice(first, first + chunk)
            z_b = np.multiply(band_width[cols], steps[:, None])
            z_b += band_lo[cols]
            w_b = np.multiply(band_width[cols], weights[:, None])
            w_b *= _normal_pdf(z_b)
            # the node array becomes rho_b = r e^(k z_b)
            z_b *= k
            rho_b = np.exp(z_b, out=z_b)
            rho_b *= r
            w_b *= _lens(rho[owner[cols]], rho_b, d_row[owner[cols]])
            sums[cols] = _column_sums(w_b)
        inner[rows[block]] = _lens_tails(rho, z_hi) + np.bincount(owner, sums, rho.size)
    return 2.0 * (w_a * inner.reshape(w_a.shape)).sum(axis=1)


# Rounding floor for quad_tol. One level sums 2e2 to 2e7 float64 terms per
# distance, in sums of at most 640 terms added one after another, so its
# rounding error reaches about 1e-13 relative; below that, two levels agree
# or disagree by rounding alone and the check means nothing.
QUAD_TOL_FLOOR = 1e-12
# Last refinement level: 64 panels per interval, the seventh level from 1
_MAX_PANELS = 64


def generic_f(params: ChannelParams, d, quad_tol: float = 1e-6):
    """Expected common-neighbor mass per unit intensity at separation d; takes arrays.

    f(d) = E[lens(rho_a, rho_b, d)], the expected overlap area of the link
    disks of the two nodes, whose radii rho = r e^(k z), k = sigma_r ln 10,
    are independent log-normal draws (module docstring). _lens_rule
    integrates the closed-form lens area against the two standard-normal
    densities on the half-plane z_b >= z_a and doubles the sum, the lens
    being symmetric in the two radii: in z_b, the tail above the band where
    the disks cross in closed form and the band on [-9, 9] by panels; in
    z_a, panels on [-9, 9]. It starts at 1 panel per interval and doubles
    until two successive levels agree within quad_tol relative. All the
    distances of d run each level together, and each keeps its own check,
    so a distance gets the same value, to the bit, alone as in any array.
    Every z_a link radius is at most r e^(9k), so beyond twice that only
    the tail rho_b > rho_a + d is left, which, doubled, weighs less than
    2 Q(9) S; f is 0 there, without the rule. A scalar d gives a float. Raises
    ValueError unless every d is nonnegative and finite and 0 < quad_tol <
    inf; NumericError, naming the lowest distance and its last relative
    change, when the check is not met by 64 panels per interval, and for
    any quad_tol below the rounding floor QUAD_TOL_FLOOR = 1e-12, where
    rounding would decide the check. Reduces to unit_disk_f when sigma_db =
    0.
    """
    d = np.asarray(d, dtype=float)
    _require(d, (d >= 0.0) & (d < math.inf), "d must be nonnegative and finite")
    if not (quad_tol > 0.0 and math.isfinite(quad_tol)):
        raise ValueError(f"quad_tol must be positive and finite, got {quad_tol!r}")
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        return _like_input(np.where(d <= 2.0 * r, unit_disk_f(r, np.minimum(d, 2.0 * r)), 0.0))
    if quad_tol < QUAD_TOL_FLOOR:
        raise NumericError(
            f"quad_tol={quad_tol:g} is below the rounding floor {QUAD_TOL_FLOOR:g} "
            "of the common-neighborhood rule"
        )
    floor = 1e-15 * math.pi * r ** 2
    flat = d.ravel()
    out = np.zeros(flat.shape)
    reach = 2.0 * r * math.exp(params.sigma_r * LN10 * _Z_BREAKS[-1])
    pending = np.flatnonzero(flat <= reach)
    n = 1
    current = _lens_rule(params, flat[pending], n)
    while pending.size:
        if n == _MAX_PANELS:
            raise NumericError(
                "panel refinement for the common-neighborhood integral did not "
                f"converge to quad_tol={quad_tol:g} at d={float(flat[pending[0]])!r} "
                f"(last relative change {gap[0]:g} at {n} panels per interval)"
            )
        n *= 2
        previous, current = current, _lens_rule(params, flat[pending], n)
        change, scale = np.abs(current - previous), np.maximum(np.abs(current), floor)
        done = change <= quad_tol * scale
        out[pending[done]] = current[done]
        pending, current, gap = pending[~done], current[~done], change[~done] / scale[~done]
    return _like_input(out.reshape(d.shape))


@lru_cache(maxsize=128)
def threshold_distance(params: ChannelParams) -> float:
    """Smallest distance at which the link probability drops to 1e-3.

    Located by bisection between the pseudo range and 100x the pseudo
    range; distances beyond it carry no usable connectivity information.
    Each step compares link_probability, Q(x) near x = 3.09 there and within
    1e-15 relative of it (channel module docstring), with 1e-3.
    """
    r = pseudo_range(params)
    lo, hi = r, 100.0 * r
    if float(link_probability(params, hi)) > CUTOFF_LINK_PROBABILITY:
        raise ModelConstructionError(
            "link probability stays above the cutoff out to 100x the pseudo "
            f"range (params={params}); no usable distance cutoff"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(link_probability(params, mid)) <= CUTOFF_LINK_PROBABILITY:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return hi


def build_fd_model(params: ChannelParams, n_knots: int = 64,
                   quad_tol: float = 1e-6) -> FdModel:
    """Tabulate f(d) at n_knots uniform points on [0, d_th] and fit chords.

    The cutoff d_th comes from threshold_distance. The knot values are one
    generic_f call with the knot array, in the calling thread, so the
    caller's np.errstate applies and a knot that does not converge raises
    generic_f's NumericError, which names the lowest such knot. Raises
    ValueError unless n_knots is an integer >= 8; quadrature noise that
    breaks the strict monotonicity of the knot values raises
    ModelConstructionError (FdModel).
    """
    if not isinstance(n_knots, numbers.Integral) or n_knots < 8:
        raise ValueError(f"n_knots must be an integer >= 8, got {n_knots!r}")
    d_th = threshold_distance(params)
    knots_d = np.linspace(0.0, d_th, int(n_knots))
    knots_f = generic_f(params, knots_d, quad_tol)
    return FdModel(
        s_mass=generic_s(params),
        d_th=float(d_th),
        knots_d=knots_d,
        knots_f=knots_f,
        params=params,
    )
