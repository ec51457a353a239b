"""Neighborhood-overlap model and the connectivity-based range estimator.

Two nodes at separation d share common neighbors at a rate governed by
f(d), the expected number of common neighbors per unit node intensity,
while each node's total expected neighborhood per unit intensity is the
mass S. Under an ideal disk channel f(d) is the lens-overlap area of two
disks; under the log-normal shadowing channel both quantities are
integrals of the link probability over the plane. S has a closed form
(generic_s). The estimator observes the counts (M, P, Q) of common and
exclusive neighbors, forms the overlap ratio 2M/(2M+P+Q), and inverts a
tabulated piecewise-linear model of f.

Each knot of that table is one generic_f call, the module's one
quadrature: a fixed Gauss-Legendre panel rule in polar coordinates around
the pair midpoint, evaluated for all radial nodes at once as arrays and
refined by doubling until two levels agree within quad_tol (no tighter
than the rounding floor QUAD_TOL_FLOOR). The doubling starts at 2 angle
panels. With an edge at each transition crossing, 2 angle panels are
converged on the test channels (p44, field, sharp), but not on all: at
(-37.47 dBm, alpha 1.6, sigma_db 7.5, -49 dBm), sigma_r 0.469, they are
1.0e-6 off 64 panels at d_th, and quad_tol is met only as the angle count
keeps doubling with the radial one.

build_fd_model runs the knots on one thread per CPU the process may use
(numpy's and scipy's ufunc loops release the GIL), each knot's arithmetic
unchanged, so a table is bit for bit the one a serial loop gives. Knot
values are read in knot order: a failing build raises the lowest failing
knot's error, cancels the knots not yet started and leaves no thread
behind.

Only tabulation needs scipy, for the link law (channel._link_law, scipy's
erfc ufunc) that the panel rule integrates and threshold_distance bisects;
it imports scipy.special where it runs, so loading a saved table,
inverting counts and the bound leave scipy unloaded. build_fd_model
imports its thread pool the same way.
"""

from __future__ import annotations

import math
import numbers
import os
from contextvars import copy_context
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channel import LN10, ChannelParams, _link_law, link_probability, pseudo_range
from .config import (CHANNEL_KEYS, channel_from_mapping, channel_to_mapping, read_input,
                     write_atomic)
from .errors import ConfigurationError, ModelConstructionError, NumericError

CUTOFF_LINK_PROBABILITY = 1e-3

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# mapped to [0, 1]
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True, eq=False)
class FdModel:
    """Piecewise-linear table of f(d) on [0, d_th] plus the mass S.

    Knots are strictly decreasing in f; segment i is the chord through
    knots i and i+1 with slope slopes[i], so evaluation is continuous and
    reproduces the knot values exactly.
    """

    s_mass: float
    d_th: float
    knots_d: np.ndarray
    knots_f: np.ndarray
    params: ChannelParams
    slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        knots_d = np.asarray(self.knots_d, dtype=float)
        knots_f = np.asarray(self.knots_f, dtype=float)
        if knots_d.ndim != 1 or knots_d.shape != knots_f.shape or knots_d.size < 2:
            raise ValueError("knots_d and knots_f must be equal-length 1-D arrays")
        if not np.isfinite(np.concatenate([[self.s_mass, self.d_th], knots_d, knots_f])).all():
            raise ValueError("s_mass, d_th and every knot must be finite")
        if knots_d[0] != 0.0:
            raise ValueError(f"knots must start at distance 0, got {knots_d[0]!r}")
        if knots_d[-1] != self.d_th:
            raise ValueError("last knot must sit at d_th")
        if np.any(np.diff(knots_d) <= 0):
            raise ValueError("knot distances must increase strictly")
        if np.any(np.diff(knots_f) >= 0):
            raise ModelConstructionError("knot values must decrease strictly")
        if knots_f[-1] <= 0:
            raise ModelConstructionError("f(d_th) must stay positive")
        if knots_f[0] > self.s_mass * (1.0 + 1e-9):
            raise ModelConstructionError("f(0) cannot exceed the mass S")
        slopes = np.diff(knots_f) / np.diff(knots_d)
        for name, value in (("knots_d", knots_d), ("knots_f", knots_f), ("slopes", slopes)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_knots(self) -> int:
        return self.knots_d.size


def unit_disk_f(r, d):
    """Lens-overlap area of two radius-r disks whose centers are d apart."""
    r = float(r)
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r!r}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0) or np.any(d > 2.0 * r) or not np.all(np.isfinite(d)):
        raise ValueError(f"d must lie in [0, 2r], got {d!r}")
    s = math.pi * r * r
    out = (2.0 * s / math.pi) * np.arccos(d / (2.0 * r)) - d * np.sqrt(
        np.maximum(r * r - d * d / 4.0, 0.0)
    )
    return out if out.ndim else float(out)


def _transition_radii(params: ChannelParams):
    """Radii where the link probability is 1 - Q(6), 1/2 and Q(6) = 9.9e-10."""
    r = pseudo_range(params)
    halfwidth = 6.0 * params.sigma_db / (10.0 * params.alpha)
    return (r * 10.0 ** -halfwidth, r, r * 10.0 ** halfwidth)


def generic_s(params: ChannelParams) -> float:
    """Expected neighborhood mass per unit intensity under the channel model.

    The link probability at distance u is Q(log10(u / r) / sigma_r), with r
    the pseudo range, so the integral of it over the plane is exactly
    pi r^2 exp(2 (sigma_r ln 10)^2); that is the disk area pi r^2 when
    sigma_db = 0.
    """
    r = pseudo_range(params)
    return math.pi * r * r * math.exp(2.0 * (params.sigma_r * LN10) ** 2)


def _angular_overlap(g, d, rho, n_half, r_edges):
    """Integral over [0, pi] of g(dist to A) * g(dist to B) at each radius of array rho.

    A and B sit at (-d/2, 0) and (d/2, 0); the field point at angle theta
    lies at distance sqrt(rho^2 + d^2/4 +- rho d cos(theta)) from them. The
    integrand is symmetric about pi/2, so the rule covers [0, pi/2] and
    doubles. Each row has n_half uniform panels plus one edge per link
    transition radius r_t, at arccos|c| with c = (r_t^2 - rho^2 - d^2/4) /
    (rho d), where the distance to A or B crosses r_t; that keeps the rule
    accurate when the link probability is nearly a step. Edges that do not
    exist (|c| >= 1) sit at 0, so every row has the same panel count and a
    zero-width panel adds nothing. Each panel gets 10-point Gauss-Legendre.
    """
    base = rho * rho + d * d / 4.0
    uniform = np.broadcast_to(np.linspace(0.0, 0.5 * math.pi, n_half + 1),
                              (rho.size, n_half + 1))
    if d > 0.0:
        c = (np.square(r_edges)[None, :] - base[:, None]) / (rho * d)[:, None]
        crossing = np.arccos(np.minimum(np.abs(c), 1.0))
    else:
        crossing = np.zeros((rho.size, len(r_edges)))
    edges = np.sort(np.concatenate([uniform, crossing], axis=1), axis=1)
    widths = np.diff(edges, axis=1)[:, :, None]
    cross = (rho * d)[:, None, None] * np.cos(edges[:, :-1, None] + widths * _GL_NODES)
    ra = np.sqrt(base[:, None, None] + cross)
    rb = np.sqrt(np.maximum(base[:, None, None] - cross, 0.0))
    return 2.0 * np.sum(g(ra) * g(rb) * widths * _GL_WEIGHTS, axis=(1, 2))


def _radial_breaks(r_edges, d: float, r_outer: float) -> np.ndarray:
    """Radii in (0, r_outer) where the angular integral has a kink.

    These are where a link transition circle r_edges around A or B touches
    the pair axis, |r_t - d/2| and r_t + d/2, and where A's transition
    circle r_i crosses B's r_j, at radius sqrt((r_i^2 + r_j^2)/2 - d^2/4)
    from the midpoint: there two angle edges meet.
    """
    breaks = set()
    for r_t in r_edges:
        breaks.update((abs(r_t - d / 2.0), r_t + d / 2.0))
    for i, r_i in enumerate(r_edges):
        for r_j in r_edges[i:]:
            if r_j - r_i <= d <= r_i + r_j:
                breaks.add(math.sqrt(0.5 * (r_i * r_i + r_j * r_j) - d * d / 4.0))
    return np.array(sorted(x for x in breaks if 0.0 < x < r_outer))


def _radial_rule(breaks: np.ndarray, n_radial: int):
    """Nodes and weights on [0, r_outer] split at breaks, n_radial GL panels each.

    Each interval [a, b] is mapped by the smoothstep rho = a + (b - a)(3t^2 -
    2t^3), whose zero slope at both ends removes the square-root kinks the
    angular integral has at the breaks.
    """
    t = ((np.arange(n_radial)[:, None] + _GL_NODES) / n_radial).ravel()
    w_t = np.tile(_GL_WEIGHTS / n_radial, n_radial)
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    rho = lo + width * (t * t * (3.0 - 2.0 * t))
    weights = width * (6.0 * t * (1.0 - t) * w_t)
    return rho.ravel(), weights.ravel()


# Values per temporary array in _panel_rule_f (64 KB of float64): the radial
# nodes go through _angular_overlap in chunks of that many angle points,
# about 40 nodes at 16 angle panels.
_CHUNK_POINTS = 1 << 13


def _panel_rule_f(params, d):
    """The panel rule for f(d), as a function of its panel counts (n_half, n_radial).

    g, the transition radii and the radial breaks depend on the channel and
    d alone, so they are built once here and shared by every refinement
    level; the returned function sums f(d) over n_half angle panels and
    n_radial radial panels per interval. The domain ends d/2 past the outer
    transition radius, beyond which the integrand is below Q(6)^2 < 1e-18.
    """
    g = _link_law(params)
    r_edges = np.array(_transition_radii(params))
    r_outer = d / 2.0 + r_edges[-1]
    breaks = np.concatenate([[0.0], _radial_breaks(r_edges, d, r_outer), [r_outer]])

    def level(n_half, n_radial):
        rho, weights = _radial_rule(breaks, n_radial)
        step = max(1, _CHUNK_POINTS // (10 * (n_half + len(r_edges))))
        total = 0.0
        for lo in range(0, rho.size, step):
            chunk = rho[lo:lo + step]
            inner = _angular_overlap(g, d, chunk, n_half, r_edges)
            total += float(np.dot(weights[lo:lo + step], 2.0 * chunk * inner))
        return total
    return level


# Rounding floor for quad_tol. One level sums 1e4 to 1e6 float64 terms, so
# its rounding error reaches about 1e-13 relative; below that, two levels
# agree or disagree by rounding alone and the check means nothing.
QUAD_TOL_FLOOR = 1e-12
# Last refinement level: 128 angle panels on [0, pi/2] and 64 radial panels
# per interval, the seventh level from (2, 1). At every knot of the 64-knot
# p44, field and sharp tables, 2 angle panels come within 4.1e-10 relative
# of 64 (8 panels within 5.3e-11) at any radial count, so there only the
# radial count needs to reach 64 (not on every channel: module docstring).
_MAX_HALF_PANELS = 128


def generic_f(params: ChannelParams, d, quad_tol: float = 1e-6) -> float:
    """Expected common-neighbor mass per unit intensity at separation d.

    2-D integral of the product of the two link probabilities, in polar
    coordinates around the pair midpoint, by a fixed panel rule evaluated
    as arrays: 10-point Gauss-Legendre panels in angle (_angular_overlap)
    and in radius between the kink radii of _radial_breaks, which include
    the crossings of A's and B's transition circles (_radial_rule). The
    rule starts at 2 angle panels on [0, pi/2] and 1 radial panel per
    interval and doubles both until two successive levels agree within
    quad_tol relative. On the test channels the angle edges at the
    transition crossings make 2 angle panels as good as 64 to 4.1e-10
    relative (see _MAX_HALF_PANELS), so the radial count sets each knot's
    level; not on every channel (module docstring). Raises ValueError unless
    0 < quad_tol < inf; NumericError when the self-consistency check is
    not met by 128 angle and 64 radial panels, and for any quad_tol below
    the rounding floor QUAD_TOL_FLOOR = 1e-12, where rounding would decide
    the check. Reduces to unit_disk_f when sigma_db = 0.
    """
    d = float(d)
    if d < 0.0 or not math.isfinite(d):
        raise ValueError(f"d must be nonnegative and finite, got {d!r}")
    if not (quad_tol > 0.0 and math.isfinite(quad_tol)):
        raise ValueError(f"quad_tol must be positive and finite, got {quad_tol!r}")
    if params.sigma_db == 0.0:
        r = pseudo_range(params)
        return unit_disk_f(r, d) if d <= 2.0 * r else 0.0
    if quad_tol < QUAD_TOL_FLOOR:
        raise NumericError(
            f"quad_tol={quad_tol:g} is below the rounding floor {QUAD_TOL_FLOOR:g} "
            "of the common-neighborhood rule"
        )
    floor = 1e-15 * math.pi * pseudo_range(params) ** 2
    rule = _panel_rule_f(params, d)
    n_half, n_radial = 2, 1
    current = rule(n_half, n_radial)
    while n_half < _MAX_HALF_PANELS:
        n_half, n_radial = 2 * n_half, 2 * n_radial
        previous, current = current, rule(n_half, n_radial)
        if abs(current - previous) <= quad_tol * max(abs(current), floor):
            return current
    raise NumericError(
        "panel refinement for the common-neighborhood integral did not "
        f"converge to quad_tol={quad_tol:g} at d={d!r} "
        f"(last change {abs(current - previous):g} at {n_half} angle panels)"
    )


@lru_cache(maxsize=128)
def threshold_distance(params: ChannelParams) -> float:
    """Smallest distance at which the link probability drops to 1e-3.

    Located by bisection between the pseudo range and 100x the pseudo
    range; distances beyond it carry no usable connectivity information.
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_fd_model(params: ChannelParams, n_knots: int = 64,
                   quad_tol: float = 1e-6) -> FdModel:
    """Tabulate f(d) at n_knots uniform points on [0, d_th] and fit chords.

    The cutoff d_th comes from threshold_distance. The knots are generic_f
    calls on min(usable CPUs, n_knots) threads, each in a copy of the
    caller's contextvars context (so np.errstate applies), read in knot
    order: values and errors are those of a serial loop, the lowest
    failing knot's error included. On any exception, KeyboardInterrupt
    included, the knots not yet started are cancelled and the threads
    joined before it propagates. Raises ValueError unless n_knots is an
    integer >= 8; quadrature noise that breaks the strict monotonicity of
    the knot values raises ModelConstructionError.
    """
    if not isinstance(n_knots, numbers.Integral) or n_knots < 8:
        raise ValueError(f"n_knots must be an integer >= 8, got {n_knots!r}")
    from concurrent.futures import ThreadPoolExecutor  # here, so importing rangefuse stays lean

    d_th = threshold_distance(params)
    knots_d = np.linspace(0.0, d_th, int(n_knots))
    pool = ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(knots_d)))
    try:
        futures = [pool.submit(copy_context().run, generic_f, params, d, quad_tol)
                   for d in knots_d]
        knots_f = np.array([future.result() for future in futures])
    finally:
        pool.shutdown(cancel_futures=True)
    if np.any(np.diff(knots_f) >= 0):
        raise ModelConstructionError(
            "tabulated f(d) is not strictly decreasing; quadrature noise "
            "exceeds the knot spacing (try fewer knots or tighter quad_tol)"
        )
    return FdModel(
        s_mass=generic_s(params),
        d_th=float(d_th),
        knots_d=knots_d,
        knots_f=knots_f,
        params=params,
    )


def _in_table(model: FdModel, d) -> np.ndarray:
    """d as an array, checked to lie in [0, d_th]."""
    d = np.asarray(d, dtype=float)
    if not np.all((d >= 0.0) & (d <= model.d_th)):
        raise ValueError(f"d must lie in [0, d_th], got {d!r}")
    return d


def _segments(model: FdModel, d) -> np.ndarray:
    """Index of the segment containing each d (the left one at knots)."""
    hit = np.searchsorted(model.knots_d, _in_table(model, d), side="left")
    return np.clip(hit - 1, 0, model.slopes.size - 1)


def fd_slope(model: FdModel, d):
    """Slope of the segment containing d (left segment at knots); takes arrays."""
    out = model.slopes[_segments(model, d)]
    return out if out.ndim else float(out)


def eval_fd(model: FdModel, d):
    """Piecewise-linear value of f at d in [0, d_th]; exact at knots; takes arrays."""
    out = np.interp(_in_table(model, d), model.knots_d, model.knots_f)
    return out if out.ndim else float(out)


def invert_fd(model: FdModel, value):
    """Distance whose tabulated f equals value, clamped to [0, d_th]; takes arrays.

    Values at or above f(0) map to 0; values at or below f(d_th) map to
    d_th; anything between is inverted on the containing chord, exactly at
    knots.
    """
    value = np.asarray(value, dtype=float)
    if np.any(np.isnan(value)):
        raise ValueError("value must not be NaN")
    out = np.interp(value, model.knots_f[::-1], model.knots_d[::-1])
    return out if out.ndim else float(out)


def invert_counts(model: FdModel, m, p, q):
    """Distance estimates from arrays of neighbor counts via the overlap ratio.

    All-zero counts give 0; otherwise the ratio 2M/(2M+P+Q) scales the
    mass S and invert_fd maps it back to a distance in [0, d_th].
    """
    m = np.asarray(m, dtype=float)
    total = 2.0 * m + p + q
    rho = np.divide(2.0 * m, total, out=np.zeros_like(total), where=total > 0)
    out = np.where(total > 0, invert_fd(model, rho * model.s_mass), 0.0)
    return out if out.ndim else float(out)


def _require(values, ok, what: str) -> None:
    """Raise ValueError naming the first of values where the mask ok is False."""
    if not np.all(ok):
        bad = np.asarray(values)[np.logical_not(ok)].flat[0]
        raise ValueError(f"{what}, got {float(bad)!r}")


def _model_point(model: FdModel, intensity, d):
    """Checked (intensity, d, f(d), f'(d)) at points of the model; takes arrays.

    The one argument check of every function of a model point: 0 <
    intensity < inf, d in (0, d_th] and 0 < f(d) < S. intensity and d come
    back as arrays broadcast to one shape, f and its slope (left segment at
    knots) as eval_fd and fd_slope give them.
    """
    intensity, d = np.broadcast_arrays(np.asarray(intensity, dtype=float),
                                       np.asarray(d, dtype=float))
    _require(intensity, (intensity > 0.0) & (intensity < math.inf),
             "intensity must be positive and finite")
    _require(d, (d > 0.0) & (d <= model.d_th), f"d must lie in (0, d_th={model.d_th!r}]")
    f_val = eval_fd(model, d)
    _require(f_val, (f_val > 0.0) & (f_val < model.s_mass),
             f"f(d) must lie in (0, S={model.s_mass!r}); degenerate model")
    return intensity, d, f_val, fd_slope(model, d)


def conn_error_sigma(model: FdModel, intensity, d_plugin):
    """Standard deviation of the connectivity estimate's error near d_plugin.

    With M ~ Poi(lambda f) and P, Q ~ Poi(lambda (S - f)), the delta method
    gives the overlap ratio rho = 2M/(2M+P+Q) the variance

        Var(rho) = f (S - f) (2S - f) / (2 lambda S^4),

    and inverting rho S = f(d) on the affine segment containing d_plugin
    (left segment at knots) scales it to sigma_c = S sqrt(Var(rho)) / |f'|.
    sigma_c^2 equals the connectivity-only Cramer-Rao bound, the inverse
    of the Schur complement of the count information over (d, intensity),
    so the overlap-ratio estimator is asymptotically efficient. The
    arguments broadcast and are checked by _model_point, the check the
    bound shares: 0 < intensity < inf, d_plugin in (0, d_th], 0 < f < S.
    Raises ValueError also where an extreme intensity puts sigma_c or
    1/sigma_c^2 outside the positive floats.
    """
    intensity, _, f_val, slope = _model_point(model, intensity, d_plugin)
    s = model.s_mass
    with np.errstate(all="ignore"):
        var_rho = f_val * (s - f_val) * (2.0 * s - f_val) / (2.0 * intensity * s**4)
        out = s * np.sqrt(var_rho) / np.abs(slope)
        info = 1.0 / np.square(out)
    _require(intensity, (out > 0.0) & (out < math.inf) & (info > 0.0) & (info < math.inf),
             "intensity puts the connectivity error scale sigma_c outside the positive floats")
    return out if out.ndim else float(out)


_FD_HEADER = "fdmodel v1"
_FD_FIELDS = (*CHANNEL_KEYS, "s_mass", "d_th", "n_knots")


def save_fd_model(model: FdModel, path) -> None:
    """Write the model to a versioned flat text file (full float precision), atomically."""
    params = channel_to_mapping(model.params)
    lines = [_FD_HEADER, *(f"{key} = {value}" for key, value in params.items())]
    lines += [f"s_mass = {model.s_mass!r}", f"d_th = {model.d_th!r}",
              f"n_knots = {model.n_knots}", "knots:"]
    lines += [f"{float(d)!r}, {float(f_val)!r}" for d, f_val in zip(model.knots_d, model.knots_f)]
    write_atomic(path, "\n".join(lines) + "\n")


def load_fd_model(path) -> FdModel:
    """Read a model written by save_fd_model; raises ConfigurationError on damage."""
    path = Path(path)
    lines = read_input(path, "f(d) model").splitlines()
    if not lines or lines[0].strip() != _FD_HEADER:
        raise ConfigurationError(f"{path}: not a '{_FD_HEADER}' file")
    fields = {}
    knots = []
    in_knots = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "knots:":
            in_knots = True
            continue
        try:
            if in_knots:
                d_text, f_text = line.split(",")
                knots.append((float(d_text), float(f_text)))
            else:
                key, value = (text.strip() for text in line.split("="))
                if key not in _FD_FIELDS or key in fields:
                    problem = "repeated" if key in fields else "unknown"
                    raise ConfigurationError(f"{path}:{lineno}: {problem} header field {key!r}")
                fields[key] = (int if key == "n_knots" else float)(value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: malformed line {line!r}") from exc
    missing = [k for k in _FD_FIELDS if k not in fields]
    if missing:
        raise ConfigurationError(f"{path}: missing header fields {missing}")
    if len(knots) != fields["n_knots"]:
        raise ConfigurationError(f"{path}: expected {fields['n_knots']} knots, found {len(knots)}")
    params = channel_from_mapping({key: fields[key] for key in CHANNEL_KEYS})
    knots_arr = np.asarray(knots, dtype=float).reshape(-1, 2)
    try:
        return FdModel(
            s_mass=fields["s_mass"],
            d_th=fields["d_th"],
            knots_d=knots_arr[:, 0],
            knots_f=knots_arr[:, 1],
            params=params,
        )
    except (ValueError, ModelConstructionError) as exc:
        raise ConfigurationError(f"{path}: inconsistent model data: {exc}") from exc
