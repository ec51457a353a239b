"""Neighborhood-overlap model and the connectivity-based range estimator.

Two nodes at separation d share common neighbors at a rate governed by
f(d), the expected number of common neighbors per unit node intensity,
while each node's total expected neighborhood per unit intensity is the
mass S. Under an ideal disk channel f(d) is the lens-overlap area of two
disks; under a probabilistic channel both quantities become integrals of
the link probability over the plane. The estimator observes the counts
(M, P, Q) of common and exclusive neighbors, forms the overlap ratio
2M/(2M+P+Q), and inverts a tabulated piecewise-linear model of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate, special

from .channel import LN10, ChannelParams, link_probability, pseudo_range
from .errors import ConfigurationError, ModelConstructionError, NumericError

# Link probabilities below this are treated as zero when truncating
# integration domains and when locating the distance cutoff.
LINK_FLOOR = 1e-9
CUTOFF_LINK_PROBABILITY = 1e-3

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# mapped to [0, 1]
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class NeighborCounts:
    """Counts of common (m) and exclusive (p, q) immediate neighbors."""

    m: int
    p: int
    q: int

    def __post_init__(self):
        for name in ("m", "p", "q"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class FdModel:
    """Piecewise-linear table of f(d) on [0, d_th] plus the mass S.

    Knots are strictly decreasing in f; each segment i carries the affine
    coefficients of the chord through knots i and i+1, so evaluation is
    continuous and reproduces the knot values exactly.
    """

    s_mass: float
    d_th: float
    knots_d: np.ndarray
    knots_f: np.ndarray
    params: ChannelParams
    slopes: np.ndarray = field(init=False, repr=False)
    intercepts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        knots_d = np.asarray(self.knots_d, dtype=float)
        knots_f = np.asarray(self.knots_f, dtype=float)
        if knots_d.ndim != 1 or knots_d.shape != knots_f.shape or knots_d.size < 2:
            raise ValueError("knots_d and knots_f must be equal-length 1-D arrays")
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
        intercepts = knots_f[:-1] - slopes * knots_d[:-1]
        for name, value in (
            ("knots_d", knots_d),
            ("knots_f", knots_f),
            ("slopes", slopes),
            ("intercepts", intercepts),
        ):
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


def _link_prob_fn(params: ChannelParams):
    """Vectorized g(distance), safe at distance 0."""
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        def g(u):
            return np.where(np.asarray(u, dtype=float) <= r, 1.0, 0.0)
    else:
        scale = 10.0 * params.alpha / params.sigma_db
        def g(u):
            u = np.maximum(np.asarray(u, dtype=float), 1e-300)
            return 0.5 * special.erfc(scale * np.log10(u / r) / math.sqrt(2.0))
    return g


def truncation_radius(params: ChannelParams) -> float:
    """Distance beyond which the link probability drops under LINK_FLOOR."""
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        return r
    z = -float(special.ndtri(LINK_FLOOR))
    return r * 10.0 ** (z * params.sigma_db / (10.0 * params.alpha))


def _transition_radii(params: ChannelParams):
    """Radii bracketing the band where the link probability falls 1 -> 0."""
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        return (r,)
    halfwidth = 6.0 * params.sigma_db / (10.0 * params.alpha)
    return (r * 10.0 ** -halfwidth, r, r * 10.0 ** halfwidth)


def generic_s(params: ChannelParams, quad_tol: float = 1e-6) -> float:
    """Expected neighborhood mass per unit intensity under the channel model.

    Radial integral of the link probability over the plane, truncated where
    the probability falls under LINK_FLOOR. Reduces to the disk area pi r**2
    when sigma_db = 0.
    """
    if not quad_tol > 0.0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol!r}")
    r = pseudo_range(params)
    if params.sigma_db == 0.0:
        return math.pi * r * r
    g = _link_prob_fn(params)
    r_max = truncation_radius(params)
    breaks = [x for x in _transition_radii(params) if 0.0 < x < r_max]
    try:
        value, abserr, info, *message = integrate.quad(
            lambda u: u * float(g(u)),
            0.0,
            r_max,
            points=breaks,
            epsabs=0.0,
            epsrel=0.5 * quad_tol,
            limit=200,
            full_output=True,
        )
    except ValueError as exc:
        raise NumericError(f"neighborhood-mass quadrature rejected: {exc}") from exc
    if message:
        raise NumericError(
            f"neighborhood-mass quadrature did not converge: {message[0]} "
            f"(params={params}, abserr={abserr:g})"
        )
    return 2.0 * math.pi * value


def _angular_overlap(g, d, rho, n_uniform, r_edges):
    """Integral over [0, pi] of g(dist to A) * g(dist to B) at radius rho.

    A and B sit at (-d/2, 0) and (d/2, 0); the field point at angle theta
    lies at distance sqrt(rho^2 + d^2/4 +- rho d cos(theta)) from them.
    Panels are uniform in angle plus edges at the angles where either
    distance crosses a link transition radius, which keeps the rule
    accurate when the link probability is nearly a step.
    """
    edges = [np.linspace(0.0, math.pi, n_uniform + 1)]
    if d > 0.0 and rho > 0.0:
        base = rho * rho + d * d / 4.0
        for r_t in r_edges:
            c = (r_t * r_t - base) / (rho * d)
            if -1.0 < c < 1.0:
                theta = math.acos(c)
                edges.append((theta, math.pi - theta))
    edges = np.unique(np.concatenate([np.atleast_1d(np.asarray(e)) for e in edges]))
    widths = np.diff(edges)
    theta = edges[:-1, None] + widths[:, None] * _GL_NODES[None, :]
    weights = widths[:, None] * _GL_WEIGHTS[None, :]
    base = rho * rho + d * d / 4.0
    cross = rho * d * np.cos(theta)
    ra = np.sqrt(np.maximum(base + cross, 0.0))
    rb = np.sqrt(np.maximum(base - cross, 0.0))
    return float(np.sum(g(ra) * g(rb) * weights))


def _generic_f_once(params, d, n_uniform, quad_tol):
    g = _link_prob_fn(params)
    r_edges = _transition_radii(params)
    r_outer = d / 2.0 + truncation_radius(params)
    breaks = set()
    for r_t in list(r_edges) + [truncation_radius(params)]:
        for candidate in (abs(r_t - d / 2.0), r_t + d / 2.0):
            if 0.0 < candidate < r_outer:
                breaks.add(candidate)

    def radial(rho):
        return 2.0 * rho * _angular_overlap(g, d, rho, n_uniform, r_edges)

    try:
        value, abserr, info, *message = integrate.quad(
            radial,
            0.0,
            r_outer,
            points=sorted(breaks),
            epsabs=0.0,
            epsrel=0.5 * quad_tol,
            limit=300,
            full_output=True,
        )
    except ValueError as exc:
        raise NumericError(
            f"common-neighborhood quadrature rejected: {exc} (d={d!r})"
        ) from exc
    if message:
        raise NumericError(
            f"common-neighborhood quadrature did not converge: {message[0]} "
            f"(d={d!r}, params={params}, abserr={abserr:g})"
        )
    return value


def generic_f(params: ChannelParams, d, quad_tol: float = 1e-6) -> float:
    """Expected common-neighbor mass per unit intensity at separation d.

    2-D integral of the product of the two link probabilities, evaluated in
    polar coordinates around the pair midpoint: adaptively in radius, with
    angle panels doubled until two successive refinements agree within
    quad_tol relative. Raises NumericError when that self-consistency check
    cannot be met. Reduces to unit_disk_f when sigma_db = 0.
    """
    d = float(d)
    if d < 0.0 or not math.isfinite(d):
        raise ValueError(f"d must be nonnegative and finite, got {d!r}")
    if not quad_tol > 0.0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol!r}")
    if params.sigma_db == 0.0:
        r = pseudo_range(params)
        return unit_disk_f(r, d) if d <= 2.0 * r else 0.0
    floor = 1e-15 * math.pi * pseudo_range(params) ** 2
    n_uniform = 16
    previous = _generic_f_once(params, d, n_uniform, quad_tol)
    while n_uniform <= 4096:
        n_uniform *= 2
        current = _generic_f_once(params, d, n_uniform, quad_tol)
        if abs(current - previous) <= quad_tol * max(abs(current), floor):
            return current
        previous = current
    raise NumericError(
        "angle refinement for the common-neighborhood integral did not "
        f"converge to quad_tol={quad_tol:g} at d={d!r} "
        f"(last change {abs(current - previous):g} at {n_uniform} panels)"
    )


def generic_f_derivative(params: ChannelParams, d, quad_tol: float = 1e-6,
                         step: float | None = None) -> float:
    """Central-difference slope of generic_f, for cross-checking tabulated slopes."""
    d = float(d)
    if step is None:
        step = threshold_distance(params) / 1e4
    if d - step < 0.0:
        raise ValueError(f"d={d!r} too close to 0 for central step {step!r}")
    hi = generic_f(params, d + step, quad_tol)
    lo = generic_f(params, d - step, quad_tol)
    return (hi - lo) / (2.0 * step)


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


def build_fd_model(params: ChannelParams, n_knots: int = 64,
                   quad_tol: float = 1e-6) -> FdModel:
    """Tabulate f(d) at n_knots uniform points on [0, d_th] and fit chords.

    The cutoff d_th comes from threshold_distance. Quadrature noise that
    breaks the strict monotonicity of the knot values raises
    ModelConstructionError.
    """
    if n_knots < 8:
        raise ValueError(f"n_knots must be >= 8, got {n_knots!r}")
    d_th = threshold_distance(params)
    knots_d = np.linspace(0.0, d_th, int(n_knots))
    knots_f = np.array([generic_f(params, d, quad_tol) for d in knots_d])
    if np.any(np.diff(knots_f) >= 0):
        raise ModelConstructionError(
            "tabulated f(d) is not strictly decreasing; quadrature noise "
            "exceeds the knot spacing (try fewer knots or tighter quad_tol)"
        )
    return FdModel(
        s_mass=generic_s(params, quad_tol),
        d_th=float(d_th),
        knots_d=knots_d,
        knots_f=knots_f,
        params=params,
    )


def _segment_index(model: FdModel, d: float) -> int:
    """Segment containing d; an exact knot hit resolves to the left segment."""
    i = int(np.searchsorted(model.knots_d, d, side="left")) - 1
    return min(max(i, 0), model.slopes.size - 1)


def fd_slope(model: FdModel, d) -> float:
    """Slope of the segment containing d (left segment at knots)."""
    d = float(d)
    if d < 0.0 or d > model.d_th:
        raise ValueError(f"d must lie in [0, d_th], got {d!r}")
    return float(model.slopes[_segment_index(model, d)])


def eval_fd(model: FdModel, d) -> float:
    """Piecewise-linear value of f at d in [0, d_th]; exact at knots."""
    d = float(d)
    if d < 0.0 or d > model.d_th or not math.isfinite(d):
        raise ValueError(f"d must lie in [0, d_th], got {d!r}")
    hit = int(np.searchsorted(model.knots_d, d, side="left"))
    if hit < model.knots_d.size and model.knots_d[hit] == d:
        return float(model.knots_f[hit])
    i = _segment_index(model, d)
    return float(model.knots_f[i] + model.slopes[i] * (d - model.knots_d[i]))


def invert_fd(model: FdModel, value) -> float:
    """Distance whose tabulated f equals value, clamped to [0, d_th].

    Values at or above f(0) map to 0; values at or below f(d_th) map to
    d_th; anything between is inverted on the containing affine segment.
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError("value must not be NaN")
    if value >= model.knots_f[0]:
        return 0.0
    if value <= model.knots_f[-1]:
        return float(model.d_th)
    ascending = model.knots_f[::-1]
    pos = int(np.searchsorted(ascending, value, side="left"))
    if pos < ascending.size and ascending[pos] == value:
        return float(model.knots_d[model.knots_f.size - 1 - pos])
    i = model.knots_f.size - 1 - pos
    return float(model.knots_d[i] + (value - model.knots_f[i]) / model.slopes[i])


def estimate_distance_conn(model: FdModel, counts: NeighborCounts) -> float:
    """Distance estimate from neighbor counts via the overlap ratio.

    All-zero counts return 0; otherwise the ratio 2M/(2M+P+Q) scales the
    mass S and the tabulated f is inverted, which clamps to d_th when the
    scaled mass falls below f(d_th) and to 0 when it exceeds f(0).
    """
    m, p, q = counts.m, counts.p, counts.q
    if m == 0 and p == 0 and q == 0:
        return 0.0
    rho = 2.0 * m / (2.0 * m + p + q)
    return invert_fd(model, rho * model.s_mass)


def estimate_intensity(counts: NeighborCounts, s_mass: float) -> float:
    """Moment estimate of the node intensity from one pair's counts.

    The combined count 2M+P+Q has mean 2*intensity*S, so the plug-in
    estimate is (2M+P+Q)/(2S). All-zero counts give 0; callers must treat
    that as 'no connectivity information'.
    """
    if not s_mass > 0.0:
        raise ValueError(f"s_mass must be positive, got {s_mass!r}")
    return (2.0 * counts.m + counts.p + counts.q) / (2.0 * s_mass)


def conn_error_sigma(model: FdModel, intensity: float, d_plugin) -> float:
    """Standard deviation of the connectivity estimate's error near d_plugin.

    With M ~ Poi(lambda f) and P, Q ~ Poi(lambda (S - f)), the delta method
    gives the overlap ratio rho = 2M/(2M+P+Q) the variance

        Var(rho) = f (S - f) (2S - f) / (2 lambda S^4),

    and inverting rho S = f(d) on the affine segment containing d_plugin
    (left segment at knots) scales it to sigma_c = S sqrt(Var(rho)) / |f'|.
    sigma_c^2 equals the connectivity-only Cramer-Rao bound, the inverse
    of the Schur complement of the count information over (d, intensity),
    so the overlap-ratio estimator is asymptotically efficient.
    """
    if not intensity > 0.0:
        raise ValueError(f"intensity must be positive, got {intensity!r}")
    d_plugin = float(d_plugin)
    if not 0.0 < d_plugin <= model.d_th:
        raise ValueError(f"d_plugin must lie in (0, d_th], got {d_plugin!r}")
    f_val = eval_fd(model, d_plugin)
    s = model.s_mass
    if not 0.0 < f_val < s:
        raise ValueError(
            f"f({d_plugin!r})={f_val!r} is outside (0, S={s!r}); degenerate model"
        )
    slope = fd_slope(model, d_plugin)
    var_rho = f_val * (s - f_val) * (2.0 * s - f_val) / (2.0 * intensity * s**4)
    return s * math.sqrt(var_rho) / abs(slope)


def conn_estimate_pdf(model: FdModel, intensity: float, d_true, x):
    """Normal density of the connectivity estimate around the true distance."""
    sigma = conn_error_sigma(model, intensity, d_true)
    x = np.asarray(x, dtype=float)
    out = np.exp(-((x - float(d_true)) ** 2) / (2.0 * sigma * sigma)) / (
        math.sqrt(2.0 * math.pi) * sigma
    )
    return out if out.ndim else float(out)


_FD_HEADER = "fdmodel v1"
_FD_PARAM_KEYS = ("p_ref_dbm", "alpha", "sigma_db", "rss_threshold_dbm", "d0_m")


def save_fd_model(model: FdModel, path) -> None:
    """Write the model to a versioned flat text file (full float precision)."""
    lines = [_FD_HEADER]
    values = {
        "p_ref_dbm": model.params.p_ref_dbm,
        "alpha": model.params.alpha,
        "sigma_db": model.params.sigma_db,
        "rss_threshold_dbm": model.params.rss_threshold_dbm,
        "d0_m": model.params.d0,
    }
    for key in _FD_PARAM_KEYS:
        lines.append(f"{key} = {values[key]!r}")
    lines.append(f"s_mass = {model.s_mass!r}")
    lines.append(f"d_th = {model.d_th!r}")
    lines.append(f"n_knots = {model.n_knots}")
    lines.append("knots:")
    for d, f_val in zip(model.knots_d, model.knots_f):
        lines.append(f"{float(d)!r}, {float(f_val)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_fd_model(path) -> FdModel:
    """Read a model written by save_fd_model; raises ConfigurationError on damage."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"f(d) model file not found: {path}")
    lines = path.read_text().splitlines()
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
                key, value = line.split("=")
                fields[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: malformed line {line!r}") from exc
    missing = [k for k in (*_FD_PARAM_KEYS, "s_mass", "d_th", "n_knots") if k not in fields]
    if missing:
        raise ConfigurationError(f"{path}: missing header fields {missing}")
    if len(knots) != int(fields["n_knots"]):
        raise ConfigurationError(
            f"{path}: expected {int(fields['n_knots'])} knots, found {len(knots)}"
        )
    params = ChannelParams(
        p_ref_dbm=fields["p_ref_dbm"],
        alpha=fields["alpha"],
        sigma_db=fields["sigma_db"],
        rss_threshold_dbm=fields["rss_threshold_dbm"],
        d0=fields["d0_m"],
    )
    knots_arr = np.asarray(knots, dtype=float)
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
