"""The tabulated f(d) model and the connectivity-based range estimator that reads it.

f(d) is the expected number of common neighbors of two nodes d apart per
unit node intensity, and the mass S each node's expected neighborhood per
unit intensity; count_law states the law of the neighbor counts in them.
An FdModel holds f as a piecewise-linear table of knots on [0, d_th] next
to S and the channel it was built for. The estimator observes the counts
(M, P, Q) of common and exclusive neighbors, forms the overlap ratio
2M/(2M+P+Q), and inverts the table (invert_counts); conn_error_sigma is
the spread of that estimate.

A table is written to and read from a versioned flat text file
(save_fd_model, load_fd_model). Building one is connectivity's
(build_fd_model); this module holds no quadrature, so a command given a
saved table loads none. It needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelParams, _like_input, _require
from .config import (CHANNEL_KEYS, channel_from_mapping, channel_to_mapping, read_input,
                     write_atomic)
from .errors import ConfigurationError, ModelConstructionError


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
        _require(knots_d[0], knots_d[0] == 0.0, "knots must start at distance 0")
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


def mu_to_lambda(mu: float, s_mass: float) -> float:
    """Node intensity that yields an expected neighbor count of mu."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    if not 0.0 < s_mass < math.inf:
        raise ValueError(f"s_mass must be positive and finite, got {s_mass!r}")
    if mu / s_mass == 0.0:
        raise ValueError(f"mu {mu!r} over s_mass {s_mass!r} gives an intensity of 0.0")
    return mu / s_mass


def _in_table(model: FdModel, d) -> np.ndarray:
    """d as an array, checked to lie in [0, d_th]."""
    d = np.asarray(d, dtype=float)
    _require(d, (d >= 0.0) & (d <= model.d_th), "d must lie in [0, d_th]")
    return d


def _segments(model: FdModel, d) -> np.ndarray:
    """Index of the segment containing each d (the left one at knots)."""
    hit = np.searchsorted(model.knots_d, _in_table(model, d), side="left")
    return np.clip(hit - 1, 0, model.slopes.size - 1)


def fd_slope(model: FdModel, d):
    """Slope of the segment containing d (left segment at knots); takes arrays."""
    return _like_input(model.slopes[_segments(model, d)])


def eval_fd(model: FdModel, d):
    """Piecewise-linear value of f at d in [0, d_th]; exact at knots; takes arrays."""
    return _like_input(np.interp(_in_table(model, d), model.knots_d, model.knots_f))


def invert_fd(model: FdModel, value):
    """Distance whose tabulated f equals value, clamped to [0, d_th]; takes arrays.

    Values at or above f(0) map to 0; values at or below f(d_th) map to
    d_th; anything between is inverted on the containing chord, exactly at
    knots.
    """
    value = np.asarray(value, dtype=float)
    _require(value, ~np.isnan(value), "value must not be NaN")
    return _like_input(np.interp(value, model.knots_f[::-1], model.knots_d[::-1]))


def invert_counts(model: FdModel, m, p, q):
    """Distance estimates from arrays of neighbor counts via the overlap ratio.

    All-zero counts give 0; otherwise the ratio 2M/(2M+P+Q) scales the
    mass S and invert_fd maps it back to a distance in [0, d_th].
    """
    m = np.asarray(m, dtype=float)
    total = 2.0 * m + p + q
    rho = np.divide(2.0 * m, total, out=np.zeros_like(total), where=total > 0)
    return _like_input(np.where(total > 0, invert_fd(model, rho * model.s_mass), 0.0))


def count_law(model: FdModel, intensity, d):
    """The law of the neighbor counts at points of the model; takes arrays.

    Two nodes d apart have M ~ Poi(lambda f) common and Y = P + Q ~
    Poi(2 lambda (S - f)) exclusive neighbors; E[2M + P + Q] = 2 lambda S
    at every d, which invert_counts and the moment intensity use. Returns
    intensity and d broadcast to one shape, the means per unit intensity
    (f, 2 (S - f)) of M and Y and their d-slopes (f', -2 f'), f' the left
    segment's at knots. The one check of a model point: 0 < intensity < inf,
    d in (0, d_th] and 0 < f(d) < S.
    """
    intensity, d = np.broadcast_arrays(np.asarray(intensity, dtype=float),
                                       np.asarray(d, dtype=float))
    _require(intensity, (intensity > 0.0) & (intensity < math.inf),
             "intensity must be positive and finite")
    _require(d, (d > 0.0) & (d <= model.d_th), f"d must lie in (0, d_th={model.d_th!r}]")
    f_val = eval_fd(model, d)
    _require(f_val, (f_val > 0.0) & (f_val < model.s_mass),
             f"f(d) must lie in (0, S={model.s_mass!r}); degenerate model")
    slope = fd_slope(model, d)
    return intensity, d, (f_val, 2.0 * (model.s_mass - f_val)), (slope, -2.0 * slope)


def conn_error_sigma(model: FdModel, intensity, d_plugin):
    """Standard deviation of the connectivity estimate's error near d_plugin.

    Under count_law, the delta method gives the overlap ratio rho =
    2M/(2M+P+Q) the variance

        Var(rho) = f (S - f) (2S - f) / (2 lambda S^4),

    and inverting rho S = f(d) on the affine segment containing d_plugin
    (left segment at knots) scales it to sigma_c = S sqrt(Var(rho)) / |f'|.
    sigma_c^2 equals the connectivity-only Cramer-Rao bound, the inverse
    of the Schur complement of the count information over (d, intensity),
    so the overlap-ratio estimator is asymptotically efficient. The
    arguments broadcast and are checked by count_law, as the bound's are.
    Raises ValueError also where an extreme intensity puts sigma_c or
    1/sigma_c^2 outside the positive floats.
    """
    intensity, _, (f_val, y_mean), (slope, _) = count_law(model, intensity, d_plugin)
    s = model.s_mass
    with np.errstate(all="ignore"):
        var_rho = f_val * (0.5 * y_mean) * (2.0 * s - f_val) / (2.0 * intensity * s**4)
        out = s * np.sqrt(var_rho) / np.abs(slope)
        info = 1.0 / np.square(out)
    _require(intensity, (out > 0.0) & (out < math.inf) & (info > 0.0) & (info < math.inf),
             "intensity puts the connectivity error scale sigma_c outside the positive floats")
    return _like_input(out)


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
