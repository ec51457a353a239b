"""Monte Carlo harness: random deployments, link realizations, RMSE reports.

Each trial drops a fresh Poisson field of nodes in a square region with
the probed pair conditioned at the center, realizes shadowed links from
every node to both endpoints, collects the neighbor counts, and samples
one RSS reading for the pair. Each probe draws its trials from its own
random stream, derived from the master seed and the probe's index, in
fixed blocks of trials, so results do not depend on the other probes and
are reproducible bit for bit under a fixed seed. All trials of a run then
go through the shared estimation pipeline as one batch. Every reading is
kept, also those below the link threshold: the RSS error law and the
bound assume the unconditioned reading. expected_errors gives the exact
errors that the Monte Carlo estimates, by enumeration instead of draws.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .channel import (
    LN10,
    ChannelParams,
    estimate_distance_rss,
    pseudo_range,
    sample_rss,
)
from .config import atomic_output
from .connectivity import FdModel, _model_point
from .crlb import crlb_distance
from .errors import ConfigurationError
from .pipeline import estimate_pairs


@dataclass(frozen=True, eq=False)
class Deployment:
    """A realized node field on the square [0, side] x [0, side]."""

    side: float
    intensity: float
    nodes: np.ndarray

    def __post_init__(self):
        if not self.side > 0.0:
            raise ValueError(f"side must be positive, got {self.side!r}")
        if not self.intensity > 0.0:
            raise ValueError(f"intensity must be positive, got {self.intensity!r}")
        nodes = np.ascontiguousarray(self.nodes, dtype=float).reshape(-1, 2)
        if nodes.size and (nodes.min() < 0.0 or nodes.max() > self.side):
            raise ValueError("all node positions must lie inside the region")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class ExperimentConfig:
    """One RMSE experiment: density, probe distances, trial count, seed, edge margin.

    The channel is not part of it: run_experiment takes it from the f(d)
    table it is given. The pair sits at the center of a square of side
    (2 margin + 1) d_th, so margin >= 1 and d <= d_th (run_experiment) put
    each endpoint at least d_th from every edge, up to rounding, for any
    channel: the endpoints need no check of their own.
    """

    mu: float
    distances: tuple
    trials: int = 10000
    seed: int = 0
    margin: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 1.0 <= self.margin < math.inf:
            raise ValueError(
                f"margin must be finite and >= 1 cutoff distance, got {self.margin!r}"
            )
        distances = tuple(float(d) for d in self.distances)
        if not distances or any(not d > 0.0 for d in distances):
            raise ValueError(f"distances must be positive, got {self.distances!r}")
        object.__setattr__(self, "distances", distances)


@dataclass(frozen=True)
class RmseRow:
    d_true: float
    rmse_rss: float
    rmse_conn: float
    rmse_fused: float
    sqrt_crlb: float
    trials: int


CSV_COLUMNS = tuple(item.name for item in fields(RmseRow))


@dataclass(frozen=True)
class RmseReport:
    rows: tuple

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS), *(",".join(map(repr, astuple(row))) for row in self.rows)]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with atomic_output(path) as partial:
            partial.write_text(self.to_csv_text())

    def to_dict(self) -> dict:
        return {"columns": list(CSV_COLUMNS), "rows": [asdict(r) for r in self.rows]}

    def write_json(self, path) -> None:
        with atomic_output(path) as partial:
            partial.write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def mu_to_lambda(mu: float, s_mass: float) -> float:
    """Node intensity that yields an expected neighbor count of mu."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    if not 0.0 < s_mass < math.inf:
        raise ValueError(f"s_mass must be positive and finite, got {s_mass!r}")
    return mu / s_mass


def deploy_poisson(side: float, intensity: float, rng: np.random.Generator) -> Deployment:
    """Drop a Poisson number of nodes uniformly on the square region.

    Draw order is the node count first, then the (n, 2) position block.
    Deployment checks side and intensity.
    """
    n = int(rng.poisson(intensity * side * side))
    nodes = rng.random((n, 2)) * side
    return Deployment(side=side, intensity=intensity, nodes=nodes)


def _links(params: ChannelParams, xy: np.ndarray, end, z: np.ndarray) -> np.ndarray:
    """Which nodes at xy link to the endpoint, given one shadowing draw z per node.

    The draw sets the node's effective link radius r_eff = r exp(sigma_r
    ln10 z) around the pseudo range r; the node links when its squared
    distance is at most r_eff^2.
    """
    r_eff = pseudo_range(params) * np.exp(params.sigma_r * LN10 * z)
    d2 = (xy[:, 0] - float(end[0])) ** 2 + (xy[:, 1] - float(end[1])) ** 2
    return d2 <= r_eff * r_eff


# trials per block of a probe's stream: large enough to amortize the numpy
# calls per block, small enough that the block's node arrays keep the peak
# memory flat
_BLOCK_TRIALS = 16


def _draw_probe(params: ChannelParams, side: float, intensity: float, d: float,
                trials: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor counts, shape (3, trials), and RSS readings of one probe.

    The pair sits at the center of the square region, d apart. Trials are
    drawn from rng in blocks of _BLOCK_TRIALS (the last one shorter); each
    block takes, in this order, its node counts, all its node positions,
    both endpoints' shadowing draws for all its nodes (a's row, then b's)
    and its RSS readings. A trial's counts are sums over its own nodes.
    """
    a = ((side - d) / 2.0, side / 2.0)
    b = ((side + d) / 2.0, side / 2.0)
    counts = np.empty((3, trials), dtype=np.int64)
    obs = np.empty(trials)
    for start in range(0, trials, _BLOCK_TRIALS):
        k = min(_BLOCK_TRIALS, trials - start)
        n = rng.poisson(intensity * side * side, k)
        xy = rng.random((int(n.sum()), 2)) * side
        z = rng.standard_normal((2, xy.shape[0]))
        obs[start:start + k] = sample_rss(params, np.full(k, d), rng)
        # bincount over each linked node's trial index: trials without
        # nodes or links get 0
        trial = np.repeat(np.arange(k), n)
        link_a, link_b = _links(params, xy, a, z[0]), _links(params, xy, b, z[1])
        m = np.bincount(trial[link_a & link_b], minlength=k)
        counts[:, start:start + k] = (m, np.bincount(trial[link_a], minlength=k) - m,
                                      np.bincount(trial[link_b], minlength=k) - m)
    return counts, obs


def run_experiment(cfg: ExperimentConfig, model: FdModel) -> RmseReport:
    """Run the full RMSE protocol and report all three estimators per distance.

    The draws, the estimates and the bound all use the channel the f(d)
    table was built for, model.params. Probe i_d draws its trials from
    default_rng((seed, i_d)) in fixed blocks (see _draw_probe), so a
    probe's results do not depend on the other probes. Probing beyond the
    model's cutoff is a configuration error.
    """
    params, d_th = model.params, model.d_th
    for d in cfg.distances:
        if d > d_th:
            raise ConfigurationError(
                f"probed distance {d!r} exceeds the cutoff {d_th!r}"
            )
    intensity = mu_to_lambda(cfg.mu, model.s_mass)
    side = (2.0 * cfg.margin + 1.0) * d_th

    n_probes, trials = len(cfg.distances), cfg.trials
    counts = np.empty((3, n_probes, trials), dtype=np.int64)
    obs = np.empty((n_probes, trials))
    for i_d, d in enumerate(cfg.distances):
        rng = np.random.default_rng((cfg.seed, i_d))
        counts[:, i_d], obs[i_d] = _draw_probe(params, side, intensity, d, trials, rng)
    # one batch for the whole run: the estimation works pair by pair, so
    # batching across probes changes no value
    d_rss = estimate_distance_rss(params, obs.ravel())
    est = estimate_pairs(model, d_rss, *counts.reshape(3, -1), intensity=intensity)
    errors = (np.stack([d_rss, est.d_conn, est.d_fused]).reshape(3, n_probes, trials)
              - np.array(cfg.distances)[:, None])
    rmse = np.sqrt(np.mean(errors * errors, axis=2))

    sqrt_crlb = (np.zeros(n_probes) if params.sigma_db == 0.0
                 else np.sqrt(crlb_distance(model, intensity, cfg.distances)))
    return RmseReport(rows=tuple(
        RmseRow(d, *row, bound, trials)
        for d, row, bound in zip(cfg.distances, rmse.T.tolist(), sqrt_crlb.tolist())))


class ExpectedErrors(NamedTuple):
    """Exact RMSE and bias (mean error) of the three estimates at one distance."""

    rmse_rss: float
    rmse_conn: float
    rmse_fused: float
    bias_rss: float
    bias_conn: float
    bias_fused: float


# joint count probabilities below this are left out of the enumeration
_PMF_FLOOR = 1e-14
_HERMITE_NODES = 40


def _poisson_pmf(mean: float) -> np.ndarray:
    """Poisson pmf on 0..k, with k far enough out that pmf(k) is below _PMF_FLOOR."""
    from scipy import special

    k = np.arange(math.ceil(mean + 12.0 * math.sqrt(mean) + 40.0))
    return np.exp(special.xlogy(k, mean) - mean - special.gammaln(k + 1.0))


def expected_errors(model: FdModel, intensity: float, d: float) -> ExpectedErrors:
    """Exact bias and RMSE of the RSS, connectivity and fused estimates at d.

    Computed with no random draws, under the model that run_experiment
    samples, with the intensity known. The estimators see the counts only
    through M ~ Poi(lambda f) and Y = P + Q ~ Poi(2 lambda (S - f)), so the
    expectation over the counts is a sum over every (M, Y) whose joint pmf
    exceeds 1e-14, renormalized to the mass kept. The RSS range is
    d 10^(sigma_r z) with z standard normal, taken on the 30 of 40
    probabilists' Gauss-Hermite nodes whose normalized weight exceeds
    1e-14, renormalized likewise. The whole grid goes through
    estimate_pairs as one batch. The channel is model.params.
    """
    intensity, d, f_val, _ = (float(x) for x in _model_point(model, intensity, d))
    joint = np.outer(_poisson_pmf(intensity * f_val),
                     _poisson_pmf(2.0 * intensity * (model.s_mass - f_val)))
    m, y = np.nonzero(joint > _PMF_FLOOR)
    w_counts = joint[m, y] / joint[m, y].sum()
    z, w_z = hermegauss(_HERMITE_NODES)
    # like the count pmf, the range rule keeps only nodes whose weight
    # reaches the floor (30 of 40), renormalized
    kept = w_z / w_z.sum() >= _PMF_FLOOR
    z, w_z = z[kept], w_z[kept] / w_z[kept].sum()
    d_rss = d * 10.0 ** (model.params.sigma_r * z)
    est = estimate_pairs(model, np.tile(d_rss, m.size), np.repeat(m, z.size),
                         np.repeat(y, z.size), 0, intensity=intensity)

    def moments(estimates, weights):
        err = estimates - d
        return math.sqrt(float(weights @ (err * err))), float(weights @ err)

    (rmse_rss, bias_rss), (rmse_conn, bias_conn), (rmse_fused, bias_fused) = (
        moments(d_rss, w_z),
        moments(est.d_conn[::z.size], w_counts),
        moments(est.d_fused, np.outer(w_counts, w_z).ravel()),
    )
    return ExpectedErrors(rmse_rss, rmse_conn, rmse_fused, bias_rss, bias_conn, bias_fused)
