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

import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .channel import (
    LN10,
    ChannelParams,
    estimate_distance_rss,
    mean_rss,
    pseudo_range,
)
from .config import ExperimentConfig
from .crlb import crlb_distance
from .errors import ConfigurationError
from .fdtable import FdModel, count_law, mu_to_lambda
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

    def to_json_text(self) -> str:
        import json  # here, so that simulate without --json loads no json

        payload = {"columns": list(CSV_COLUMNS), "rows": [asdict(row) for row in self.rows]}
        return json.dumps(payload, indent=2) + "\n"


def deploy_poisson(side: float, intensity: float, rng: np.random.Generator) -> Deployment:
    """Drop a Poisson number of nodes uniformly on the square region.

    Draw order is the node count first, then the (n, 2) position block.
    Deployment checks side and intensity.
    """
    n = int(rng.poisson(intensity * side * side))
    nodes = rng.random((n, 2)) * side
    return Deployment(side=side, intensity=intensity, nodes=nodes)


def _links(xy: np.ndarray, ends_x: np.ndarray, y: float, r: float, spread: float,
           z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Which nodes at xy link to each of two endpoints, into out: a's row, then b's.

    The endpoints sit at (ends_x[0, 0], y) and (ends_x[1, 0], y); ends_x
    is a (2, 1) column. z holds one shadowing draw per endpoint and node,
    shape (2, n). A draw sets the node's effective link radius r_eff =
    r exp(spread z) around the pseudo range r, spread = sigma_r ln10; the
    node links when its squared distance is at most r_eff^2. z is
    overwritten with r_eff^2, and out, a (2, n) boolean array, with the
    mask, which is returned.
    """
    z *= spread
    np.exp(z, out=z)
    z *= r
    z *= z
    d2 = xy[:, 0] - ends_x
    d2 *= d2
    dy = xy[:, 1] - y
    dy *= dy
    d2 += dy
    return np.less_equal(d2, z, out=out)


# trials per block of a probe's stream: large enough to amortize the numpy
# calls per block, small enough that the block's node arrays keep the peak
# memory flat
_BLOCK_TRIALS = 16
# numpy's largest Poisson mean, int64 max - 10 sqrt(int64 max): the most
# nodes per trial a deployment can expect
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _draw_probe(params: ChannelParams, side: float, intensity: float, d: float,
                trials: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor counts, shape (3, trials), and RSS readings of one probe.

    The pair sits at the center of the square region, d apart. Trials are
    drawn from rng in blocks of _BLOCK_TRIALS (the last one shorter); each
    block takes, in this order, its node counts, all its node positions,
    both endpoints' shadowing draws for all its nodes (a's row, then b's)
    and its RSS readings. A reading is sample_rss's mean plus shadowing,
    its mean taken once per probe. One _links call tests a block's nodes
    against both endpoints; with the nodes linked to both, that fills a
    (3, n) mask whose rows one np.add.reduceat sums per trial, at the
    starts of the trials that have nodes. A trial without nodes counts 0.
    """
    r, spread = pseudo_range(params), params.sigma_r * LN10
    ends_x = np.array([[(side - d) / 2.0], [(side + d) / 2.0]])
    counts = np.zeros((3, trials), dtype=np.int64)
    obs = np.empty(trials)
    mean = mean_rss(params, np.full(min(trials, _BLOCK_TRIALS), d))
    for start in range(0, trials, _BLOCK_TRIALS):
        k = min(_BLOCK_TRIALS, trials - start)
        n = rng.poisson(intensity * side * side, k)
        xy = rng.random((int(n.sum()), 2))
        xy *= side
        z = rng.standard_normal((2, xy.shape[0]))
        obs[start:start + k] = mean[:k] + rng.normal(0.0, params.sigma_db, size=k)
        if xy.shape[0]:
            # rows: linked to both, to a, to b; reduceat takes no empty
            # segment, so only the trials with nodes give it a start
            mask = np.empty((3, xy.shape[0]), dtype=bool)
            _links(xy, ends_x, side / 2.0, r, spread, z, mask[1:])
            np.logical_and(mask[1], mask[2], out=mask[0])
            block, full = counts[:, start:start + k], n > 0
            block[:, full] = np.add.reduceat(mask, (np.cumsum(n) - n)[full], axis=1,
                                             dtype=np.int64)
            block[1:] -= block[0]
    return counts, obs


def run_experiment(cfg: ExperimentConfig, model: FdModel) -> RmseReport:
    """Run the full RMSE protocol and report all three estimators per distance.

    The draws, the estimates and the bound all use the channel the f(d)
    table was built for, model.params. Probe i_d draws its trials from
    default_rng((seed, i_d)) in fixed blocks (see _draw_probe), so a
    probe's results do not depend on the other probes. Probing beyond the
    model's cutoff is a configuration error, and so is an expected node
    count per trial beyond numpy's Poisson limit (or not finite).
    """
    params, d_th = model.params, model.d_th
    for d in cfg.distances:
        if d > d_th:
            raise ConfigurationError(
                f"probed distance {d!r} exceeds the cutoff {d_th!r}"
            )
    intensity = mu_to_lambda(cfg.mu, model.s_mass)
    side = (2.0 * cfg.margin + 1.0) * d_th
    nodes = intensity * side * side
    if not nodes <= _POISSON_LAM_MAX:
        raise ConfigurationError(
            f"mu {cfg.mu!r} and margin {cfg.margin!r} expect {nodes!r} nodes per trial, "
            f"beyond the {_POISSON_LAM_MAX!r} a Poisson draw can take"
        )

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

    sqrt_crlb = np.sqrt(crlb_distance(model, intensity, cfg.distances))
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
    """Poisson pmf on 0..k, with k far enough out that pmf(k) is below _PMF_FLOOR.

    exp(k ln mean - mean - ln k!), ln k! by the standard library's lgamma;
    mean > 0 (count_law checks the intensity and f).
    """
    k = np.arange(math.ceil(mean + 12.0 * math.sqrt(mean) + 40.0))
    log_factorial = np.fromiter(map(math.lgamma, (k + 1.0).tolist()), float, k.size)
    return np.exp(k * math.log(mean) - mean - log_factorial)


def expected_errors(model: FdModel, intensity: float, d: float) -> ExpectedErrors:
    """Exact bias and RMSE of the RSS, connectivity and fused estimates at d.

    Computed with no random draws, under the model that run_experiment
    samples, with the intensity known. The estimators see the counts only
    through M and Y = P + Q of count_law, so the expectation over the
    counts is a sum over every (M, Y) whose joint pmf exceeds 1e-14,
    renormalized to the mass kept. The RSS range is
    d 10^(sigma_r z) with z standard normal, taken on the 30 of 40
    probabilists' Gauss-Hermite nodes whose normalized weight exceeds
    1e-14, renormalized likewise. The whole grid goes through
    estimate_pairs as one batch. The channel is model.params.
    """
    intensity, d, means, _ = count_law(model, intensity, d)
    intensity, d = float(intensity), float(d)
    joint = np.outer(*(_poisson_pmf(intensity * mean) for mean in means))
    m, y = np.nonzero(joint > _PMF_FLOOR)
    w_counts = joint[m, y] / joint[m, y].sum()
    z, w_z = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    # like the count pmf, the range rule keeps only nodes whose weight
    # exceeds the floor (30 of 40), renormalized
    kept = w_z / w_z.sum() > _PMF_FLOOR
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
