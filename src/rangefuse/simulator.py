"""Monte Carlo harness: random deployments, link realizations, RMSE reports.

Each trial drops a fresh Poisson field of nodes in a square region with
the probed pair conditioned at the center, realizes shadowed links from
every node to both endpoints, collects the neighbor counts, samples one
RSS reading for the pair, and runs all three estimators. Per-trial random
streams are derived from the master seed and the (distance, trial) index,
so results do not depend on execution order and are reproducible bit for
bit under a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    LN10,
    ChannelParams,
    estimate_distance_rss,
    pseudo_range,
    sample_rss,
)
from .connectivity import (
    FdModel,
    NeighborCounts,
    build_fd_model,
    conn_error_sigma,
    estimate_distance_conn,
    threshold_distance,
)
from .crlb import crlb_distance
from .errors import ConfigurationError
from .fusion import FusionInput, fuse_mle


@dataclass(frozen=True, eq=False)
class Deployment:
    """A realized node field on the square [0, side] x [0, side]."""

    side: float
    intensity: float
    nodes: np.ndarray
    seed: int | None = None

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
    """One RMSE experiment: channel, density, probe distances, trial count."""

    channel: ChannelParams
    mu: float
    distances: tuple
    trials: int
    seed: int
    margin: float = 1.5
    n_knots: int = 64
    quad_tol: float = 1e-6

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not self.margin >= 1.0:
            raise ValueError(
                f"margin must be >= 1 cutoff distance, got {self.margin!r}"
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


CSV_COLUMNS = ("d_true", "rmse_rss", "rmse_conn", "rmse_fused", "sqrt_crlb", "trials")


@dataclass(frozen=True)
class RmseReport:
    rows: tuple

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                f"{row.d_true!r},{row.rmse_rss!r},{row.rmse_conn!r},"
                f"{row.rmse_fused!r},{row.sqrt_crlb!r},{row.trials}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write(self.to_csv_text())

    def to_dict(self) -> dict:
        return {"columns": list(CSV_COLUMNS), "rows": [asdict(r) for r in self.rows]}

    def write_json(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")


def mu_to_lambda(mu: float, s_mass: float) -> float:
    """Node intensity that yields an expected neighbor count of mu."""
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    if not s_mass > 0.0:
        raise ValueError(f"s_mass must be positive, got {s_mass!r}")
    return mu / s_mass


def deploy_poisson(side: float, intensity: float, rng) -> Deployment:
    """Drop a Poisson number of nodes uniformly on the square region.

    rng may be a numpy Generator or an integer seed; draw order is the
    node count first, then the (n, 2) position block.
    """
    if not side > 0.0:
        raise ValueError(f"side must be positive, got {side!r}")
    if not intensity > 0.0:
        raise ValueError(f"intensity must be positive, got {intensity!r}")
    seed = None
    if not isinstance(rng, np.random.Generator):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * side * side))
    nodes = rng.random((n, 2)) * side
    return Deployment(side=side, intensity=intensity, nodes=nodes, seed=seed)


def realize_neighbors(
    dep: Deployment, params: ChannelParams, a, b, rng: np.random.Generator
) -> NeighborCounts:
    """Count common and exclusive neighbors of endpoints a and b.

    Every deployed node gets one shadowing draw per endpoint, turned into
    an effective link radius; a node is a neighbor when its distance falls
    under that radius. Both endpoints must keep at least the cutoff
    distance to every region edge so border truncation cannot bias the
    counts.
    """
    cutoff = threshold_distance(params)
    for name, (x, y) in (("a", a), ("b", b)):
        if min(x, y, dep.side - x, dep.side - y) < cutoff:
            raise ConfigurationError(
                f"endpoint {name}={(x, y)!r} is within the cutoff distance "
                f"{cutoff:.3f} of a region edge; counts would be biased"
            )
    n = dep.nodes.shape[0]
    if n == 0:
        return NeighborCounts(0, 0, 0)
    r = pseudo_range(params)
    spread = params.sigma_r * LN10
    reff_a = r * np.exp(spread * rng.standard_normal(n))
    reff_b = r * np.exp(spread * rng.standard_normal(n))
    xy = dep.nodes
    da2 = (xy[:, 0] - float(a[0])) ** 2 + (xy[:, 1] - float(a[1])) ** 2
    db2 = (xy[:, 0] - float(b[0])) ** 2 + (xy[:, 1] - float(b[1])) ** 2
    link_a = da2 <= reff_a * reff_a
    link_b = db2 <= reff_b * reff_b
    m = int(np.count_nonzero(link_a & link_b))
    p = int(np.count_nonzero(link_a)) - m
    q = int(np.count_nonzero(link_b)) - m
    return NeighborCounts(m, p, q)


def _trial_rng(seed: int, distance_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((seed, distance_index, trial))


def run_experiment(cfg: ExperimentConfig, model: FdModel | None = None) -> RmseReport:
    """Run the full RMSE protocol and report all three estimators per distance.

    A prebuilt FdModel for the same channel may be passed to skip the
    tabulation step. Probing beyond the model's cutoff is a configuration
    error.
    """
    params = cfg.channel
    if model is None:
        model = build_fd_model(params, cfg.n_knots, cfg.quad_tol)
    elif model.params != params:
        raise ConfigurationError("supplied model was built for different channel parameters")
    d_th = model.d_th
    for d in cfg.distances:
        if d > d_th:
            raise ConfigurationError(
                f"probed distance {d!r} exceeds the cutoff {d_th!r}"
            )
    intensity = mu_to_lambda(cfg.mu, model.s_mass)
    side = (2.0 * cfg.margin + 1.0) * d_th
    sigma_r = params.sigma_r
    plug_floor = 1e-9 * d_th

    rows = []
    for i_d, d in enumerate(cfg.distances):
        a = ((side - d) / 2.0, side / 2.0)
        b = ((side + d) / 2.0, side / 2.0)
        if params.sigma_db == 0.0:
            sqrt_crlb = 0.0
        else:
            # the bound needs an interior point; at the boundary probe use
            # the same segment evaluated just inside the cutoff
            d_bound = min(d, math.nextafter(d_th, 0.0))
            sqrt_crlb = math.sqrt(crlb_distance(params, model, intensity, d_bound))
        sq_rss = sq_conn = sq_fused = 0.0
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.seed, i_d, trial)
            dep = deploy_poisson(side, intensity, rng)
            counts = realize_neighbors(dep, params, a, b, rng)
            obs = sample_rss(params, d, rng)
            d_rss = estimate_distance_rss(params, obs)
            d_conn = estimate_distance_conn(model, counts)
            if params.sigma_db == 0.0:
                d_fused = min(d_rss, d_th)
            else:
                plug = min(max(d_conn, plug_floor), d_th)
                sigma_c = conn_error_sigma(model, intensity, plug)
                d_fused = fuse_mle(
                    FusionInput(d_rss, d_conn, sigma_r, sigma_c, d_th)
                ).d_hat
            sq_rss += (d_rss - d) ** 2
            sq_conn += (d_conn - d) ** 2
            sq_fused += (d_fused - d) ** 2
        rows.append(
            RmseRow(
                d_true=d,
                rmse_rss=math.sqrt(sq_rss / cfg.trials),
                rmse_conn=math.sqrt(sq_conn / cfg.trials),
                rmse_fused=math.sqrt(sq_fused / cfg.trials),
                sqrt_crlb=sqrt_crlb,
                trials=cfg.trials,
            )
        )
    return RmseReport(rows=tuple(rows))
