"""Experiment orchestration: end-to-end pipeline runs, metrics, CSV output.

A run is fully determined by its config, including the master seed: every
trial derives its own noise and dealer substreams from (seed, trial), so a
trial's record does not depend on how many trials the run has. The dealer
seed can be varied independently of the noise seed to check that share
masking never moves the reconstructed count.

Mechanisms:
  cargo            private max degree -> projection -> secret-shared
                   counting -> distributed perturbation
  central          trusted-server Laplace baseline at the full budget
  exact            plain count, no privacy (ground-truth timing reference)
  project-compare  projection-only loss sweep, similarity vs random,
                   at explicit theta values and with noiseless degrees
"""

import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import central_lap
from .graph import Graph, exact_triangle_count, load_edge_list
from .perturbation import NoiseParams, perturb
from .projection import NoisyDegrees, check_theta, max_private, project, project_random
from .ring import DealerRng, reconstruct
from .secure_count import count, effective_graph, share_adjacency

MECHANISMS = ("cargo", "central", "exact", "project-compare")

# O(n^3) BLAS work in the count: refuse big inputs unless explicitly allowed
MAX_CARGO_NODES = 2000

# per-trial substream tags
_NOISE_STREAM = 0
_DEALER_STREAM = 1
_PROJECT_STREAM = 2

CSV_COLUMNS = (
    "trial",
    "T_true",
    "T_noisy",
    "l2_loss",
    "relative_error",
    "d_max_true",
    "d_max_noisy",
    "time_project_s",
    "time_count_s",
    "time_perturb_s",
)


@dataclass(frozen=True)
class ExperimentConfig:
    graph_path: str | Path
    mechanism: str = "cargo"
    epsilon: float = 2.0
    epsilon_split: float = 0.1
    n_limit: int | None = None
    theta_override: tuple[int, ...] | None = None
    trials: int = 10
    seed: int = 0
    output_path: str | Path | None = None
    dealer_seed: int | None = None
    # trials run in one process; kept only until the benchmark stops passing it
    workers: int = 1
    zero_timings: bool = False
    allow_large: bool = False

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.epsilon_split < 1:
            raise ValueError("epsilon_split must be in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_limit is not None and self.n_limit < 1:
            raise ValueError("n_limit must be positive")
        if self.workers != 1:
            raise ValueError("trials run in one process; workers must be 1")
        _check_seed("seed", self.seed)
        if self.dealer_seed is not None:
            _check_seed("dealer_seed", self.dealer_seed)
        if self.theta_override is not None:
            if self.mechanism != "project-compare":
                raise ValueError("theta override applies to project-compare only")
            thetas = tuple(check_theta(t) for t in self.theta_override)
            object.__setattr__(self, "theta_override", thetas)
        if self.mechanism == "project-compare" and not self.theta_override:
            raise ValueError("project-compare needs explicit theta values")

    @property
    def epsilon1(self) -> float:
        return self.epsilon_split * self.epsilon

    @property
    def epsilon2(self) -> float:
        # epsilon - epsilon1 rather than (1 - split) * epsilon, so the
        # budget identity epsilon1 + epsilon2 == epsilon holds exactly
        return self.epsilon - self.epsilon1


def _check_seed(name: str, value) -> None:
    """Raises TypeError unless value is an integer, ValueError if it is negative.

    Seeds feed np.random.SeedSequence, which takes only non-negative
    integers; checked with the config, before the graph is loaded.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial: int
    t_true: int
    t_noisy: float
    l2_loss: float
    relative_error: float
    d_max_true: int
    d_max_noisy: float
    time_project_s: float
    time_count_s: float
    time_perturb_s: float
    # project-compare sweeps only
    theta: int | None = None
    method: str | None = None
    # reconstructed pre-noise count; not serialized
    t_projected: int | None = None


def _noise_rng(cfg: ExperimentConfig, trial: int):
    seq = np.random.SeedSequence([cfg.seed, trial, _NOISE_STREAM])
    return np.random.Generator(np.random.PCG64(seq))


def _dealer(cfg: ExperimentConfig, trial: int) -> DealerRng:
    base = cfg.seed if cfg.dealer_seed is None else cfg.dealer_seed
    return DealerRng(base, trial, _DEALER_STREAM)


def _record(
    cfg: ExperimentConfig,
    g: Graph,
    trial: int,
    t_true: int,
    t_noisy: float,
    times: tuple[float, float, float],
    d_max_noisy: float = math.nan,
    **extra,
) -> TrialRecord:
    """One trial's record: error metrics, and (project, count, perturb) times.

    Timings are written as 0.0 under cfg.zero_timings, so records and CSVs
    depend only on the config.
    """
    if cfg.zero_timings:
        times = (0.0, 0.0, 0.0)
    return TrialRecord(
        trial=trial,
        t_true=t_true,
        t_noisy=t_noisy,
        l2_loss=(t_true - t_noisy) ** 2,
        relative_error=abs(t_true - t_noisy) / t_true if t_true > 0 else math.nan,
        d_max_true=g.d_max,
        d_max_noisy=d_max_noisy,
        time_project_s=times[0],
        time_count_s=times[1],
        time_perturb_s=times[2],
        **extra,
    )


def _cargo_trial(g: Graph, t_true: int, cfg: ExperimentConfig, trial: int) -> TrialRecord:
    noise_rng = _noise_rng(cfg, trial)
    dealer = _dealer(cfg, trial)

    t0 = time.perf_counter()
    noisy = max_private(g.degrees, cfg.epsilon1, noise_rng)
    pg = project(g, noisy)
    # validated before the count, so a noise scale out of range fails fast
    params = NoiseParams(
        epsilon2=cfg.epsilon2, sensitivity=float(pg.theta), n_users=g.n
    )
    time_project = time.perf_counter() - t0

    t0 = time.perf_counter()
    sa = share_adjacency(pg, dealer)
    t_shares = count(sa, g.n, dealer)
    time_count = time.perf_counter() - t0

    t0 = time.perf_counter()
    t_noisy = perturb(t_shares, params, noise_rng)
    time_perturb = time.perf_counter() - t0

    return _record(
        cfg, g, trial, t_true, t_noisy, (time_project, time_count, time_perturb),
        d_max_noisy=noisy.d_max_noisy, t_projected=reconstruct(t_shares),
    )


def run_cargo(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Full pipeline, cfg.trials times with per-trial derived seeds."""
    limit_n = cfg.n_limit
    if not cfg.allow_large:
        # one node past the limit is enough to refuse, and the load
        # stays desk-sized; a graph within the limit loads unchanged
        limit_n = min(limit_n or MAX_CARGO_NODES + 1, MAX_CARGO_NODES + 1)
    g = load_edge_list(cfg.graph_path, limit_n)
    if g.n > MAX_CARGO_NODES and not cfg.allow_large:
        raise ValueError(
            f"more than {MAX_CARGO_NODES} nodes, the desk-scale limit for "
            "the cargo count; pass allow_large to run anyway"
        )
    t_true = exact_triangle_count(g)
    return [_cargo_trial(g, t_true, cfg, trial) for trial in range(cfg.trials)]


def run_central(cfg: ExperimentConfig) -> list[TrialRecord]:
    g = load_edge_list(cfg.graph_path, cfg.n_limit)
    t_true = exact_triangle_count(g)
    records = []
    for trial in range(cfg.trials):
        rng = _noise_rng(cfg, trial)
        t0 = time.perf_counter()
        t_noisy = central_lap(t_true, g.d_max, cfg.epsilon, rng)
        elapsed = time.perf_counter() - t0
        records.append(_record(cfg, g, trial, t_true, t_noisy, (0.0, elapsed, 0.0)))
    return records


def run_exact(cfg: ExperimentConfig) -> list[TrialRecord]:
    g = load_edge_list(cfg.graph_path, cfg.n_limit)
    records = []
    for trial in range(cfg.trials):
        t0 = time.perf_counter()
        t_true = exact_triangle_count(g)
        elapsed = time.perf_counter() - t0
        records.append(_record(cfg, g, trial, t_true, float(t_true), (0.0, elapsed, 0.0)))
    return records


def run_project_compare(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Projection-only loss at each theta: similarity projection vs random.

    Degrees enter the similarity ordering noiselessly here, isolating the
    loss of the projection rule itself; no perturbation noise is added.
    """
    g = load_edge_list(cfg.graph_path, cfg.n_limit)
    t_true = exact_triangle_count(g)
    exact_deg = NoisyDegrees.exact(g.degrees)
    records = []
    for theta in cfg.theta_override:
        for trial in range(cfg.trials):
            seq = np.random.SeedSequence([cfg.seed, trial, _PROJECT_STREAM, theta])
            rng = np.random.Generator(np.random.PCG64(seq))
            for method in ("project", "random"):
                t0 = time.perf_counter()
                if method == "project":
                    pg = project(g, exact_deg, theta=theta)
                else:
                    pg = project_random(g, theta, rng)
                time_project = time.perf_counter() - t0
                t0 = time.perf_counter()
                t_hat = exact_triangle_count(effective_graph(pg))
                time_count = time.perf_counter() - t0
                records.append(_record(
                    cfg, g, trial, t_true, float(t_hat), (time_project, time_count, 0.0),
                    theta=theta, method=method, t_projected=t_hat,
                ))
    return records


def run(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Dispatch on mechanism; write CSV when an output path is set."""
    runner = {
        "cargo": run_cargo,
        "central": run_central,
        "exact": run_exact,
        "project-compare": run_project_compare,
    }[cfg.mechanism]
    records = runner(cfg)
    if cfg.output_path is not None:
        emit_csv(records, cfg.output_path)
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, plain even for numpy scalars
    return str(value)


def emit_csv(records: list[TrialRecord], path) -> None:
    """Header plus one row per record; bytes depend only on the records.

    Floats are written in repr form, so parsing them back recovers the
    exact values. Sweep records add theta and method columns at the end.
    """
    sweep = any(r.theta is not None or r.method is not None for r in records)
    columns = CSV_COLUMNS + (("theta", "method") if sweep else ())
    lines = [",".join(columns)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, col.lower())) for col in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def summarize(records: list[TrialRecord]) -> dict[str, float]:
    """Mean and population standard deviation of the two utility metrics.

    The relative error skips NaN, which a graph with no triangle gives;
    a statistic over no value is NaN.
    """
    l2 = np.array([r.l2_loss for r in records], dtype=np.float64)
    rel = np.array([r.relative_error for r in records], dtype=np.float64)
    rel = rel[~np.isnan(rel)]
    return {
        "trials": len(records),
        "mean_l2": float(l2.mean()) if l2.size else math.nan,
        "std_l2": float(l2.std()) if l2.size else math.nan,
        "mean_relative_error": float(rel.mean()) if rel.size else math.nan,
        "std_relative_error": float(rel.std()) if rel.size else math.nan,
    }
