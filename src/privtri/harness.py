"""Experiment orchestration: end-to-end pipeline runs, metrics, CSV output.

A run is fully determined by its config, including the master seed: every
trial derives its own noise and dealer substreams from (seed, trial), so a
trial's record does not depend on how many trials the run has.

Mechanisms:
  cargo            private max degree -> projection -> secret-shared
                   counting -> distributed perturbation
  central          trusted-server discrete Laplace baseline at the full budget
  exact            plain count, no privacy (ground-truth timing reference)
  project-compare  projection-only loss sweep, similarity vs random,
                   at explicit theta values and with noiseless degrees
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import central_lap
from .graph import Graph, check_int, exact_triangle_count, load_edge_list
from .perturbation import NoiseParams, check_scale, perturb
from .projection import max_private, project, project_random
from .ring import MAX_USERS, RING_BITS, DealerRng, reconstruct
from .secure_count import count, effective_graph, share_adjacency

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
    # trials run in one process; kept only until the benchmark stops passing it
    workers: int = 1
    zero_timings: bool = False

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.epsilon_split < 1:
            raise ValueError("epsilon_split must be in (0, 1)")
        # integer fields are checked before the graph is loaded; the seed
        # feeds np.random.SeedSequence, which takes only non-negative integers
        check_int("trials", self.trials, 1)
        if self.n_limit is not None:
            check_int("n_limit", self.n_limit, 1)
        if self.workers != 1:
            raise ValueError("trials run in one process; workers must be 1")
        check_int("seed", self.seed, 0)
        if self.theta_override is not None:
            if self.mechanism != "project-compare":
                raise ValueError("theta override applies to project-compare only")
            thetas = tuple(check_int("theta", t, 1) for t in self.theta_override)
            object.__setattr__(self, "theta_override", thetas)
        if self.mechanism == "project-compare" and not self.theta_override:
            raise ValueError("project-compare needs explicit theta values")
        if self.mechanism == "cargo":
            # before the load: the degrees' scale 1 / epsilon1, and 1 / epsilon2,
            # from 2^31 on which NoiseParams refuses theta / epsilon2 for any theta
            check_scale(1 / self.epsilon1 if self.epsilon1 else math.inf)
            if not 1 / self.epsilon2 < 1 << (RING_BITS - 1):
                raise ValueError(f"noise scale {1 / self.epsilon2} leaves no room in Z_2^32")

    @property
    def epsilon1(self) -> float:
        return self.epsilon_split * self.epsilon

    @property
    def epsilon2(self) -> float:
        # epsilon - epsilon1 rather than (1 - split) * epsilon, so the
        # budget identity epsilon1 + epsilon2 == epsilon holds exactly
        return self.epsilon - self.epsilon1


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """What one trial measured. Its two error metrics, l2_loss and
    relative_error, are derived from t_true and t_noisy on each read and
    not stored; the CSV writes them as columns all the same."""

    trial: int
    t_true: int
    t_noisy: float
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

    @property
    def l2_loss(self) -> float:
        return (self.t_true - self.t_noisy) ** 2

    @property
    def relative_error(self) -> float:
        """|t_true - t_noisy| / t_true; NaN for a graph with no triangle."""
        t_true, t_noisy = self.t_true, self.t_noisy
        return abs(t_true - t_noisy) / t_true if t_true > 0 else math.nan


# unannotated: naming np.random.Generator at import would load numpy.random,
# about 6 MB, in every process that imports privtri
def _rng(cfg: ExperimentConfig, *path: int):
    seq = np.random.SeedSequence([cfg.seed, *path])
    return np.random.Generator(np.random.PCG64(seq))


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
    """One trial's record: counts, degrees, and (project, count, perturb) times.

    The error metrics are not passed: TrialRecord derives them from t_true
    and t_noisy.

    Timings are written as 0.0 under cfg.zero_timings, so records and CSVs
    depend only on the config.
    """
    if cfg.zero_timings:
        times = (0.0, 0.0, 0.0)
    return TrialRecord(
        trial=trial,
        t_true=t_true,
        t_noisy=t_noisy,
        d_max_true=g.d_max,
        d_max_noisy=d_max_noisy,
        time_project_s=times[0],
        time_count_s=times[1],
        time_perturb_s=times[2],
        **extra,
    )


def _cargo_trial(g: Graph, t_true: int, cfg: ExperimentConfig, trial: int) -> TrialRecord:
    noise_rng = _rng(cfg, trial, _NOISE_STREAM)
    dealer = DealerRng(cfg.seed, trial, _DEALER_STREAM)

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
        d_max_noisy=float(noisy.max()), t_projected=reconstruct(t_shares),
    )


def run_cargo(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Full pipeline, cfg.trials times with per-trial derived seeds.

    The graph is loaded up to MAX_USERS + 1 nodes, whatever cfg.n_limit
    asks, so a graph the ring cannot count is refused before the oracle
    and before any dense work.
    """
    g = load_edge_list(cfg.graph_path, min(cfg.n_limit or MAX_USERS + 1, MAX_USERS + 1))
    if g.n > MAX_USERS:
        raise ValueError(
            f"more than {MAX_USERS} nodes: a larger triangle count does not "
            "fit Z_2^32; cut the graph with n_limit (--n)"
        )
    t_true = exact_triangle_count(g)
    return [_cargo_trial(g, t_true, cfg, trial) for trial in range(cfg.trials)]


def run_central(cfg: ExperimentConfig) -> list[TrialRecord]:
    g = load_edge_list(cfg.graph_path, cfg.n_limit)
    check_scale(g.d_max / cfg.epsilon)  # before the oracle, not in trial 0's draw
    t_true = exact_triangle_count(g)
    records = []
    for trial in range(cfg.trials):
        rng = _rng(cfg, trial, _NOISE_STREAM)
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
    records = []
    for theta in cfg.theta_override:
        for trial in range(cfg.trials):
            rng = _rng(cfg, trial, _PROJECT_STREAM, theta)
            for method in ("project", "random"):
                t0 = time.perf_counter()
                if method == "project":
                    pg = project(g, g.degrees, theta=theta)
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


MECHANISMS = {
    "cargo": run_cargo,
    "central": run_central,
    "exact": run_exact,
    "project-compare": run_project_compare,
}


def run(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Dispatch on mechanism; write CSV when an output path is set."""
    records = MECHANISMS[cfg.mechanism](cfg)
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
