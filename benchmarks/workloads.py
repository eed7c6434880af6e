"""The four workloads: their input, one round of operations, and its checks.

Every workload reads the deterministic clique_hub_proxy graph, written to
an edge list and loaded back, so the program sees only that file and an
ExperimentConfig (or, for the noise workload, count shares and
NoiseParams). The workload seed goes into the config's seed or the noise
generator; the graph itself does not depend on it.

A round is a fixed list of operations; its outputs are checked against
the oracles in oracles.py or against properties they must have. The
traced round additionally checks, through tracer hooks, every projection
the program makes and the exact pre-noise count of every graph it counts.
"""

import math
import statistics
from dataclasses import fields, replace

import numpy as np

from oracles import CLIQUE, HUB_REACH, PROXY_N, proxy_hub_degree, proxy_triangles, trace_triangles
from privtri import graph, harness, perturbation, ring, synth

EPSILON = 2.0
SWEEP_THETAS = (10, 50, 100, 200)
NOISE_BATCH = 1000
NOISE_MIN_DRAWS = 10_000
NOISE_TOLERANCE = 0.10
FIXED_POINT_SCALE = 1 << 20


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's oracles."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def record_key(rec) -> str:
    """A record with every timing field zeroed, as comparable text (NaN-safe)."""
    zeroed = {f.name: 0.0 for f in fields(rec) if f.name.startswith("time_")}
    return repr(replace(rec, **zeroed))


class Workload:
    """One input size and one kind of round; subclasses define the round."""

    n = PROXY_N
    min_rounds = 3

    def __init__(self, path, seed: int):
        self.path = str(path)
        self.seed = seed
        self.t_true = None
        self.expected: list[int] = []  # independent counts seen in the traced round

    def setup(self):
        """Build and write the input, load it, compute the reference count."""
        synth.write_edge_list(synth.clique_hub_proxy(PROXY_N, CLIQUE, HUB_REACH), self.path)
        g = graph.load_edge_list(self.path, self.n)
        return g, graph.exact_triangle_count(g)

    def bind(self, g, t_true: int) -> None:
        check(g.n == self.n, f"loaded {g.n} nodes, expected {self.n}")
        check(t_true == proxy_triangles(self.n),
              f"reference count {t_true} != closed form {proxy_triangles(self.n)}")
        check(trace_triangles(g.adj) == t_true, "reference count != trace(A^3)/6")
        self.t_true = t_true

    def add_hooks(self, tracer) -> None:
        tracer.add_hook("projection.project", _check_projection)
        tracer.add_hook("projection.project_random", _check_projection)

    def round(self, k: int) -> list:
        raise NotImplementedError

    def keys(self, out: list) -> list[str]:
        return [record_key(r) for r in out]

    def check_round(self, out: list) -> None:
        raise NotImplementedError

    def check_repeats(self, out: list, traced: list) -> None:
        check(self.keys(out) == self.keys(traced),
              "untraced round 0 differs from the traced round")

    def check_traced(self, out: list) -> None:
        counted = [r.t_projected for r in out]
        check(counted == self.expected,
              f"pre-noise counts {counted} != independent counts {self.expected}")

    def finish(self, outs: list[list]) -> None:
        """Checks over the outputs of every timed round."""


def _check_projection(tracer, args, pg) -> None:
    src = args["g"].adj
    check(not np.any(pg.adj > src), "a projected row gained a neighbour")
    check(int(pg.adj.sum(axis=1).max()) <= pg.theta, f"a projected row exceeds theta={pg.theta}")


def _and_bits(adj: np.ndarray) -> np.ndarray:
    """The 'and' bit policy: keep a pair only if both rows kept it."""
    eff = adj & adj.T
    np.fill_diagonal(eff, 0)
    return eff


class Cargo(Workload):
    """harness.run_cargo, workers=1: one round is one call of `trials` trials."""

    def __init__(self, path, seed: int, n: int, trials: int):
        super().__init__(path, seed)
        self.n = n
        self.cfg = harness.ExperimentConfig(
            graph_path=self.path, mechanism="cargo", epsilon=EPSILON,
            n_limit=n, trials=trials, seed=seed, workers=1,
        )

    def add_hooks(self, tracer) -> None:
        super().add_hooks(tracer)
        tracer.add_hook("secure_count.share_adjacency", self._count_shared)

    def _count_shared(self, tracer, args, sa) -> None:
        check(args["policy"] == "and", f"unexpected bit policy {args['policy']!r}")
        self.expected.append(trace_triangles(_and_bits(args["pg"].adj)))

    def round(self, k: int) -> list:
        return harness.run_cargo(self.cfg)

    def check_round(self, out: list) -> None:
        check([r.trial for r in out] == list(range(self.cfg.trials)), "missing trials")
        d_max = proxy_hub_degree(self.n)
        for r in out:
            check(r.t_true == self.t_true, f"t_true {r.t_true} != {self.t_true}")
            check(r.d_max_true == d_max, f"d_max_true {r.d_max_true} != {d_max}")
            # only the hub's row can be truncated while theta >= every other
            # degree, and each hub edge it drops closes at most CLIQUE - 1 triangles
            theta = max(int(round(r.d_max_noisy)), 1)
            low = r.t_true - (CLIQUE - 1) * max(0, d_max - theta) if theta >= CLIQUE else 0
            check(low <= r.t_projected <= r.t_true,
                  f"trial {r.trial}: count {r.t_projected} outside [{low}, {r.t_true}]")
            check(float(r.t_noisy * FIXED_POINT_SCALE).is_integer(),
                  f"trial {r.trial}: noisy count off the fixed-point grid")


class Sweep(Workload):
    """harness.run_project_compare on the full proxy, one trial per theta."""

    def __init__(self, path, seed: int):
        super().__init__(path, seed)
        self.cfg = harness.ExperimentConfig(
            graph_path=self.path, mechanism="project-compare", epsilon=EPSILON,
            n_limit=self.n, theta_override=SWEEP_THETAS, trials=1, seed=seed,
        )

    def add_hooks(self, tracer) -> None:
        super().add_hooks(tracer)
        tracer.add_hook("secure_count.effective_graph", self._count_effective)

    def _count_effective(self, tracer, args, eg) -> None:
        check(np.array_equal(eg.adj, _and_bits(args["pg"].adj)), "effective graph != 'and' bits")
        self.expected.append(trace_triangles(eg.adj))

    def round(self, k: int) -> list:
        return harness.run_project_compare(self.cfg)

    def check_round(self, out: list) -> None:
        cells = sorted((r.theta, r.method) for r in out)
        check(cells == sorted((t, m) for t in SWEEP_THETAS for m in ("project", "random")),
              f"records cover {cells}, not one per (theta, method)")
        for r in out:
            check(r.t_true == self.t_true, f"t_true {r.t_true} != {self.t_true}")
            check(r.t_noisy == r.t_projected <= r.t_true,
                  f"theta={r.theta} {r.method}: t_hat {r.t_projected} > t_true")


class Noise(Workload):
    """perturbation.perturb of fixed count shares, NOISE_BATCH calls a round.

    Scale is theta / eps2 with theta the proxy's maximum degree and eps2
    the perturbation budget of the cargo workloads; round k draws from its
    own generator, so round 0 repeats exactly.
    """

    min_rounds = NOISE_MIN_DRAWS // NOISE_BATCH

    def bind(self, g, t_true: int) -> None:
        super().bind(g, t_true)
        eps2 = harness.ExperimentConfig(graph_path=self.path, epsilon=EPSILON).epsilon2
        self.params = perturbation.NoiseParams(
            epsilon2=eps2, sensitivity=float(g.d_max), n_users=g.n
        )
        self.shares = ring.share(t_true, ring.DealerRng(self.seed, 0))

    def round(self, k: int) -> list:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 3, k])))
        return [perturbation.perturb(self.shares, self.params, rng) for _ in range(NOISE_BATCH)]

    def keys(self, out: list) -> list[str]:
        return [repr(v) for v in out]

    def check_round(self, out: list) -> None:
        for v in out:
            check(math.isfinite(v) and float(v * FIXED_POINT_SCALE).is_integer(),
                  f"noisy count {v!r} off the fixed-point grid")

    def check_traced(self, out: list) -> None:
        """No count is made here; the traced round is compared to round 0."""

    def finish(self, outs: list[list]) -> None:
        noise = [v - self.t_true for out in outs for v in out]
        check(len(noise) >= NOISE_MIN_DRAWS, f"only {len(noise)} draws")
        want = 2 * self.params.scale**2
        got = statistics.fmean(x * x for x in noise)
        check(abs(got / want - 1) <= NOISE_TOLERANCE,
              f"mean squared noise {got:.1f} vs 2*(theta/eps2)^2 = {want:.1f}")


WORKLOADS = {
    "cargo-n500": lambda path, seed: Cargo(path, seed, n=500, trials=1),
    "cargo-n100": lambda path, seed: Cargo(path, seed, n=100, trials=25),
    "sweep-n2000": Sweep,
    "noise-n2000": Noise,
}
