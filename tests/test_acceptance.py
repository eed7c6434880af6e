"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one ACCEPTANCE <n> PASS/FAIL line (visible with -s, or in
the captured output on failure). Criteria that call for a large social
graph use the deterministic clique-plus-hub stand-in unless a real SNAP
edge list is present (see conftest.facebook_path).
"""

import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from scipy import stats

from privtri import (
    DealerRng,
    ExperimentConfig,
    NoiseParams,
    OpeningChannel,
    emit_csv,
    exact_triangle_count,
    load_edge_list,
    max_private,
    project,
    reconstruct,
    run_cargo,
    run_central,
    run_project_compare,
    share_adjacency,
)
from privtri.projection import effective_theta
from privtri.ring import MAX_USERS
from privtri.secure_count import SharedAdjacency, count

from conftest import (
    as_projected,
    cargo_under_two_dealers,
    erdos_renyi,
    facebook_path,
    noise_sums,
    rng_for,
    write_path,
)

# two-sample Kolmogorov-Smirnov critical coefficient at the 1% level
KS_COEFF_1PCT = 1.62762


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


def test_criterion_1_three_way_product_oracle():
    with criterion(1, "three-way share product matches plain products"):
        # at n = 3 the count is the product of the three pair values
        # u01 * u02 * u12, so the secrets ride in as shared pair vectors
        start = time.perf_counter()
        rng = DealerRng(101)
        bits = np.array(list(product((0, 1), repeat=3)), dtype=np.uint32).T
        uniform = rng.elements((3, 10_000))
        secrets = np.concatenate((np.repeat(bits, 100, axis=1), uniform), axis=1)
        masks = rng.elements(secrets.shape)
        shares = secrets - masks
        channel = OpeningChannel()
        for col, (a, b, c) in enumerate(secrets.T.tolist()):
            sa = SharedAdjacency(3, masks[:, col], shares[:, col])
            t = count(sa, 3, rng, channel)
            assert max(t) <= 0xFFFFFFFF
            assert reconstruct(t) == (a * b * c) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_secure_count_oracle_equivalence():
    with criterion(2, "secure count equals the exact oracle on every graph"):
        start = time.perf_counter()
        graph_rng = rng_for(1405)
        cases = [(30, 0.2)] * 50 + [(60, 0.1)] * 20
        for idx, (n, p) in enumerate(cases):
            g = erdos_renyi(n, p, graph_rng)
            sa = share_adjacency(as_projected(g), DealerRng(500 + idx, 0))
            got = reconstruct(count(sa, g.n, DealerRng(500 + idx, 1)))
            assert got == exact_triangle_count(g)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_aggregated_noise_is_laplace():
    with criterion(3, "n-user aggregated noise matches direct discrete Laplace"):
        n_samples = 10**4
        crit = KS_COEFF_1PCT * np.sqrt(2 / n_samples)
        for n_users in (10, 1000):
            for lam in (1.0, 50.0):
                params = NoiseParams(epsilon2=1.0, sensitivity=lam, n_users=n_users)
                agg = noise_sums(params, rng_for([3307, n_users, int(lam)]), n_samples)
                law = stats.dlaplace(1 / lam)
                direct = law.rvs(n_samples, random_state=rng_for([3308, n_users, int(lam)]))
                ks = stats.ks_2samp(agg, direct).statistic
                assert ks < crit, f"n={n_users} lam={lam}: KS {ks:.4f} >= {crit:.4f}"
                var = agg.var()
                assert abs(var - law.var()) < 0.05 * law.var(), (
                    f"n={n_users} lam={lam}: var {var:.3f} vs {law.var():.3f}"
                )


def test_criterion_4_perturbation_error_closed_form(proxy_graph_file):
    with criterion(4, "mean l2 loss is 2*(theta/eps2)^2 under lossless projection"):
        g = load_edge_list(proxy_graph_file, 100)
        epsilon, split = 2.0, 0.1
        eps1 = split * epsilon
        eps2 = epsilon - eps1
        # first master seed whose noisy bound covers the true max keeps the
        # projection lossless, as the criterion requires
        for seed in range(100):
            noisy = max_private(g.degrees, eps1, rng_for([4401, seed]))
            if effective_theta(noisy) >= g.d_max:
                break
        theta = effective_theta(noisy)
        assert theta >= g.d_max
        pg = project(g, noisy)
        t_true = exact_triangle_count(g)
        t_shares = count(share_adjacency(pg, DealerRng(4402, 0)), g.n, DealerRng(4402, 1))
        assert reconstruct(t_shares) == t_true

        params = NoiseParams(epsilon2=eps2, sensitivity=float(theta), n_users=g.n)
        losses = noise_sums(params, rng_for(4403), 10**5).astype(np.float64) ** 2
        expected = 2 * (theta / eps2) ** 2
        assert abs(losses.mean() - expected) < 0.05 * expected, (
            f"mean l2 {losses.mean():.1f} vs closed form {expected:.1f}"
        )


def test_criterion_5_private_max_degree_accuracy(proxy_graph_file):
    with criterion(5, "noisy max degree within 5% of true in >=95% of runs"):
        real = facebook_path()
        path = real if real is not None else proxy_graph_file
        g = load_edge_list(path, 2000)
        d_max = g.d_max
        for eps in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            eps1 = 0.1 * eps
            rng = rng_for([5501, int(eps * 10)])
            hits = 0
            for _ in range(100):
                noisy = max_private(g.degrees, eps1, rng)
                if abs(noisy.max() - d_max) / d_max < 0.05:
                    hits += 1
            assert hits >= 95, f"eps={eps}: only {hits}/100 within 5%"


def test_criterion_6_projection_superiority(proxy_graph_file, planted_graph_file):
    with criterion(6, "similarity projection loses no more than random deletion"):
        planted = run_project_compare(ExperimentConfig(
            graph_path=planted_graph_file, mechanism="project-compare",
            theta_override=(5,), trials=1000, seed=6601,
        ))
        mean = {
            m: np.mean([r.l2_loss for r in planted if r.method == m])
            for m in ("project", "random")
        }
        assert mean["project"] <= mean["random"]

        thetas = (10, 50, 100, 200)
        sweep = run_project_compare(ExperimentConfig(
            graph_path=proxy_graph_file, mechanism="project-compare",
            n_limit=500, theta_override=thetas, trials=30, seed=6602,
        ))
        for theta in thetas:
            by = {
                m: np.mean([
                    r.l2_loss for r in sweep if r.method == m and r.theta == theta
                ])
                for m in ("project", "random")
            }
            assert by["project"] <= by["random"], f"theta={theta}: {by}"


def test_criterion_7_utility_gap_band(proxy_graph_file):
    with criterion(7, "full pipeline within 4x of the trusted-server baseline"):
        cargo = run_cargo(ExperimentConfig(
            graph_path=proxy_graph_file, mechanism="cargo", n_limit=500,
            epsilon=2.0, trials=200, seed=7701,
        ))
        central = run_central(ExperimentConfig(
            graph_path=proxy_graph_file, mechanism="central", n_limit=500,
            epsilon=2.0, trials=200, seed=7702,
        ))
        t_true = cargo[0].t_true
        assert t_true > 10**4
        mean_cargo = np.mean([r.l2_loss for r in cargo])
        mean_central = np.mean([r.l2_loss for r in central])
        ratio = mean_cargo / mean_central
        assert ratio <= 4.0, f"loss ratio {ratio:.2f}"
        mean_rel = np.mean([r.relative_error for r in cargo])
        assert mean_rel < 0.1, f"relative error {mean_rel:.4f}"


def test_criterion_8_determinism(proxy_graph_file, tmp_path, monkeypatch):
    with criterion(8, "seeded runs are bit-reproducible; masks never move values"):
        cfg = ExperimentConfig(
            graph_path=proxy_graph_file, mechanism="cargo", n_limit=60,
            epsilon=2.0, trials=3, seed=8801, zero_timings=True,
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_cargo(cfg), out_a)
        emit_csv(run_cargo(cfg), out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

        # another dealer deals other masks, and the values do not move
        (rec_a, rec_b), (s1_a, s1_b) = cargo_under_two_dealers(monkeypatch, cfg)
        assert not any(np.array_equal(a, b) for a, b in zip(s1_a, s1_b, strict=True))
        for field in ("t_true", "t_projected", "t_noisy"):
            assert [getattr(r, field) for r in rec_a] == [getattr(r, field) for r in rec_b]


def test_criterion_9_full_scale_out_of_scope(tmp_path, cargo_calls):
    with criterion(9, "graphs over the ring's MAX_USERS refused before any count"):
        # graphs at published-benchmark sizes would need O(n^3) BLAS flops
        # on (n, n) shared matrices and O(n^2) openings per count, plus an
        # external comparator; the desk-scale suite substitutes oracle
        # equivalence and closed-form noise checks. A count over more than
        # MAX_USERS = 2345 users does not fit Z_2^32, so the runner refuses
        # such a graph while loading it, before the oracle and the count
        path = write_path(tmp_path / "big.txt", MAX_USERS + 1)
        with pytest.raises(ValueError, match="more than 2345 nodes"):
            run_cargo(ExperimentConfig(graph_path=path, mechanism="cargo", trials=1))
        assert cargo_calls["oracle"] == cargo_calls["count"] == []
