import math
import warnings

import numpy as np
import pytest

from privtri import (
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    harness,
    load_edge_list,
    run,
    run_cargo,
    run_central,
    run_exact,
    run_project_compare,
    summarize,
)
from conftest import write_lines


def test_budget_split_is_exact():
    for eps in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        cfg = ExperimentConfig(graph_path="unused", epsilon=eps)
        assert cfg.epsilon1 + cfg.epsilon2 == eps
        assert cfg.epsilon1 == 0.1 * eps


def test_config_validation(k4_graph_file):
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, mechanism="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, epsilon=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, epsilon_split=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, trials=0)
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            ExperimentConfig(graph_path=k4_graph_file, workers=workers)
    ExperimentConfig(graph_path=k4_graph_file, workers=1)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, theta_override=(5,))
    with pytest.raises(ValueError):
        ExperimentConfig(graph_path=k4_graph_file, mechanism="project-compare")
    with pytest.raises(ValueError):
        ExperimentConfig(
            graph_path=k4_graph_file, mechanism="project-compare", theta_override=(0,)
        )


@pytest.mark.parametrize("field, value, error", [
    ("seed", -1, ValueError), ("seed", 2.5, TypeError), ("seed", "7", TypeError),
    ("dealer_seed", -1, ValueError), ("dealer_seed", 1.0, TypeError),
    ("theta_override", (2.5,), TypeError), ("theta_override", (10, 0), ValueError),
    ("theta_override", (), ValueError),
])
def test_config_rejects_bad_seeds_and_thetas_before_the_load(tmp_path, field, value, error):
    # the graph file does not exist, so a config that got past its checks
    # would fail on the load with OSError, not with the error named here
    cfg = dict(graph_path=tmp_path / "absent.txt", mechanism="project-compare",
               theta_override=(10,), trials=1)
    with pytest.raises(error, match=field.removesuffix("_override")):
        run(ExperimentConfig(**{**cfg, field: value}))


def test_config_keeps_thetas_as_a_tuple_of_ints(k4_graph_file):
    cfg = ExperimentConfig(graph_path=k4_graph_file, mechanism="project-compare",
                           theta_override=[10, np.int64(20)], seed=np.int64(3))
    assert cfg.theta_override == (10, 20)
    assert all(type(t) is int for t in cfg.theta_override)
    assert hash(cfg) == hash(ExperimentConfig(
        graph_path=k4_graph_file, mechanism="project-compare", theta_override=(10, 20), seed=3,
    ))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_config_rejects_non_finite_epsilon(k4_graph_file, epsilon):
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(graph_path=k4_graph_file, epsilon=epsilon)


def test_cargo_no_noise_limit(k4_graph_file):
    cfg = ExperimentConfig(
        graph_path=k4_graph_file, epsilon=1e9, trials=3, seed=5
    )
    for rec in run_cargo(cfg):
        assert rec.t_true == 4
        assert abs(rec.t_noisy - 4) < 1e-6
        assert rec.l2_loss < 1e-10
        assert rec.t_projected == 4


def test_cargo_reproducible_csv(proxy_graph_file, tmp_path):
    cfg = ExperimentConfig(
        graph_path=proxy_graph_file, n_limit=40, epsilon=2.0,
        trials=3, seed=11, zero_timings=True,
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_cargo(cfg), out1)
    emit_csv(run_cargo(cfg), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_cargo_dealer_seed_moves_masks_not_values(proxy_graph_file):
    base = dict(graph_path=proxy_graph_file, n_limit=40, epsilon=2.0,
                trials=3, seed=11, zero_timings=True)
    rec_a = run_cargo(ExperimentConfig(**base, dealer_seed=100))
    rec_b = run_cargo(ExperimentConfig(**base, dealer_seed=200))
    for a, b in zip(rec_a, rec_b):
        assert a.t_true == b.t_true
        assert a.t_projected == b.t_projected
        assert a.t_noisy == b.t_noisy  # noise stream untouched


def test_cargo_desk_scale_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MAX_CARGO_NODES", 10)
    path = write_lines(tmp_path / "path12.txt", [f"{i} {i + 1}" for i in range(11)])
    with pytest.raises(ValueError, match="allow_large"):
        run_cargo(ExperimentConfig(graph_path=path, trials=1))
    # the guard holds whatever mechanism the config names
    with pytest.raises(ValueError, match="allow_large"):
        run_cargo(ExperimentConfig(graph_path=path, mechanism="exact", trials=1))
    records = run_cargo(ExperimentConfig(graph_path=path, trials=1, allow_large=True))
    assert records[0].t_true == 0
    assert records[0].d_max_true == 2


def test_cargo_guard_refuses_before_the_dense_load(tmp_path, monkeypatch):
    # the loader stops one node past the limit, so an oversized file never
    # becomes a dense n x n graph; a graph within the limit loads unchanged
    monkeypatch.setattr(harness, "MAX_CARGO_NODES", 10)
    loaded = []

    def spy(path, limit_n=None):
        g = load_edge_list(path, limit_n)
        loaded.append(g)
        return g

    monkeypatch.setattr(harness, "load_edge_list", spy)
    path = write_lines(tmp_path / "path100.txt", [f"{i} {i + 1}" for i in range(99)])
    for n_limit in (None, 11, 50):
        with pytest.raises(ValueError, match="allow_large"):
            run_cargo(ExperimentConfig(graph_path=path, n_limit=n_limit, trials=1))
    assert max(g.n for g in loaded) == 11
    small = write_lines(tmp_path / "k4.txt", ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"])
    records = run_cargo(ExperimentConfig(graph_path=small, trials=1))
    assert records[0].t_true == 4
    assert np.array_equal(loaded[-1].adj, load_edge_list(small).adj)


def test_cargo_bad_noise_scale_fails_before_count(k4_graph_file, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("count ran before the noise parameters were checked")

    monkeypatch.setattr(harness, "count", unreachable)
    # theta >= 1 and epsilon2 = 0.9e-4 put the Laplace scale above 10^4
    with pytest.raises(ValueError, match="noise scale"):
        run_cargo(ExperimentConfig(graph_path=k4_graph_file, epsilon=1e-4, trials=1))


def test_allow_large_stops_at_the_ring_limit_before_count(tmp_path, monkeypatch):
    # allow_large lifts the desk-scale limit but not the ring's: a graph of
    # MAX_USERS + 1 = 2346 nodes is refused before any count
    def unreachable(*args, **kwargs):
        raise AssertionError("count ran on a graph the ring cannot hold")

    monkeypatch.setattr(harness, "count", unreachable)
    path = write_lines(tmp_path / "path2346.txt", [f"{i} {i + 1}" for i in range(2345)])
    with pytest.raises(ValueError, match="n_users"):
        run_cargo(ExperimentConfig(graph_path=path, trials=1, allow_large=True))


def test_relative_error_trend_with_epsilon(proxy_graph_file):
    # more budget, less relative error, on average across the grid
    means = []
    for eps in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        cfg = ExperimentConfig(
            graph_path=proxy_graph_file, n_limit=60, epsilon=eps,
            trials=200, seed=29,
        )
        recs = run_cargo(cfg)
        means.append(np.mean([r.relative_error for r in recs]))
    assert all(a > b for a, b in zip(means, means[1:]))


def test_cargo_matches_perturbation_closed_form(proxy_graph_file):
    # on trials whose bound covers the true max degree the projection is
    # lossless, so the l2 loss is pure Laplace noise with variance
    # 2 * (theta / epsilon2)^2
    cfg = ExperimentConfig(
        graph_path=proxy_graph_file, n_limit=100, epsilon=2.0,
        trials=400, seed=17,
    )
    recs = run_cargo(cfg)
    g = load_edge_list(proxy_graph_file, 100)
    lossless = [r for r in recs if round(r.d_max_noisy) >= g.d_max]
    assert len(lossless) > 100
    for r in lossless:
        assert r.t_projected == r.t_true
    mean_l2 = np.mean([r.l2_loss for r in lossless])
    closed = np.mean([2 * (round(r.d_max_noisy) / cfg.epsilon2) ** 2 for r in lossless])
    assert 0.5 < mean_l2 / closed < 1.5  # ~3 standard errors at this depth


def test_count_phase_dominates(proxy_graph_file):
    cfg = ExperimentConfig(
        graph_path=proxy_graph_file, n_limit=300, epsilon=2.0, trials=1, seed=1
    )
    rec = run_cargo(cfg)[0]
    total = rec.time_project_s + rec.time_count_s + rec.time_perturb_s
    assert rec.time_count_s / total >= 0.5


def test_run_exact_and_central(k4_graph_file):
    recs = run_exact(ExperimentConfig(graph_path=k4_graph_file, mechanism="exact", trials=2))
    assert all(r.t_noisy == 4.0 and r.l2_loss == 0.0 for r in recs)
    recs = run_central(ExperimentConfig(
        graph_path=k4_graph_file, mechanism="central", epsilon=1e9, trials=2
    ))
    assert all(abs(r.t_noisy - 4.0) < 1e-6 for r in recs)
    assert all(math.isnan(r.d_max_noisy) for r in recs)


def test_project_compare_no_loss_at_full_theta(proxy_graph_file):
    cfg = ExperimentConfig(
        graph_path=proxy_graph_file, mechanism="project-compare",
        n_limit=100, theta_override=(99,), trials=5, seed=2,
    )
    for rec in run_project_compare(cfg):
        assert rec.l2_loss == 0.0


def test_project_compare_superiority_and_monotone_loss(proxy_graph_file):
    cfg = ExperimentConfig(
        graph_path=proxy_graph_file, mechanism="project-compare",
        n_limit=100, theta_override=(5, 20, 99), trials=30, seed=4,
    )
    recs = run_project_compare(cfg)
    mean_loss = {}
    for method in ("project", "random"):
        for theta in (5, 20, 99):
            sel = [r.l2_loss for r in recs if r.method == method and r.theta == theta]
            assert len(sel) == 30
            mean_loss[method, theta] = np.mean(sel)
    for theta in (5, 20, 99):
        assert mean_loss["project", theta] <= mean_loss["random", theta]
    for method in ("project", "random"):
        assert mean_loss[method, 5] >= mean_loss[method, 20] >= mean_loss[method, 99]


def test_run_dispatch_writes_csv(k4_graph_file, tmp_path):
    out = tmp_path / "out.csv"
    records = run(ExperimentConfig(
        graph_path=k4_graph_file, mechanism="exact", trials=2, output_path=out
    ))
    assert out.exists()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(records)
    assert lines[0].startswith("trial,T_true,T_noisy")


def sample_record(**overrides):
    base = dict(
        trial=0, t_true=10, t_noisy=9.25, l2_loss=0.5625,
        relative_error=0.075, d_max_true=5, d_max_noisy=5.2,
        time_project_s=0.125, time_count_s=1.5, time_perturb_s=0.25,
    )
    base.update(overrides)
    return TrialRecord(**base)


def test_emit_csv_shapes(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text() == ",".join(
        ["trial", "T_true", "T_noisy", "l2_loss", "relative_error",
         "d_max_true", "d_max_noisy", "time_project_s", "time_count_s",
         "time_perturb_s"]
    ) + "\n"
    out2 = tmp_path / "one.csv"
    emit_csv([sample_record()], out2)
    assert len(out2.read_text().splitlines()) == 2


def test_emit_csv_roundtrip(tmp_path):
    rec = sample_record(t_noisy=9.123456789012345, d_max_noisy=float("nan"))
    out = tmp_path / "rt.csv"
    emit_csv([rec], out)
    header, row = out.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["T_noisy"]) == rec.t_noisy
    assert math.isnan(float(fields["d_max_noisy"]))
    assert int(fields["trial"]) == 0


def test_emit_csv_sweep_columns(tmp_path):
    rec = sample_record(theta=10, method="project")
    out = tmp_path / "sweep.csv"
    emit_csv([rec], out)
    header, row = out.read_text().splitlines()
    assert header.endswith("theta,method")
    assert row.endswith("10,project")


def test_summarize_handles_nan_relative_error():
    recs = [sample_record(), sample_record(relative_error=float("nan"))]
    stats = summarize(recs)
    assert stats["trials"] == 2
    assert stats["mean_relative_error"] == 0.075


def test_summarize_triangle_free_graph_is_nan_without_warnings(tmp_path):
    path = write_lines(tmp_path / "path.txt", ["0 1", "1 2", "2 3"])
    records = run(ExperimentConfig(graph_path=path, mechanism="central", trials=2, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = summarize(records)
    assert stats["trials"] == 2 and math.isfinite(stats["mean_l2"])
    assert math.isnan(stats["mean_relative_error"]) and math.isnan(stats["std_relative_error"])
