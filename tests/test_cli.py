import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from privtri import ExperimentConfig
from privtri.cli import build_parser, main
from privtri.ring import MAX_USERS

from conftest import write_path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_parser() -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]


def test_cli_exact_run(k4_graph_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([
        "run", "--graph", str(k4_graph_file), "--mechanism", "exact",
        "--trials", "2", "--output", str(out),
    ])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "mean_l2=0" in captured.out
    assert "wrote 2 rows" in captured.out


def test_cli_cargo_end_to_end(k4_graph_file, tmp_path, capsys):
    out = tmp_path / "cargo.csv"
    code = main([
        "run", "--graph", str(k4_graph_file), "--mechanism", "cargo",
        "--epsilon", "1000000000", "--trials", "2", "--seed", "9",
        "--output", str(out), "--zero-timings",
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "4"  # T_true of K4


def test_cli_reproducible_output(k4_graph_file, tmp_path):
    args = lambda path: [
        "run", "--graph", str(k4_graph_file), "--mechanism", "cargo",
        "--epsilon", "2", "--trials", "3", "--seed", "4",
        "--zero-timings", "--output", str(path),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args(a)) == 0
    assert main(args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_project_compare_theta_parsing(proxy_graph_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "run", "--graph", str(proxy_graph_file), "--mechanism", "project-compare",
        "--n", "100", "--theta", "20,99", "--trials", "2",
        "--output", str(out), "--zero-timings",
    ])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith("theta,method")


def test_cli_missing_file_fails(tmp_path, capsys):
    code = main(["run", "--graph", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mechanism, epsilon", [("central", "nan"), ("cargo", "inf")])
def test_cli_rejects_non_finite_epsilon(k4_graph_file, tmp_path, capsys, mechanism, epsilon):
    # either budget would release the exact count, with no noise added
    out = tmp_path / "out.csv"
    code = main([
        "run", "--graph", str(k4_graph_file), "--mechanism", mechanism,
        "--epsilon", epsilon, "--output", str(out),
    ])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_names_a_noise_scale_out_of_range(k4_graph_file, capsys):
    # d_max 3 at epsilon 1e-18: a central scale of 3e18, past what the
    # noise kernel can draw
    code = main(["run", "--graph", str(k4_graph_file), "--mechanism", "central",
                 "--epsilon", "1e-18"])
    assert code == 1
    assert "error: noise scale 3e+18 is too large" in capsys.readouterr().err


def test_cli_run_defaults_are_the_config_defaults(k4_graph_file, monkeypatch):
    # the parser sets no default of its own: a bare run builds exactly the
    # config of its graph path
    built = []

    def stop(cfg):
        built.append(cfg)
        raise ValueError("stop")

    monkeypatch.setattr("privtri.cli.run", stop)
    assert main(["run", "--graph", str(k4_graph_file)]) == 1
    assert built == [ExperimentConfig(graph_path=str(k4_graph_file))]


def test_cli_guard_refuses_large_cargo(tmp_path, capsys, cargo_calls):
    # a file over MAX_USERS = 2345 nodes is refused before the oracle and
    # the count, whatever --n asks; the error says how to cut the graph
    path = write_path(tmp_path / "big.txt", MAX_USERS + 1)
    for n in ([], ["--n", str(MAX_USERS + 1)], ["--n", str(10**6)]):
        code = main(["run", "--graph", str(path), "--trials", "1", *n])
        assert code == 1
        err = capsys.readouterr().err
        assert "more than 2345 nodes" in err and "--n" in err
    assert [g.n for g in cargo_calls["load"]] == [MAX_USERS + 1] * 3
    assert cargo_calls["oracle"] == cargo_calls["count"] == []


def test_cli_rejects_unknown_mechanism(k4_graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--graph", str(k4_graph_file), "--mechanism", "banana"])
    assert exc.value.code == 2


def test_cli_rejects_bad_theta(k4_graph_file):
    with pytest.raises(SystemExit):
        main([
            "run", "--graph", str(k4_graph_file), "--mechanism",
            "project-compare", "--theta", "ten",
        ])


@pytest.mark.parametrize("thetas", ["5,,20", "5,", ",5", ",", ""])
def test_cli_refuses_empty_theta_items(k4_graph_file, thetas, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--graph", str(k4_graph_file), "--mechanism",
            "project-compare", "--theta", thetas,
        ])
    assert exc.value.code == 2
    assert f"bad theta list {thetas!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed"])
def test_cli_names_a_negative_seed(k4_graph_file, flag, capsys):
    code = main(["run", "--graph", str(k4_graph_file), "--mechanism", "exact", flag, "-1"])
    assert code == 1
    name = flag.removeprefix("--").replace("-", "_")
    assert f"error: {name} must be a non-negative integer, got -1" in capsys.readouterr().err


def test_cli_rejects_removed_bit_policy_flag(k4_graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--graph", str(k4_graph_file), "--bit-policy", "and"])
    assert exc.value.code == 2


def test_cli_rejects_removed_dealer_seed_flag(k4_graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--graph", str(k4_graph_file), "--dealer-seed", "1"])
    assert exc.value.code == 2


def test_cli_flags_are_the_config_fields():
    # main builds ExperimentConfig straight from the parsed options, so
    # each option is stored under the name of its config field
    dests = {action.dest for action in run_parser()._actions} - {"help"}
    assert dests == {f.name for f in fields(ExperimentConfig)} - {"workers"}


def test_readme_synopsis_lists_every_run_flag():
    # the README's `privtri run` synopsis block must name exactly the parser's flags
    synopsis = re.search(r"```sh\n(privtri run .*?)```", README.read_text(), re.S)
    documented = set(re.findall(r"--[a-z][a-z-]*", synopsis.group(1)))
    offered = {opt for action in run_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == offered - {"--help"}
