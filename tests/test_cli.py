import argparse
import re
from pathlib import Path

import pytest

from privtri.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_cli_guard_refuses_large_cargo(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(2000)) + "\n")
    code = main(["run", "--graph", str(path), "--trials", "1"])
    assert code == 1
    assert "allow_large" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["--seed", "--dealer-seed"])
def test_cli_names_a_negative_seed(k4_graph_file, flag, capsys):
    code = main(["run", "--graph", str(k4_graph_file), "--mechanism", "exact", flag, "-1"])
    assert code == 1
    name = flag.removeprefix("--").replace("-", "_")
    assert f"error: {name} must be a non-negative integer, got -1" in capsys.readouterr().err


def test_cli_rejects_removed_bit_policy_flag(k4_graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--graph", str(k4_graph_file), "--bit-policy", "and"])
    assert exc.value.code == 2


def test_readme_synopsis_lists_every_run_flag():
    # the README's `privtri run` synopsis block must name exactly the parser's flags
    synopsis = re.search(r"```sh\n(privtri run .*?)```", README.read_text(), re.S)
    documented = set(re.findall(r"--[a-z][a-z-]*", synopsis.group(1)))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    offered = {opt for action in sub.choices["run"]._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == offered - {"--help"}
