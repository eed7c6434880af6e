"""The checked-in benchmark still runs and checks its outputs.

benchmarks/tracing.py hooks privtri functions and reads their arguments by
name (share_adjacency's pg and policy, count's n, effective_graph's pg,
project's and project_random's g), and its hooks and checks read the
dense matrices g.adj and pg.adj by name too, so a refactor can break the
benchmark while every other test passes. One traced round of every workload, with no
timed rounds, catches that. cargo-n500 and cargo-n100 run the count, each
of its two ring_square calls on a 500 or 100 node workspace, and
noise-n2000 is the only workload that reaches ring.share.

The benchmark writes its results next to itself, so it runs from a copy of
benchmarks/, BENCHMARK.json and src/, and the checkout's own results stay
as the last real run left them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout_copy(tmp_path_factory) -> Path:
    copy = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("results", "__pycache__", "*.egg-info")
    for name in ("benchmarks", "src"):
        shutil.copytree(ROOT / name, copy / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    return copy


@pytest.mark.parametrize("workload", ["cargo-n100", "cargo-n500", "sweep-n2000", "noise-n2000"])
def test_benchmark_traced_round_is_correct(workload, checkout_copy):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=checkout_copy, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    assert json.loads(lines[-1])["correct"] is True, proc.stderr
    assert proc.returncode == 0


def test_import_leaves_numpy_random_unloaded():
    # every workload's peak_rss_mb includes what importing privtri loads;
    # numpy imports numpy.random lazily, and its 5-6 MB would move
    # noise-n2000's peak past its bound with no change at run time
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import privtri; "
        "print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
