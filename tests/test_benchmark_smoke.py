"""The checked-in benchmark still runs and checks its outputs.

benchmarks/tracing.py hooks privtri functions and reads their arguments by
name (share_adjacency's pg and policy, count's n, effective_graph's pg,
project's and project_random's g), so a refactor can break the benchmark
while every other test passes. One traced round of every workload, with no
timed rounds, catches that; cargo-n500 runs the count over eight row
blocks of ring_matmul, cargo-n100 over two, and noise-n2000 is the only
workload that reaches ring.share and DealerRng.element.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cargo-n100", "cargo-n500", "sweep-n2000", "noise-n2000"])
def test_benchmark_traced_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    assert json.loads(lines[-1])["correct"] is True, proc.stderr
    assert proc.returncode == 0
