"""Benchmark of the privtri pipeline: one workload per process.

    python3 benchmarks/run.py --workload cargo-n500 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; privtri is imported from its src/
directory, never from an installed copy. A run

1. sets up (builds and writes the proxy edge list, loads it, counts its
   triangles) and checks the count against two independent oracles;
2. runs one round under the tracer, checking every projection and every
   counted graph against the independent counter;
3. runs untraced rounds for --seconds (at least the workload's minimum),
   checks each, and requires round 0 to repeat the traced round's records
   with timings zeroed.

ops_per_s is the operations of all timed rounds over their summed wall
time. setup_s is the median of SETUP_REPEATS set-ups: step 1, then one
after the first round that ends past each of SETUP_REPEATS - 1 evenly
spaced marks of the timed phase, then any still missing at the end.
The speed of a shared host changes
over seconds, and a total over the run, like set-ups spread over it,
follows the share of the run spent at each speed rather than jumping
between speeds the way a median of rounds does.

The last line of stdout is one JSON object: correct, attempted, failed,
and the end-to-end metrics (--trace 0) or the per-layer metrics from the
traced round (--trace 1), named and with the units BENCHMARK.json gives.
The full result, with the environment and the traced spans, is written to
benchmarks/results/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Put the checkout's src/ first on sys.path and import privtri from it."""
    if not (SRC / "privtri" / "__init__.py").is_file():
        sys.exit(f"error: no privtri sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import privtri

    if Path(privtri.__file__).resolve().parent != (SRC / "privtri").resolve():
        sys.exit(f"error: privtri was imported from {privtri.__file__}, not {SRC}")


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit(),
        "host": platform.node(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }


def measure(wl, seconds: float, tracer) -> dict:
    """Set up, run the traced round, then the timed rounds; see the module docstring."""
    setup_times = []

    def setup():
        t0 = time.perf_counter()
        g, t_true = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        return g, t_true

    wl.bind(*setup())

    wl.add_hooks(tracer)
    with tracer.installed():
        wl.setup()
        first_span = len(tracer.spans)
        t0 = time.perf_counter()
        traced = wl.round(0)
        traced_wall = time.perf_counter() - t0 - tracer.hook_seconds(first_span)
    wl.check_round(traced)
    wl.check_traced(traced)
    attempted = len(traced)

    walls, outs = [], []
    setup_marks = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
    start = time.perf_counter()
    while len(walls) < wl.min_rounds or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        k = len(walls)
        t0 = time.perf_counter()
        out = wl.round(k)
        wall = time.perf_counter() - t0
        attempted += len(out)
        wl.check_round(out)
        if k == 0:
            wl.check_repeats(out, traced)
        walls.append(wall)
        outs.append(out)
        if len(setup_times) < SETUP_REPEATS and (
            time.perf_counter() - start >= setup_marks[len(setup_times) - 1]
        ):
            setup()
    while len(setup_times) < SETUP_REPEATS:
        setup()
    wl.finish(outs)

    metrics = {
        "ops_per_s": sum(len(o) for o in outs) / sum(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(tracer.layer_metrics())
    metrics["bench.trace_overhead_pct"] = 100 * (traced_wall / statistics.median(walls) - 1)
    return {
        "attempted": attempted,
        "metrics": metrics,
        "setup_times_s": setup_times,
        "round_walls_s": walls,
        "ops_per_round": [len(o) for o in outs],
        "traced_round_wall_s": traced_wall,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed

    RESULTS.mkdir(exist_ok=True)
    input_path = RESULTS / f"input-{os.getpid()}.txt"
    wl = WORKLOADS[args.workload](input_path, args.seed)
    tracer = Tracer()
    try:
        result = measure(wl, args.seconds, tracer)
        correct, error = True, None
    except CheckFailed as exc:
        result = {"attempted": 1, "metrics": {}}
        correct, error = False, str(exc)
    finally:
        input_path.unlink(missing_ok=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in result["metrics"]
    }
    spans = [[name, s - tracer.spans[0][1], e - tracer.spans[0][1], p]
             for name, s, e, p in tracer.spans] if tracer.spans else []
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "error": error,
        "environment": environment(), **result,
        "counters": dict(tracer.counters), "layers": tracer.summary(), "spans": spans,
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
