"""Command-line benchmark runner.

Example:
    privtri run --graph facebook.txt --mechanism cargo --epsilon 2 \
        --n 500 --trials 20 --seed 7 --output out.csv
"""

import argparse
import sys

from .harness import MECHANISMS, ExperimentConfig, run, summarize


def _parse_thetas(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad theta list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privtri",
        description="Two-server private triangle counting benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment configuration",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--graph", dest="graph_path", required=True, metavar="PATH",
                       help="edge-list file")
    run_p.add_argument("--mechanism", choices=MECHANISMS)
    run_p.add_argument("--epsilon", type=float, help="total privacy budget")
    run_p.add_argument("--epsilon-split", type=float,
                       help="fraction of the budget spent on the max degree")
    run_p.add_argument("--n", dest="n_limit", type=int, metavar="N",
                       help="keep only the first N distinct node ids")
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--theta", dest="theta_override", type=_parse_thetas,
                       metavar="INT[,INT...]",
                       help="projection bounds for project-compare sweeps")
    run_p.add_argument("--output", dest="output_path", metavar="PATH",
                       help="CSV output path")
    run_p.add_argument("--zero-timings", action="store_true",
                       help="write 0.0 timings for bit-reproducible CSVs")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    try:
        cfg = ExperimentConfig(**args)
        records = run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = summarize(records)
    print(
        f"mechanism={cfg.mechanism} trials={stats['trials']} "
        f"mean_l2={stats['mean_l2']:.6g} std_l2={stats['std_l2']:.6g} "
        f"mean_rel_err={stats['mean_relative_error']:.6g} "
        f"std_rel_err={stats['std_relative_error']:.6g}"
    )
    if cfg.output_path:
        print(f"wrote {len(records)} rows to {cfg.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
