"""Command-line benchmark runner.

Example:
    privtri run --graph facebook.txt --mechanism cargo --epsilon 2 \
        --n 500 --trials 20 --seed 7 --output out.csv
"""

import argparse
import sys

from .harness import MECHANISMS, ExperimentConfig, run, summarize
from .secure_count import BIT_POLICIES


def _parse_thetas(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad theta list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty theta list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privtri",
        description="Two-server private triangle counting benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment configuration")
    run_p.add_argument("--graph", required=True, help="edge-list file")
    run_p.add_argument("--mechanism", choices=MECHANISMS, default="cargo")
    run_p.add_argument("--epsilon", type=float, default=2.0,
                       help="total privacy budget")
    run_p.add_argument("--epsilon-split", type=float, default=0.1,
                       help="fraction of the budget spent on the max degree")
    run_p.add_argument("--n", type=int, default=None,
                       help="keep only the first N distinct node ids")
    run_p.add_argument("--trials", type=int, default=10)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--theta", type=_parse_thetas, default=None,
                       metavar="INT[,INT...]",
                       help="projection bounds for project-compare sweeps")
    run_p.add_argument("--bit-policy", choices=BIT_POLICIES, default="and")
    run_p.add_argument("--output", default=None, help="CSV output path")
    run_p.add_argument("--allow-large", action="store_true",
                       help="run cargo beyond the desk-scale node limit")
    run_p.add_argument("--zero-timings", action="store_true",
                       help="write 0.0 timings for bit-reproducible CSVs")
    run_p.add_argument("--dealer-seed", type=int, default=None,
                       help="vary share masks independently of the noise seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig(
            graph_path=args.graph,
            mechanism=args.mechanism,
            epsilon=args.epsilon,
            epsilon_split=args.epsilon_split,
            n_limit=args.n,
            theta_override=args.theta,
            trials=args.trials,
            seed=args.seed,
            bit_policy=args.bit_policy,
            output_path=args.output,
            dealer_seed=args.dealer_seed,
            zero_timings=args.zero_timings,
            allow_large=args.allow_large,
        )
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
    if args.output:
        print(f"wrote {len(records)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
