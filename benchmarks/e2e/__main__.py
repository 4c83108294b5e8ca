"""``PYTHONPATH=src python -m benchmarks.e2e run|compare`` — the whole
suite in one command, and the comparison of two of its result files."""

from __future__ import annotations

import argparse
import sys

from benchmarks.e2e import cases, compare, harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="every workload: end-to-end rounds, then a traced round")
    run.add_argument("--seed", type=int, default=cases.DEFAULT_SEED,
                     help=f"default {cases.DEFAULT_SEED}; {cases.HELD_OUT_SEED} is held out")
    run.add_argument("--workload", action="append", help="restrict to this workload (repeatable)")
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--out", default=None, help="result file name under benchmarks/out/e2e/")
    cmp_ = sub.add_parser("compare", help="apply the bounds of BENCHMARK.json to two results")
    cmp_.add_argument("base")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.base, args.change)
    harness.refuse_repro_env()
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for name in args.workload or []:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(names)}")
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    return harness.run_suite(args.workload or names, args.seed, seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
