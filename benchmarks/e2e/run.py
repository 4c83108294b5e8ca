"""Contract entry point of the benchmark.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload (three fresh-subprocess rounds, or one
reference round plus one traced round) and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--round`` is the internal flag a round
subprocess is started with.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _bootstrap() -> None:
    """Make ``benchmarks.e2e`` and the (not installed) ``repro`` package
    importable, whatever the caller's PYTHONPATH."""
    src = os.path.join(_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    for path in (src, _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _pin_to_one_cpu() -> None:
    """Run this round, and the daemon it starts, on one CPU.

    The program's rank threads (16 to 27 per collective) and the daemon's
    workers are GIL-bound: they cannot use a second core, only hand the
    GIL across it.  On the two vCPUs of a shared host every such hand-over
    is a cross-CPU wake-up that waits for the hypervisor, so unpinned
    rounds measured the host's scheduler: twice the latency (``life_small``
    152 ms against 76 ms pinned, interleaved rounds) and twice the
    round-to-round spread, rising whenever the host got busy."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.round is not None:
        _pin_to_one_cpu()  # before NumPy is imported
    _bootstrap()
    from benchmarks.e2e import harness

    harness.refuse_repro_env()
    if args.round is not None:
        print(json.dumps(harness.child_round(json.loads(args.round))))
        return 0
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    return harness.run_contract(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
