"""Application-workload throughput: combining vs. trivial schedules.

The per-collective benchmarks measure the schedules in isolation; this
one measures them **inside the applications** (:mod:`repro.apps`): full
Game of Life, Cannon matmul and all-to-all broadcast runs — scatter,
persistent init, every iteration's execute, gather — timed end-to-end
on the deterministic batched executor, once per collective algorithm.
The figure of merit per app is iterations/second, and the gated scalar
is the dimensionless **combining/trivial speedup** (time per iteration,
trivial over combining): a regression in the combining path's plan
reuse, cache lookups or pack/unpack kernels shows up here even when the
microbenchmarks still pass, because the apps pay every layer at once.

Every timed run is also certified bit-identical to its sequential
oracle first — a benchmark of a wrong answer is worthless.

Artifacts: ``benchmarks/out/apps.txt`` (table) and
``benchmarks/out/apps.json`` (perf trajectory).  With
``REPRO_PERF_GATE=1`` the JSON is compared against the committed
baseline ``benchmarks/BENCH_apps.json``: the gate fails when an app's
combining/trivial speedup falls more than ``GATE_TOLERANCE``x below the
baseline's.  ``BENCH_SMOKE=1`` (the CI setting) shrinks the problem
instances and repetitions; certification and the gate are identical.
"""

import json
import os
import time

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.apps import AllToAllBroadcast, CannonMatmul, GameOfLife

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
REPS = 3 if SMOKE else 5
#: all timing on the deterministic all-ranks executor: no thread
#: scheduling noise, identical driver code for both algorithms.  (The
#: committed baseline was recorded under the name "lockstep", then the
#: per-rank walk and now an alias of this executor; the gated scalar is
#: the dimensionless combining/trivial ratio, near 1 on both.)
BACKEND = "batched"
BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_apps.json")
#: gate: fail when an app's speedup drops below baseline/GATE_TOLERANCE.
#: Generous on purpose — the ratio sits near 1 for the small-message
#: regime these instances run in; the gate exists to catch the path
#: regressing wholesale, not to police a few percent.
GATE_TOLERANCE = 2.0


def _apps():
    if SMOKE:
        return {
            "life": (GameOfLife.random((24, 24), (3, 3), 4, seed=7), 4),
            "cannon": (CannonMatmul(12, 12, 12, 3, seed=7), 3),
            "broadcast": (
                AllToAllBroadcast((3, 3), block=32, iterations=4, seed=7),
                4,
            ),
        }
    return {
        "life": (GameOfLife.random((48, 48), (3, 3), 10, seed=7), 10),
        "cannon": (CannonMatmul(30, 30, 30, 3, seed=7), 3),
        "broadcast": (
            AllToAllBroadcast((3, 3), block=64, iterations=10, seed=7),
            10,
        ),
    }


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _apply_gate(payload):
    """Compare this run's speedups against the committed baseline."""
    if os.environ.get("REPRO_PERF_GATE", "0") != "1":
        return ["perf gate: off (set REPRO_PERF_GATE=1 to enable)"]
    if not os.path.exists(BASELINE):
        return [f"perf gate: no baseline at {BASELINE}, skipped"]
    with open(BASELINE) as fh:
        base = json.load(fh)
    base_cases = {c["case"]: c for c in base.get("cases", [])}
    lines = [f"perf gate: tolerance {GATE_TOLERANCE}x vs {BASELINE}"]
    failures = []
    for case in payload["cases"]:
        ref = base_cases.get(case["case"])
        if ref is None:
            lines.append(f"  {case['case']}: no baseline entry, skipped")
            continue
        floor = ref["speedup"] / GATE_TOLERANCE
        verdict = "ok" if case["speedup"] >= floor else "REGRESSED"
        lines.append(
            f"  {case['case']}: combining/trivial speedup "
            f"{case['speedup']:.2f}x vs baseline {ref['speedup']:.2f}x "
            f"(floor {floor:.2f}x) {verdict}"
        )
        if case["speedup"] < floor:
            failures.append(case["case"])
    assert not failures, "\n".join(lines)
    return lines


def test_app_throughput_combining_vs_trivial():
    lines = [
        "application workloads: combining vs trivial schedules",
        f"full runs (scatter + persistent init + iterate + gather) on the "
        f"{BACKEND} executor, best of {REPS}, smoke={SMOKE}",
        "",
        f"{'app':>10s} {'iters':>6s} {'trivial it/s':>13s} "
        f"{'combining it/s':>15s} {'speedup':>8s}",
    ]
    payload = {
        "benchmark": "apps",
        "backend": BACKEND,
        "reps": REPS,
        "smoke": SMOKE,
        "cores": os.cpu_count(),
        "cases": [],
    }
    for name, (app, iterations) in _apps().items():
        seconds = {}
        opstats = {}
        for algorithm in ("trivial", "combining"):
            # correctness before throughput: the timed configuration
            # must be bit-identical to the sequential oracle
            certified_run = app.run(backend=BACKEND, algorithm=algorithm)
            app.check_against_oracle(certified_run)
            # the merged per-rank OpStats of the certification run ride
            # the artifact in their canonical JSON form (no hand-rolled
            # dict dumps; round-trips via OpStats.from_json)
            opstats[algorithm] = certified_run.stats.to_json()
            seconds[algorithm] = _best_of(
                lambda a=algorithm: app.run(backend=BACKEND, algorithm=a),
                REPS,
            )
        trivial_ips = iterations / seconds["trivial"]
        combining_ips = iterations / seconds["combining"]
        speedup = seconds["trivial"] / seconds["combining"]
        lines.append(
            f"{name:>10s} {iterations:6d} {trivial_ips:13.1f} "
            f"{combining_ips:15.1f} {speedup:7.2f}x"
        )
        payload["cases"].append(
            {
                "case": name,
                "iterations": iterations,
                "trivial_s": seconds["trivial"],
                "combining_s": seconds["combining"],
                "trivial_ips": trivial_ips,
                "combining_ips": combining_ips,
                "speedup": speedup,
                "certified": [f"{BACKEND}/trivial", f"{BACKEND}/combining"],
                "opstats": opstats,
            }
        )

    lines += [""] + _apply_gate(payload)
    text = "\n".join(lines)
    write_artifact("apps.txt", text)
    path = write_json_artifact("apps.json", payload)
    print("\n" + text + f"\nwrote {path}")

    # sanity floor, not a perf bar: every app must actually iterate
    assert all(c["combining_ips"] > 0 for c in payload["cases"])
