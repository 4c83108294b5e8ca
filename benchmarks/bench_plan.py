"""Matrix execution of the lowered plan vs lockstep over its rank views.

A schedule lowers to one rank-free :class:`~repro.core.plan.BatchedPlan`
(:mod:`repro.core.plan`); the ``batched`` backend executes it whole —
the mesh as one data-parallel numpy program — while the ``lockstep``
backend walks the same plan's per-rank views, one interpreter per rank.
This benchmark times both on a (8, 8, 8) torus combining alltoallw
(512 ranks, 4-byte pieces interleaved with gaps so nothing coalesces
and every round runs its gather/scatter index kernels).  Its bar is
**10x**, with byte-identical buffers and a balanced pool.

(There is no uncompiled runtime mode to compare against; the
fragmented-``w`` index kernels are measured end to end by the
``cannon_w`` workload of ``BENCHMARK.json``.)

Results are persisted twice: a human-readable table
(``benchmarks/out/plan_batched.txt``) and a machine-readable perf
trajectory (``benchmarks/out/plan_batched.json``).  With
``REPRO_PERF_GATE=1`` the JSON is additionally compared against the
committed baseline (``benchmarks/BENCH_plan.json``): the gate fails
when the speedup falls more than ``GATE_TOLERANCE``x below the
baseline's — a perf regression in the plan path cannot land silently.

``BENCH_SMOKE=1`` (the CI setting) reduces repetitions and fragment
counts; assertions and the gate are identical.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.core import plan as plan_mod
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import LockstepBackend, get_backend
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
REPS = 5 if SMOKE else 20
FRAG = 4

#: large enough that the per-rank Python loop dominates the lockstep
#: side (the regime the batched backend exists for)
BATCHED_DIMS = (8, 8, 8)
#: 4-byte fragments per neighbor block in the w layout
BATCHED_PIECES = 8 if SMOKE else 16
BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_plan.json")
#: gate: fail when a case's speedup drops below baseline/GATE_TOLERANCE
GATE_TOLERANCE = 1.5


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fragmented_layout(t, buffer, pieces):
    """Per-neighbor block sets of ``pieces`` 4-byte fragments, each
    fragment followed by a FRAG-byte gap so no two ever coalesce."""
    region = pieces * 2 * FRAG
    sets = [
        BlockSet(
            [
                BlockRef(buffer, i * region + j * 2 * FRAG, FRAG)
                for j in range(pieces)
            ]
        )
        for i in range(t)
    ]
    return sets, t * region


def _make_bufs(p, send_total, recv_total):
    bufs = []
    for r in range(p):
        rng = np.random.default_rng(9000 + r)
        bufs.append(
            {
                "send": rng.integers(0, 256, send_total).astype(np.uint8),
                "recv": np.zeros(recv_total, np.uint8),
            }
        )
    return bufs


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
            f"  {case['case']}: speedup {case['speedup']:.2f}x vs "
            f"baseline {ref['speedup']:.2f}x (floor {floor:.2f}x) "
            f"{verdict}"
        )
        if case["speedup"] < floor:
            failures.append(case["case"])
    assert not failures, "\n".join(lines)
    return lines


def test_batched_backend_speedup():
    """Matrix execution vs lockstep over the rank views of the same
    plan, (8, 8, 8) torus combining alltoallw.  Bar: >= 10x,
    byte-identical results, one lowering, balanced pool."""
    nbh = moore_neighborhood(3, 1, include_self=False)
    send_layout, s_total = _fragmented_layout(nbh.t, "send", BATCHED_PIECES)
    recv_layout, r_total = _fragmented_layout(nbh.t, "recv", BATCHED_PIECES)
    topo = CartTopology(BATCHED_DIMS)
    sched = build_alltoall_schedule(nbh, send_layout, recv_layout).prepare()
    batched = get_backend("batched")
    lockstep = LockstepBackend()  # the walk itself: the name is an alias of batched
    pool_before = plan_mod.GLOBAL_POOL.stats().outstanding_bytes
    plan_mod.plan_cache_reset()

    # parity first: identical inputs through both executors (this also
    # lowers the plan and takes every rank's view, outside the timing)
    a = _make_bufs(topo.size, s_total, r_total)
    b = _make_bufs(topo.size, s_total, r_total)
    batched.execute_all(topo, sched, a)
    lockstep.execute_all(topo, sched, b)
    for r in range(topo.size):
        assert np.array_equal(a[r]["recv"], b[r]["recv"]), (
            f"batched diverges from lockstep at rank {r}"
        )

    bufs = _make_bufs(topo.size, s_total, r_total)

    def run_batched():
        batched.execute_all(topo, sched, bufs)

    def run_lockstep():
        lockstep.execute_all(topo, sched, bufs)

    batched_s = _best_of(run_batched, REPS)
    lockstep_s = _best_of(run_lockstep, 2 if SMOKE else 4)
    speedup = lockstep_s / batched_s
    info = plan_mod.plan_cache_info()

    p = topo.size
    lines = [
        "batched backend vs lockstep over the rank views",
        f"combining alltoallw, {BATCHED_DIMS} torus (p={p}), Moore "
        f"t={nbh.t}, {BATCHED_PIECES} fragments/block, smoke={SMOKE}",
        "",
        f"lockstep    {lockstep_s * 1e3:10.1f} ms/exec",
        f"batched     {batched_s * 1e3:10.1f} ms/exec",
        f"speedup     {speedup:10.1f}x",
        f"plan cache: {info.hits} hits / {info.misses} compiles "
        f"({info.compile_seconds * 1e3:.2f} ms compiling)",
    ]
    payload = {
        "benchmark": "plan-batched",
        "dims": list(BATCHED_DIMS),
        "stencil": "moore-3d",
        "t": nbh.t,
        "reps": REPS,
        "pieces": BATCHED_PIECES,
        "smoke": SMOKE,
        "cores": os.cpu_count(),
        "cases": [
            {
                "case": "batched-w",
                "lockstep_s": lockstep_s,
                "batched_s": batched_s,
                "speedup": speedup,
                "wire_bytes_per_rank": sched.volume_bytes,
                "certified": ["lockstep", "batched"],
            }
        ],
        "plan_cache": {
            "hits": info.hits,
            "misses": info.misses,
            "compile_seconds": info.compile_seconds,
        },
    }
    lines += [""] + _apply_gate(payload)
    text = "\n".join(lines)
    write_artifact("plan_batched.txt", text)
    path = write_json_artifact("plan_batched.json", payload)
    print("\n" + text + f"\nwrote {path}")

    assert (
        plan_mod.GLOBAL_POOL.stats().outstanding_bytes == pool_before
    ), "batched benchmark leaked pooled scratch"
    # one lowering served both backends and every timed repetition
    assert info.misses == 1, info
    # the acceptance bar: >= 10x over lockstep's per-rank Python loop
    assert speedup >= 10.0, text
