"""Extension bench: Cartesian neighborhood reductions.

Mirrors the Figure 3–6 methodology for the reduction extension: the
reverse-tree combining algorithm vs the trivial gather-then-reduce,
modeled on the Table 2 machines, plus real full-mesh executions and a
locality ablation tying the remap extension to the network model.

The headline measurement is **batched fused-kernel reduce vs the
per-rank path**: one combining reduce on an (8, 8, 8) torus driven by
the batched SPMD backend (every round a shared kernel over the
``(p, n)`` matrix, combines fused into the unpack) against the lockstep
backend walking the same plan's rank views, one interpreter per rank
running its rows of the same combine steps one by one.  The bar is
**5x**, and with ``REPRO_PERF_GATE=1`` the speedup is additionally
gated against the committed baseline
(``benchmarks/BENCH_reductions.json``) so a regression in the fused
reduce path cannot land silently.

``BENCH_SMOKE=1`` (the CI setting) reduces repetitions; assertions and
the gate are identical.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.core import plan as plan_mod
from repro.core.api import run_cartesian
from repro.core.backend import LockstepBackend, get_backend
from repro.core.reduce_schedule import build_reduce_schedule
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.mpisim.engine import Engine
from repro.netsim.machines import get_machine

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
REPS = 3 if SMOKE else 7
#: torus for the measured batched case: large enough that the per-rank
#: Python loop dominates the lockstep side (the regime the batched
#: backend exists for)
MEASURED_DIMS = (8, 8, 8)
#: int64 elements per neighbor contribution in the measured case
MEASURED_ELEMS = 32
BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_reductions.json")
#: gate: fail when the measured speedup drops below baseline/GATE_TOLERANCE
GATE_TOLERANCE = 1.5
#: the ISSUE's absolute bar for the fused batched reduce
SPEEDUP_FLOOR = 5.0


def modeled_reduce_times(nbh, m_bytes, machine):
    """Closed-form times from the schedules' round/volume structure
    (one α per phase, per-round overheads, β per byte — the same model
    as repro.netsim.cost, specialized to the reduce schedule shape)."""
    c = machine.costs("cart")
    sched = build_reduce_schedule(nbh)
    combining = 0.0
    for phase in sched.phases:
        combining += machine.alpha
        for rnd in phase.rounds:
            combining += 2 * c.request_overhead
            combining += machine.beta * rnd.logical_blocks * m_bytes
    trivial = nbh.trivial_rounds * (
        machine.alpha + 2 * c.request_overhead + machine.beta * m_bytes
    )
    return {"trivial": trivial, "combining": combining, "schedule": sched}


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (5, 3), (5, 5)])
def test_modeled_reduction_comparison(benchmark, d, n):
    nbh = parameterized_stencil(d, n, -1)
    machine = get_machine("hydra-openmpi")

    def sweep():
        return {
            m_ints: modeled_reduce_times(nbh, 4 * m_ints, machine)
            for m_ints in (1, 10, 100)
        }

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = []
    for m_ints, row in out.items():
        rel = row["combining"] / row["trivial"]
        lines.append(
            f"d{d} n{n} m{m_ints}: trivial={row['trivial'] * 1e6:.1f}us "
            f"combining={row['combining'] * 1e6:.1f}us rel={rel:.4f}"
        )
        # same volume, exponentially fewer rounds: combining always wins
        assert rel < 1.0, (d, n, m_ints, rel)
    write_artifact(f"reduction_d{d}n{n}.txt", "\n".join(lines))
    print("\n" + "\n".join(lines))


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reduce_bufs(p, m_bytes):
    bufs = []
    for r in range(p):
        rng = np.random.default_rng(7000 + r)
        bufs.append(
            {
                "send": rng.integers(
                    -(2**31), 2**31, MEASURED_ELEMS, dtype=np.int64
                )
                .view(np.uint8)
                .copy(),
                "recv": np.zeros(m_bytes, np.uint8),
            }
        )
    return bufs


def measured_batched_reduce():
    """Time one combining reduce on the measured torus: the plan's
    ``BatchedReduceRound`` kernels over the rank matrices vs the
    lockstep driver over its rank views (each rank's rows of the same
    step lists).
    Returns the payload row; asserts bit parity between the paths."""
    nbh = moore_neighborhood(3, 1, include_self=False)  # t = 26
    m_bytes = MEASURED_ELEMS * 8
    topo = CartTopology(MEASURED_DIMS)
    p = topo.size
    sched = build_reduce_schedule(nbh, m_bytes=m_bytes, dtype="int64")
    batched = get_backend("batched")
    lockstep = LockstepBackend()  # the walk itself: the name is an alias of batched

    # parity first (also lowers the plan and takes every rank's view, so
    # neither is inside the timed region)
    bufs_b = _reduce_bufs(p, m_bytes)
    batched.execute_all(topo, sched, bufs_b)
    bufs_l = _reduce_bufs(p, m_bytes)
    lockstep.execute_all(topo, sched, bufs_l)
    for r in range(p):
        assert np.array_equal(bufs_b[r]["recv"], bufs_l[r]["recv"]), (
            f"batched/lockstep divergence at rank {r}"
        )

    bufs = _reduce_bufs(p, m_bytes)
    t_batched = _best_of(lambda: batched.execute_all(topo, sched, bufs), REPS)
    t_lockstep = _best_of(
        lambda: lockstep.execute_all(topo, sched, bufs), max(2, REPS // 2)
    )
    return {
        "dims": list(MEASURED_DIMS),
        "stencil": "moore-3d",
        "t": nbh.t,
        "m_bytes": m_bytes,
        "dtype": "int64",
        "op": "sum",
        "reps": REPS,
        "smoke": SMOKE,
        "lockstep_s": t_lockstep,
        "batched_s": t_batched,
        "speedup": t_lockstep / t_batched,
    }


def _apply_gate(payload):
    """Compare this run's measured speedup against the committed
    baseline (same idiom as bench_plan/bench_apps)."""
    if os.environ.get("REPRO_PERF_GATE", "0") != "1":
        return ["perf gate: off (set REPRO_PERF_GATE=1 to enable)"]
    if not os.path.exists(BASELINE):
        return [f"perf gate: no baseline at {BASELINE}, skipped"]
    with open(BASELINE) as fh:
        base = json.load(fh)
    ref = base.get("measured")
    if ref is None:
        return ["perf gate: baseline has no measured entry, skipped"]
    got = payload["measured"]["speedup"]
    floor = ref["speedup"] / GATE_TOLERANCE
    line = (
        f"perf gate: batched reduce speedup {got:.2f}x vs baseline "
        f"{ref['speedup']:.2f}x (floor {floor:.2f}x)"
    )
    assert got >= floor, line + " REGRESSED"
    return [line + " ok"]


def test_batched_reduce_speedup():
    """Acceptance bar: the batched fused-kernel reduce is at least
    ``SPEEDUP_FLOOR``x faster than lockstep over the rank views on the
    measured torus, byte-identical results."""
    plan_mod.plan_cache_reset()
    plan_mod.GLOBAL_POOL.clear()
    row = measured_batched_reduce()
    text = (
        f"batched fused-kernel reduce, {tuple(row['dims'])} torus, "
        f"moore-3d t={row['t']}, m={row['m_bytes']}B int64 sum\n"
        f"lockstep:    {row['lockstep_s'] * 1e3:8.2f} ms\n"
        f"batched:     {row['batched_s'] * 1e3:8.2f} ms\n"
        f"speedup:     {row['speedup']:8.2f}x (floor {SPEEDUP_FLOOR}x)"
    )
    write_artifact("reduction_batched.txt", text)
    print("\n" + text)
    assert row["speedup"] >= SPEEDUP_FLOOR, text


def test_reductions_perf_artifact():
    """Machine-readable perf trajectory for the reduction extension
    (``benchmarks/out/reductions.json``; committed baseline
    ``benchmarks/BENCH_reductions.json``): the modeled combining/trivial
    ratios per configuration, the measured batched-vs-lockstep
    full-execution times, reduce-verifier certification timings, and
    the analyzer wall time for the full stencil sweep (build vs
    certification seconds) — so both the fused reduce path and
    verification overhead are tracked release over release."""
    from repro.analyze.schedule_verifier import (
        SWEEP_KINDS,
        paper_stencil_grid,
        sweep_stencils,
        verify_reduce_schedule,
    )

    machine = get_machine("hydra-openmpi")
    plan_mod.plan_cache_reset()
    plan_mod.GLOBAL_POOL.clear()

    def build_payload():
        payload = {
            "machine": "hydra-openmpi",
            "cores": os.cpu_count(),
            "modeled": {},
            "measured": {},
            "verifier": {},
            "stencil_sweep": {},
        }
        for d, n in ((2, 3), (3, 3), (5, 3), (5, 5)):
            nbh = parameterized_stencil(d, n, -1)
            for m_ints in (1, 10, 100):
                row = modeled_reduce_times(nbh, 4 * m_ints, machine)
                payload["modeled"][f"d{d}_n{n}_m{m_ints}"] = {
                    "trivial_s": row["trivial"],
                    "combining_s": row["combining"],
                    "rel": row["combining"] / row["trivial"],
                    "rounds": row["schedule"].num_rounds,
                    "volume_blocks": row["schedule"].volume_blocks,
                }
        # the measured full-execution comparison (the gated number)
        payload["measured"] = measured_batched_reduce()
        # certification cost of the reduce verifier itself
        for d, n, dims in ((2, 3, (4, 4)), (3, 3, (3, 3, 3))):
            nbh = parameterized_stencil(d, n, -1)
            sched = build_reduce_schedule(nbh)
            t0 = time.perf_counter()
            rep = verify_reduce_schedule(sched, dims, True)
            payload["verifier"][f"d{d}_n{n}"] = {
                "seconds": time.perf_counter() - t0,
                "ok": rep.ok,
                "checks_run": list(rep.checks_run),
            }
            assert rep.ok, rep.summary()
        # analyzer cost of the CI stencil sweep (stencil grid x all
        # schedule kinds, reductions included; effect pass inside)
        expected = len(paper_stencil_grid()) * len(SWEEP_KINDS)
        results = sweep_stencils()
        payload["stencil_sweep"] = {
            "build_seconds": sum(row.build_seconds for row in results),
            "certify_seconds": sum(row.certify_seconds for row in results),
            "combinations": len(results),
            "ok": all(row.report.ok for row in results),
        }
        assert payload["stencil_sweep"]["ok"]
        assert payload["stencil_sweep"]["combinations"] == expected
        return payload

    payload = build_payload()
    path = write_json_artifact("reductions.json", payload)
    for line in _apply_gate(payload):
        print(line)
    print(
        f"\nreductions perf artifact: {path} "
        f"(batched reduce {payload['measured']['speedup']:.2f}x, "
        f"stencil sweep {payload['stencil_sweep']['certify_seconds']:.2f}s "
        f"for {payload['stencil_sweep']['combinations']} combinations)"
    )


def test_real_reduction_execution(benchmark):
    nbh = moore_neighborhood(2, 1)
    engine = Engine(16, timeout=120)

    def fn(cart):
        send = np.full(8, float(cart.rank))
        recv = np.zeros(8)
        cart.reduce_neighbors(send, recv, op="sum", algorithm="combining")

    benchmark.pedantic(
        lambda: run_cartesian((4, 4), nbh, fn, engine=engine, validate=False),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_locality_aware_model(benchmark):
    """Tie-in of the remap extension: the modeled collective time under
    the best blocked mapping vs the identity mapping (the reorder
    payoff the measured libraries leave on the table)."""
    from repro.core.remap import (
        best_blocked_mapping,
        identity_mapping,
        traffic_locality,
    )
    from repro.core.topology import CartTopology
    from repro.core.alltoall_schedule import build_alltoall_schedule
    from repro.core.schedule import uniform_block_layout
    from repro.netsim.cost import estimate_schedule_time

    def sweep():
        machine = get_machine("hydra-openmpi")
        topo = CartTopology((32, 36))
        nbh = parameterized_stencil(2, 3, -1, include_self=False)
        rpn = 32
        sizes = [400] * nbh.t
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout(sizes, "send"),
            uniform_block_layout(sizes, "recv"),
        )
        ident_loc = traffic_locality(topo, nbh, identity_mapping(topo), rpn)
        _, shape, best_loc = best_blocked_mapping(topo, nbh, rpn)
        t_ident = estimate_schedule_time(
            sched, machine.with_locality(ident_loc), "cart"
        )
        t_best = estimate_schedule_time(
            sched, machine.with_locality(best_loc), "cart"
        )
        return ident_loc, best_loc, shape, t_ident, t_best

    ident_loc, best_loc, shape, t_ident, t_best = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    text = (
        f"identity mapping:  locality={ident_loc:.3f} "
        f"modeled time={t_ident * 1e6:.1f}us\n"
        f"blocked {shape}:   locality={best_loc:.3f} "
        f"modeled time={t_best * 1e6:.1f}us\n"
        f"speedup from reordering: {t_ident / t_best:.2f}x"
    )
    write_artifact("reduction_locality.txt", text)
    print("\n" + text)
    assert best_loc > ident_loc
    assert t_best < t_ident
