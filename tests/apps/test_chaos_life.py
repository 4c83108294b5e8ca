"""Chaos coverage for a full application: Game of Life under the
seed-driven fault injector.

The chaos dichotomy (complete byte-correct or fail cleanly) has so far
been certified per-collective (:mod:`tests.mpisim.test_faults`); here it
must hold *mid-application* — faults land between generations of a
persistent halo exchange, where a silently dropped or duplicated
delivery would corrupt every later generation.  Either the evolved
board is bit-identical to the oracle, or the raised error is typed and
attributable to an injected fault.

The all-ranks backends move no messages — their ranks meet at the
communicator's rendezvous — so only the operation-boundary faults
(``kill``, ``stall``) can land inside their collectives; the same
dichotomy must hold there.
"""

from __future__ import annotations

import pytest

from repro.apps import GameOfLife
from repro.core.plan import GLOBAL_POOL
from repro.mpisim.engine import Engine
from repro.mpisim.faults import FaultPlan, _attributable

#: 2×2 grid: small enough that kill/stall seeds terminate fast, large
#: enough that every rank has distinct neighbors in both axes.
DIMS = (2, 2)
NRANKS = 4


def _completes_or_fails_cleanly(backend, kind, seed):
    app = GameOfLife.random((12, 12), DIMS, 3, seed=seed)
    plan = FaultPlan.sample(seed * 101 + 7, NRANKS, kind=kind)
    engine = Engine(NRANKS, timeout=20.0, faults=plan)
    try:
        run = app.run(backend=backend, algorithm="combining", engine=engine)
    except Exception as exc:  # noqa: BLE001  # lint: allow(L004) - dichotomy classifies every failure mode below
        events = engine.fault_events()
        assert _attributable(exc, events), (
            f"dirty failure under {kind!r} faults: "
            f"{type(exc).__name__}: {exc}; injected: "
            f"{[e.describe() for e in events]}"
        )
        assert GLOBAL_POOL.stats().outstanding_bytes == 0
    else:
        # completed: the application result must be byte-correct no
        # matter what was delayed, reordered or duplicated on the wire
        app.check_against_oracle(run)
        run.stats.record_fault_events(engine.fault_events())
        if kind in ("delay", "reorder", "stall"):
            # benign kinds may or may not have fired probabilistically,
            # but when they did, they must be visible in the stats
            assert set(run.stats.faults) <= {kind}


@pytest.mark.parametrize("kind", ["delay", "reorder", "duplicate", "kill"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_life_completes_or_fails_cleanly(kind, seed):
    _completes_or_fails_cleanly("threaded", kind, seed)


@pytest.mark.parametrize("kind", ["kill", "stall"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_life_on_batched_completes_or_fails_cleanly(kind, seed):
    _completes_or_fails_cleanly("batched", kind, seed)


@pytest.mark.parametrize("kind", ["kill", "stall"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_place_alltoall_on_batched_completes_or_fails_cleanly(kind, seed):
    """The batched backend's other form: Life's halo blocks keep the
    staged matrices, a persistent alltoall of 4 KiB blocks is delivered
    in place, on the ranks' own arrays.  Same dichotomy, nothing left in
    the pool, and the engine then runs the collective correctly."""
    import numpy as np

    from repro.core import plan as plan_mod
    from repro.core.api import run_cartesian
    from repro.core.stencils import moore_neighborhood
    from tests.conftest import expected_alltoall, fill_send_alltoall

    dims, m = (3, 3), 512  # int64 blocks of 4 KiB
    nbh = moore_neighborhood(2, 1, include_self=False)
    engine = Engine(
        9, timeout=20.0, faults=FaultPlan.sample(seed * 101 + 7, 9, kind=kind)
    )

    def worker(cart):
        send = fill_send_alltoall(cart.rank, nbh.t, m)
        recv = np.zeros_like(send)
        handle = cart.alltoall_init(send, recv, algorithm="combining")
        try:
            lowered, _ = plan_mod.get_or_compile(
                handle.schedule, cart.topo, handle.buffers
            )
            assert lowered.delivery == "in-place"
            want = expected_alltoall(cart.topo, nbh, cart.rank, m)
            for _ in range(3):
                recv[:] = 0
                handle.execute()
                assert np.array_equal(recv, want)
        finally:
            handle.free()
        return True

    def run():
        return run_cartesian(
            dims, nbh, worker, info={"backend": "batched"}, engine=engine
        )

    try:
        assert all(run())
    except Exception as exc:  # noqa: BLE001  # lint: allow(L004) - dichotomy classifies every failure mode below
        events = engine.fault_events()
        assert _attributable(exc, events), (
            f"dirty failure under {kind!r} faults: "
            f"{type(exc).__name__}: {exc}; injected: "
            f"{[e.describe() for e in events]}"
        )
    assert GLOBAL_POOL.stats().outstanding_bytes == 0
    # recovery, not another chaos case: the same engine, disarmed
    engine.injector = None
    assert all(run())
    assert GLOBAL_POOL.stats().outstanding_bytes == 0


@pytest.mark.parametrize("kind", ["kill", "stall"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_in_creation_on_batched_completes_or_fails_cleanly(kind, seed):
    """Creation goes through the rendezvous too (the isomorphism check
    reads the root's neighbourhood there, by reference), so it is where
    a rank's first operation-boundary fault lands: the same seeds with
    the fault moved there.  A stalled rank only delays it, a killed one
    fails the run cleanly — attributable, nothing in the pool — and the
    engine then runs the application correctly."""
    from dataclasses import replace

    from repro.mpisim.exceptions import RankFailedError

    plan = replace(
        FaultPlan.sample(seed * 101 + 7, NRANKS, kind=kind),
        kill_after_op=0,
        stall_after_op=0,
    )
    engine = Engine(NRANKS, timeout=20.0, faults=plan)
    app = GameOfLife.random((12, 12), DIMS, 3, seed=seed)

    def run():
        return app.run(backend="batched", algorithm="combining", engine=engine)

    if kind == "kill":
        with pytest.raises(RankFailedError) as ei:
            run()
        assert _attributable(ei.value, engine.fault_events()), ei.value
    else:
        app.check_against_oracle(run())
    (event,) = engine.fault_events()
    assert event.kind == kind and "at op 0 (share)" in event.detail
    assert GLOBAL_POOL.stats().outstanding_bytes == 0
    # recovery, not another chaos case: the same engine, disarmed
    engine.injector = None
    app.check_against_oracle(run())
    assert GLOBAL_POOL.stats().outstanding_bytes == 0
