"""Fault-injection layer: determinism, per-kind behaviour, and the
chaos harness dichotomy (complete byte-correct or fail cleanly)."""

import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.neighborhood import Neighborhood
from repro.mpisim.engine import Engine
from repro.mpisim.exceptions import (
    DuplicateMessageError,
    FaultError,
    RankFailedError,
    RankKilledError,
)
from repro.mpisim.faults import (
    FAULT_KINDS,
    DeliveryFault,
    FaultInjector,
    FaultPlan,
    chaos_run,
    chaos_sweep,
    sample_case,
)

from tests.conftest import expected_alltoall, fill_send_alltoall


class TestDeterminism:
    def test_delivery_fault_is_pure(self):
        plan = FaultPlan(seed=11, delay_prob=0.5, duplicate_prob=0.3)
        for src, dst, seq in [(0, 1, 0), (2, 5, 7), (3, 3, 1)]:
            a = plan.delivery_fault(src, dst, seq)
            b = plan.delivery_fault(src, dst, seq)
            assert a == b

    def test_decisions_vary_with_seed(self):
        # Not a tautology: with p=0.5 over 64 messages, two seeds
        # agreeing everywhere would mean the seed is ignored.
        p1 = FaultPlan(seed=1, delay_prob=0.5)
        p2 = FaultPlan(seed=2, delay_prob=0.5)
        verdicts1 = [p1.delivery_fault(0, 1, s) for s in range(64)]
        verdicts2 = [p2.delivery_fault(0, 1, s) for s in range(64)]
        assert verdicts1 != verdicts2

    def test_sample_is_deterministic(self):
        assert FaultPlan.sample(42, 8) == FaultPlan.sample(42, 8)
        for kind in FAULT_KINDS:
            assert FaultPlan.sample(7, 6, kind=kind) == FaultPlan.sample(
                7, 6, kind=kind
            )

    def test_sample_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.sample(0, 4, kind="gremlins")

    def test_sample_case_is_deterministic(self):
        a, b = sample_case(123), sample_case(123)
        assert (a.dims, a.offsets, a.op, a.algorithm, a.m_bytes) == (
            b.dims, b.offsets, b.op, b.algorithm, b.m_bytes,
        )
        assert a.plan == b.plan

    def test_injector_streams_count_independently(self):
        plan = FaultPlan(seed=3, delay_prob=1.0, delay_window=(0.0, 0.0))
        inj = FaultInjector(plan, nranks=4)
        inj.delivery_fault(0, 1)
        inj.delivery_fault(0, 1)
        inj.delivery_fault(2, 1)
        # per-stream sequence numbers: 0->1 used seq 0,1; 2->1 used seq 0
        assert inj._stream_seq == {(0, 1): 2, (2, 1): 1}

    def test_same_seed_same_event_log(self):
        # Two full runs of the same delay plan inject the identical
        # fault multiset, independent of thread interleaving.
        logs = []
        for _ in range(2):
            case = sample_case(5)
            case.plan = FaultPlan.sample(5, 8, kind="delay")
            done = chaos_run(case, timeout=20.0)
            logs.append(sorted(e.describe() for e in done.events))
        assert logs[0] == logs[1]


class TestInactivePlan:
    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().is_active
        assert FaultPlan().delivery_fault(0, 1, 0) == DeliveryFault()

    def test_describe_mentions_each_armed_fault(self):
        plan = FaultPlan(seed=9, delay_prob=0.2, kill_ranks=(3,))
        text = plan.describe()
        assert "delay" in text and "kill" in text and "seed=9" in text
        assert "no faults" in FaultPlan().describe()


def _run_alltoall(plan, nranks=4, m=8, timeout=20.0):
    """One periodic 1-D alltoall under ``plan``; returns (engine, bufs)."""
    nbh = Neighborhood([(1,), (-1,)])
    send = [fill_send_alltoall(r, nbh.t, m) for r in range(nranks)]
    recv = [np.zeros(nbh.t * m, np.int64) for _ in range(nranks)]
    engine = Engine(nranks, timeout=timeout, faults=plan)

    def fn(cart):
        cart.alltoall(send[cart.rank], recv[cart.rank])

    run_cartesian((nranks,), nbh, fn, engine=engine)
    return engine, recv


class TestFaultKinds:
    def test_delay_completes_byte_correct(self):
        plan = FaultPlan(seed=21, delay_prob=0.6, delay_window=(0.001, 0.01))
        engine, recv = _run_alltoall(plan)
        from repro.core.topology import CartTopology

        topo = CartTopology((4,))
        nbh = Neighborhood([(1,), (-1,)])
        for r in range(4):
            assert np.array_equal(recv[r], expected_alltoall(topo, nbh, r, 8))
        assert any(e.kind == "delay" for e in engine.fault_events())

    def test_reorder_completes_byte_correct(self):
        plan = FaultPlan(seed=22, reorder_prob=0.6, reorder_window=0.02)
        engine, recv = _run_alltoall(plan)
        from repro.core.topology import CartTopology

        topo = CartTopology((4,))
        nbh = Neighborhood([(1,), (-1,)])
        for r in range(4):
            assert np.array_equal(recv[r], expected_alltoall(topo, nbh, r, 8))
        assert any(e.kind == "reorder" for e in engine.fault_events())

    def test_stall_completes(self):
        plan = FaultPlan(
            seed=23, stall_ranks=(1,), stall_after_op=1, stall_seconds=0.03
        )
        engine, _ = _run_alltoall(plan)
        assert [e.kind for e in engine.fault_events()] == ["stall"]

    def test_kill_raises_rank_failed_with_kill_cause(self):
        plan = FaultPlan(seed=24, kill_ranks=(2,), kill_after_op=0)
        with pytest.raises(RankFailedError, match="rank 2") as exc_info:
            _run_alltoall(plan)
        assert isinstance(exc_info.value.cause, RankKilledError)
        assert exc_info.value.cause.rank == 2

    def test_duplicate_surfaces_as_typed_error(self):
        # rank 0 sends twice; the duplicated copy of the first message
        # matches rank 1's second receive and must fail *typed*, not
        # deliver stale bytes.
        plan = FaultPlan(seed=25, duplicate_prob=1.0, duplicate_lag=0.001)
        engine = Engine(2, timeout=10.0, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                comm.send(b"first", dest=1, tag=0)
                import time

                time.sleep(0.05)  # let the duplicate land before msg 2
                comm.send(b"second", dest=1, tag=0)
            else:
                assert comm.recv(source=0, tag=0) == b"first"
                comm.recv(source=0, tag=0)

        with pytest.raises(RankFailedError) as exc_info:
            engine.run(fn)
        assert isinstance(exc_info.value.cause, DuplicateMessageError)
        assert isinstance(exc_info.value.cause, FaultError)

    def test_delay_preserves_stream_fifo(self):
        # Every message of the 0->1 stream is delayed; ordering between
        # them must still be FIFO (MPI non-overtaking).
        plan = FaultPlan(seed=26, delay_prob=1.0, delay_window=(0.002, 0.01))
        engine = Engine(2, timeout=10.0, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                for i in range(6):
                    comm.send(i, dest=1, tag=7)
            else:
                got = [comm.recv(source=0, tag=7) for _ in range(6)]
                assert got == list(range(6))

        engine.run(fn)


class TestChaosHarness:
    def test_sweep_upholds_dichotomy(self):
        results = chaos_sweep(25, base_seed=1000, timeout=20.0)
        assert len(results) == 25
        assert all(c.outcome in ("ok", "clean-failure") for c in results)
        # the sampled kinds must actually include faulty plans
        assert any(c.plan.is_active for c in results)

    @pytest.mark.parametrize("kind", ["delay", "reorder", "stall"])
    def test_benign_kinds_complete_byte_correct(self, kind):
        for c in chaos_sweep(4, base_seed=2000, kind=kind, timeout=20.0):
            assert c.outcome == "ok", c.describe()

    def test_kill_kind_fails_cleanly_or_completes(self):
        results = chaos_sweep(6, base_seed=3000, kind="kill", timeout=20.0)
        failures = [c for c in results if c.outcome == "clean-failure"]
        # kill_after_op can exceed the op count of tiny collectives, so
        # some cases legitimately complete; at least one must fire.
        assert failures, "no sampled kill plan ever fired"
        for c in failures:
            assert isinstance(c.error, RankFailedError)
            assert isinstance(c.error.cause, RankKilledError)

    def test_fault_free_plan_runs_clean(self):
        case = sample_case(0)
        case.plan = FaultPlan(seed=0)  # inactive
        done = chaos_run(case, timeout=20.0)
        assert done.outcome == "ok"
        assert done.events == []

    def test_attribution_classifier(self):
        from repro.mpisim.exceptions import DeadlockError
        from repro.mpisim.faults import FaultEvent, _attributable

        # user bugs and unexplained deadlocks break the dichotomy ...
        assert not _attributable(ValueError("user bug"), [])
        assert not _attributable(DeadlockError("stuck", [1]), [])
        # ... while fault-typed errors and kill-explained deadlocks are clean
        assert _attributable(
            RankFailedError(
                "rank 1 failed", rank=1, cause=RankKilledError("x", rank=1)
            ),
            [],
        )
        assert _attributable(
            DeadlockError("stuck", [1]),
            [FaultEvent(kind="kill", rank=0)],
        )
