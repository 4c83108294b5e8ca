"""Deadlock regression tests for the structured failure diagnostics.

A mis-ordered schedule (ranks disagreeing on the exchange pattern) must
surface as a :class:`DeadlockError` that *names* what each stuck rank
was doing — operation, phase, round, and the in-flight receive — rather
than a bare timeout.  The same holds for the rendezvous the all-ranks
backends meet at: a missing rank is named, with how many arrived.
"""

import numpy as np
import pytest

from repro.core.backend import ScheduleInterpreter, ThreadedTransport
from repro.core.neighborhood import Neighborhood
from repro.core.plan import GLOBAL_POOL
from repro.core.schedule import Phase, Round, Schedule, uniform_block_layout
from repro.core.topology import CartTopology
from repro.mpisim.engine import Engine
from repro.mpisim.exceptions import DeadlockError


def _one_round_schedule(offset, m=8, kind="misordered-alltoall"):
    """A single-phase, single-round SPMD schedule exchanging one block
    along ``offset``."""
    return Schedule(
        kind=kind,
        neighborhood=Neighborhood([offset]),
        phases=[
            Phase(
                dim=0,
                rounds=[
                    Round(
                        offset=tuple(offset),
                        send_blocks=uniform_block_layout([m], "send")[0],
                        recv_blocks=uniform_block_layout([m], "recv")[0],
                        logical_blocks=1,
                    )
                ],
            )
        ],
    )


class TestMisorderedSchedule:
    def test_disagreeing_offsets_deadlock_with_diagnostics(self):
        # On a periodic 3-ring, rank 0 exchanges along +1 while ranks
        # 1 and 2 exchange along +2: rank 0 waits for a send from rank 2
        # that goes to rank 1 instead, and rank 2 waits for a send from
        # rank 0 that goes to rank 1.  Ranks 0 and 2 are deadlocked.
        topo = CartTopology((3,), periods=(True,))
        m = 8
        engine = Engine(3, timeout=1.0)

        def fn(comm):
            sched = _one_round_schedule((1,) if comm.rank == 0 else (2,), m)
            bufs = {
                "send": np.full(m, comm.rank, np.uint8),
                "recv": np.zeros(m, np.uint8),
            }
            ScheduleInterpreter(ThreadedTransport(comm), topo, sched, bufs).run()

        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        err = ei.value
        assert set(err.stuck_ranks) == {0, 2}

        # structured per-rank state: operation, phase, round, and the
        # receive each stuck rank is blocked on
        state0 = err.stuck_info[0]
        assert state0.op == "misordered-alltoall"
        assert state0.phase == 0
        assert "recv(src=2" in state0.detail
        state2 = err.stuck_info[2]
        assert state2.op == "misordered-alltoall"
        assert "recv(src=0" in state2.detail

        # ... and the message carries the same story for humans
        text = str(err)
        assert "ranks still blocked: (0, 2)" in text
        assert "op=misordered-alltoall" in text
        assert "recv(src=2" in text

    def test_completed_rank_not_reported_stuck(self):
        # Rank 1 finishes (it receives from both 0 and 2); diagnostics
        # must not implicate it.
        topo = CartTopology((3,), periods=(True,))
        engine = Engine(3, timeout=1.0)

        def fn(comm):
            sched = _one_round_schedule((1,) if comm.rank == 0 else (2,))
            bufs = {
                "send": np.zeros(8, np.uint8),
                "recv": np.zeros(8, np.uint8),
            }
            ScheduleInterpreter(ThreadedTransport(comm), topo, sched, bufs).run()

        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        assert 1 not in ei.value.stuck_ranks
        assert 1 not in ei.value.stuck_info


class TestPlainRecvDeadlock:
    def test_mutual_recv_names_inflight_receives(self):
        def fn(comm):
            # both ranks receive first: the classic cycle
            comm.recv(source=1 - comm.rank, tag=42)

        engine = Engine(2, timeout=1.0)
        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        err = ei.value
        assert set(err.stuck_ranks) == {0, 1}
        assert "recv(src=1, tag=42)" in err.stuck_info[0].detail
        assert "recv(src=0, tag=42)" in err.stuck_info[1].detail

    def test_stall_induced_deadlock_lists_injected_faults(self):
        # A rank stalled past the engine timeout: the deadlock report
        # must point at the injected fault.
        from repro.mpisim.faults import FaultPlan

        plan = FaultPlan(
            seed=1, stall_ranks=(0,), stall_after_op=0, stall_seconds=3.0
        )
        engine = Engine(2, timeout=0.5, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=0)
            else:
                comm.recv(source=0, tag=0)

        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        assert "injected faults" in str(ei.value)
        assert "stall@rank0" in str(ei.value)


class TestRendezvousDiagnostics:
    """The all-ranks backends' collectives meet at the communicator's
    rendezvous instead of exchanging messages; a rank that never shows
    up must be as diagnosable as a receive that never matches."""

    @staticmethod
    def _bufs(comm, m=8):
        return {
            "send": np.full(m, comm.rank, np.uint8),
            "recv": np.zeros(m, np.uint8),
        }

    def test_skipped_collective_names_rendezvous_and_arrivals(self):
        from repro.core.backend import get_backend

        topo = CartTopology((3,), periods=(True,))
        sched = _one_round_schedule((1,), kind="ring-alltoall")
        engine = Engine(3, timeout=1.0)

        def fn(comm):
            if comm.rank == 2:
                return  # skips the collective
            get_backend("batched").run(comm, topo, sched, self._bufs(comm))

        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        err = ei.value
        assert set(err.stuck_ranks) == {0, 1}
        for r in (0, 1):
            detail = err.stuck_info[r].detail
            assert "rendezvous(comm=('world',))" in detail
            assert "2 of 3 ranks arrived" in detail
        assert "2 of 3 ranks arrived" in str(err)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    def test_rank_failing_before_arrival_aborts_the_waiters(self):
        import time

        from repro.core.backend import get_backend
        from repro.mpisim.exceptions import AbortError, RankFailedError

        topo = CartTopology((3,), periods=(True,))
        sched = _one_round_schedule((1,), kind="ring-alltoall")
        engine = Engine(3, timeout=30.0)
        aborted = []

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.05)  # let the others park first
                raise ValueError("rank 1 never arrives")
            try:
                get_backend("lockstep").run(
                    comm, topo, sched, self._bufs(comm)
                )
            except AbortError as exc:
                aborted.append((comm.rank, str(exc)))
                raise

        t0 = time.monotonic()
        with pytest.raises(RankFailedError) as ei:
            engine.run(fn)
        assert time.monotonic() - t0 < 5.0  # not the 30 s engine timeout
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, ValueError)
        assert sorted(r for r, _ in aborted) == [0, 2]
        assert all("rendezvous" in text for _, text in aborted)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0
