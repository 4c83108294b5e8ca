"""``Communicator.rendezvous``: all ranks meet by reference.

The primitive behind the all-ranks backends' collectives: every rank
deposits an object (the object itself), exactly one rank runs the
action over all of them, every rank gets the result — and a rendezvous
that cannot complete fails as cleanly as a receive that cannot match.
``Communicator.share`` is its one-sided form, a broadcast by reference
(communicator creation's isomorphism check): only the root is waited
for.
"""

import sys
import threading
import time

import pytest

from repro.mpisim.engine import Engine, run_ranks
from repro.mpisim.exceptions import (
    AbortError,
    DeadlockError,
    RankFailedError,
    RankKilledError,
)
from repro.mpisim.faults import FaultPlan
from repro.mpisim.mailbox import WaitPolicy


class TestMeeting:
    def test_objects_meet_by_reference_and_action_runs_once(self):
        calls = []

        def fn(comm):
            mine = [comm.rank]

            def action(slots):
                calls.append(threading.current_thread().name)
                for r, slot in enumerate(slots):
                    slot.append(f"seen {r}")
                return [id(slot) for slot in slots]

            ids = comm.rendezvous(mine, action)
            # the action worked on this rank's own list, not a copy
            return ids[comm.rank] == id(mine) and mine == [
                comm.rank, f"seen {comm.rank}"
            ]

        assert run_ranks(5, fn, timeout=30) == [True] * 5
        assert len(calls) == 1

    def test_back_to_back_rounds_do_not_mix(self):
        rounds = 50
        ran = []

        def fn(comm):
            out = []
            for i in range(rounds):

                def action(slots, i=i):
                    ran.append(i)
                    assert slots == [(r, i) for r in range(comm.size)]
                    return i * 100

                out.append(comm.rendezvous((comm.rank, i), action))
            return out

        want = [i * 100 for i in range(rounds)]
        assert run_ranks(4, fn, timeout=30) == [want] * 4
        assert ran == list(range(rounds))

    def test_split_communicators_meet_separately_by_local_rank(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2, key=-comm.rank)
            # slots are indexed by the sub-communicator's local ranks
            got = sub.rendezvous(comm.rank, list)
            return got, sub.rank, sub.group

        res = run_ranks(6, fn, timeout=30)
        for world, (got, local, group) in enumerate(res):
            assert got == group
            assert got[local] == world
        assert res[0][0] == [4, 2, 0] and res[1][0] == [5, 3, 1]

    def test_dup_has_its_own_meeting_point(self):
        def fn(comm):
            other = comm.dup()
            return (
                comm.rendezvous("a", "".join),
                other.rendezvous("b", "".join),
            )

        engine = Engine(3, timeout=30)
        assert engine.run(fn) == [("aaa", "bbb")] * 3
        assert set(engine._rendezvous) == {("world",), ("world", 1)}

    def test_share_returns_the_roots_object_and_the_root_does_not_wait(self):
        """A broadcast by reference: the root leaves at once — here
        through every round, interleaved with meetings it must wait in,
        before anybody else has even arrived at the first — the rounds
        do not mix, and none is left behind."""
        rounds = 20
        engine = Engine(4, timeout=30)
        root_done = threading.Event()

        def fn(comm):
            out = []
            if comm.rank != 1:
                assert root_done.wait(10)
            for i in range(rounds):
                out.append(comm.share([comm.rank, i], root=1))
            root_done.set()
            out.append(comm.rendezvous(comm.rank, sum))
            out.append(comm.share(comm.rank))
            return out

        res = engine.run(fn)
        for out in res:
            assert out[:rounds] == [[1, i] for i in range(rounds)]
            assert out[rounds:] == [6, 0]
        # by reference: everybody holds the root's own lists
        assert {id(out[0]) for out in res} == {id(res[1][0])}
        assert engine._rendezvous[("world",)]._rounds == {}

    def test_a_missing_root_is_named_and_a_missing_leaf_is_not_waited_for(self):
        def fn(comm, absent):
            if comm.rank != absent:
                return comm.share(comm.rank * 10, root=2)

        assert Engine(4, timeout=5).run(fn, args=[(0,)] * 4) == [None, 20, 20, 20]
        with pytest.raises(DeadlockError) as ei:
            Engine(4, timeout=0.5).run(fn, args=[(2,)] * 4)
        assert set(ei.value.stuck_ranks) == {0, 1, 3}
        assert "the root (rank 2 of it) has not arrived" in str(ei.value)

    def test_no_messages_are_posted(self):
        engine = Engine(4, timeout=30, tracing=True)
        engine.run(lambda comm: comm.rendezvous(comm.rank, sum))
        assert all(not stream for stream in engine.trace.events)
        assert engine.undelivered_messages() == 0


class TestFailures:
    def test_raising_action_is_raised_on_every_rank(self):
        seen = []

        def fn(comm):
            def action(slots):
                raise ValueError("boom")

            try:
                comm.rendezvous(None, action)
            except ValueError as exc:
                seen.append((comm.rank, exc))
                raise

        engine = Engine(4, timeout=30)
        with pytest.raises(RankFailedError) as ei:
            engine.run(fn)
        # whoever ran the action, the report is deterministic: rank 0
        assert ei.value.rank == 0
        assert str(ei.value.cause) == "boom"
        assert sorted(r for r, _ in seen) == [0, 1, 2, 3]
        assert len({id(exc) for _, exc in seen}) == 1
        # the engine is reusable: the next run starts from fresh state
        assert engine.run(lambda comm: comm.rendezvous(1, sum)) == [4] * 4

    def test_wait_policy_timeout_is_honoured(self):
        engine = Engine(
            2, timeout=30, wait_policy=WaitPolicy(timeout=0.2)
        )
        late = []

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.6)
                try:
                    comm.rendezvous(None, len)
                except AbortError:
                    late.append("aborted")
                    raise
            else:
                comm.rendezvous(None, len)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as ei:
            engine.run(fn)
        assert time.monotonic() - t0 < 5.0
        assert ei.value.stuck_ranks == (0,)
        assert "1 of 2 ranks arrived" in str(ei.value)
        assert late == ["aborted"]

    def test_kill_fault_lands_on_the_rendezvous(self):
        plan = FaultPlan(seed=1, kill_ranks=(1,), kill_after_op=0)
        engine = Engine(3, timeout=30, faults=plan)
        with pytest.raises(RankFailedError) as ei:
            engine.run(lambda comm: comm.rendezvous(comm.rank, sum))
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, RankKilledError)
        assert "rendezvous" in str(ei.value.cause)

    def test_stall_fault_delays_but_completes(self):
        plan = FaultPlan(
            seed=1, stall_ranks=(0,), stall_after_op=0, stall_seconds=0.05
        )
        engine = Engine(3, timeout=30, faults=plan)
        assert engine.run(lambda comm: comm.rendezvous(comm.rank, sum)) == [3] * 3
        (event,) = engine.fault_events()
        assert event.kind == "stall" and "rendezvous" in event.detail


def test_stress_more_ranks_than_cores():
    """Many rounds with forced thread switches: a lost arrival, a round
    mixing generations or an action run twice would break the counts."""
    ranks, rounds = 12, 200
    ran = []

    def fn(comm):
        total = 0
        for i in range(rounds):

            def action(slots, i=i):
                ran.append(i)
                assert slots == [i] * ranks
                return i

            total += comm.rendezvous(i, action)
            # one-sided rounds in between: their root runs ahead
            assert comm.share((comm.rank, i), root=i % ranks) == (i % ranks, i)
        return total

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = run_ranks(ranks, fn, timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert res == [sum(range(rounds))] * ranks
    assert ran == list(range(rounds))
