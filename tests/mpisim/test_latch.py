"""The receive latch and the quiet message path: a posted receive
completes on a one-shot :class:`~repro.mpisim.mailbox.Latch`, and with
no trace and no fault injector a message builds no trace event and
notifies no condition."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.mpisim.exceptions import AbortError, RecvTimeoutError
from repro.mpisim.mailbox import Envelope, Latch, Mailbox, WaitPolicy


def make_env(src=0, tag=5):
    return Envelope(
        src=src, dst=1, tag=tag, comm_id=("world",), payload=b"x", nbytes=1
    )


@pytest.fixture
def abort():
    return threading.Event()


class TestLatch:
    def test_timed_wait_expires_and_returns_false(self):
        latch = Latch()
        t0 = time.monotonic()
        assert latch.wait(timeout=0.05) is False
        assert time.monotonic() - t0 >= 0.04
        assert not latch.is_set()

    def test_set_is_idempotent(self):
        latch = Latch()
        latch.set()
        latch.set()  # a second set neither raises nor re-arms
        assert latch.is_set()
        assert latch.wait() is True
        assert latch.wait(timeout=0.01) is True

    def test_set_wakes_a_blocked_waiter(self):
        latch = Latch()
        got = []
        waiter = threading.Thread(target=lambda: got.append(latch.wait()))
        waiter.start()
        time.sleep(0.05)
        assert not got
        latch.set()
        waiter.join(5.0)
        assert not waiter.is_alive() and got == [True]

    def test_every_waiter_passes_once_set(self):
        latch = Latch()
        got = []
        waiters = [
            threading.Thread(target=lambda: got.append(latch.wait(timeout=5.0)))
            for _ in range(3)
        ]
        for w in waiters:
            w.start()
        latch.set()
        for w in waiters:
            w.join(5.0)
        assert got == [True, True, True]


class TestReceiveOnTheLatch:
    def test_timed_policy_receive_raises_and_counts_retries(self, abort):
        box = Mailbox(
            owner_rank=1,
            abort_event=abort,
            policy=WaitPolicy(timeout=0.05, initial_interval=0.005),
        )
        recv = box.post_recv(3, 8, ("world",))
        with pytest.raises(RecvTimeoutError) as ei:
            box.wait(recv)  # the policy's timeout applies
        err = ei.value
        assert err.retries > 0
        assert err.retries == recv.retries == box.poll_wakeups
        assert err.waited >= 0.05
        assert box.pending_count == 0  # cancelled

    def test_abort_wakes_an_untimed_receive(self, abort):
        box = Mailbox(owner_rank=1, abort_event=abort)
        recv = box.post_recv(0, 5, ("world",))
        raised = []

        def waiter():
            try:
                box.wait(recv)  # no timeout anywhere: blocks on the latch
            except AbortError as exc:
                raised.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        abort.set()
        box.abort_all()
        t.join(5.0)
        assert not t.is_alive()
        assert len(raised) == 1 and recv.aborted
        assert box.poll_wakeups == 0

    def test_no_wakeup_is_lost_under_forced_switching(self):
        """More rank threads than cores, thread switches forced every
        10 µs: every receive of a 200-step ring still completes, with
        the value sent (a lost latch release would hang into the
        engine's deadlock timeout)."""
        from repro.mpisim.engine import Engine

        steps = 200

        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return sum(
                comm.sendrecv(i, right, left, sendtag=1) for i in range(steps)
            )

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = Engine(8, timeout=60.0).run(fn)
        finally:
            sys.setswitchinterval(old)
        assert out == [sum(range(steps))] * 8


class TestQuietPath:
    def test_delivery_notifies_only_a_waiting_probe(self, abort):
        box = Mailbox(owner_rank=1, abort_event=abort)
        notified = []
        orig = box._cond.notify_all
        box._cond.notify_all = lambda: (notified.append(1), orig())[1]
        box.put(make_env(tag=1))
        recv = box.post_recv(0, 2, ("world",))
        box.put(make_env(tag=2))
        assert recv.done.is_set() and not notified

        def late_put():
            time.sleep(0.05)
            box.put(make_env(tag=3))

        t = threading.Thread(target=late_put)
        t.start()
        t0 = time.monotonic()
        box.wait_for_arrival(5.0)  # the probe primitive parks here
        t.join(5.0)
        assert not t.is_alive()
        assert notified and time.monotonic() - t0 < 4.0

    def test_untraced_threaded_alltoall_builds_no_trace_event(self, monkeypatch):
        import repro.mpisim.comm as comm_mod
        from repro import run_cartesian
        from repro.core.neighborhood import Neighborhood

        def refuse(*args, **kwargs):
            raise AssertionError("a trace event was built without a trace")

        monkeypatch.setattr(comm_mod, "TraceEvent", refuse)
        nbh = Neighborhood(np.asarray([(1, 0), (-1, 0), (0, 1), (0, -1)]))

        def fn(cart):
            send = np.arange(4 * 8, dtype=np.uint8) + cart.rank
            recv = np.zeros_like(send)
            cart.alltoall(send, recv)
            handle = cart.alltoall_init(send, recv)
            try:
                for _ in range(3):
                    handle.execute()
            finally:
                handle.free()
            return recv

        out = run_cartesian((3, 3), nbh, fn, info={"backend": "threaded"})
        assert len(out) == 9
