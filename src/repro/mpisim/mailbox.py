"""Per-rank mailboxes with MPI message-matching semantics.

Every rank owns one :class:`Mailbox`.  A send deposits an
:class:`Envelope` into the destination's mailbox (eager protocol: the
payload is copied at send time, so a send never blocks).  A receive is
*posted* into the mailbox and matched against envelopes.

Matching follows the MPI rules:

* an envelope matches a posted receive when communicator ids are equal,
  the receive's source is :data:`ANY_SOURCE` or equals the envelope's
  source, and the receive's tag is :data:`ANY_TAG` or equals the
  envelope's tag;
* *non-overtaking*: two messages from the same source on the same
  communicator that both match a receive are delivered in send order, and
  two posted receives that both match a message complete in post order.

The implementation keeps envelopes and pending receives in arrival /
posting order and always scans from the front, which realizes both
non-overtaking guarantees.

Waiting is latch-based: a posted receive completes on a one-shot
:class:`Latch` (one bare lock, held from the post and released once, by
the delivery or the abort that completes the receive).  A receive with
no timeout blocks on it without any periodic wakeup; the engine wakes
blocked receivers explicitly on abort (:meth:`Mailbox.abort_all`).  A
receive *with* a timeout — per-call or via the mailbox's default
:class:`WaitPolicy` — waits in exponentially growing backoff slices so
the deadline is honoured without a hard-coded poll tick.  The mailbox's
condition variable serves only the blocking probe: a delivery notifies
it only while a probe waits on it.

Fault injection (:mod:`repro.mpisim.faults`) hooks into delivery:
:meth:`Mailbox.put` consults the engine's injector, which may hold a
``(source, communicator)`` stream back (delay / reorder) or re-deliver a
marked duplicate.  Held streams stay FIFO — later messages of the same
stream queue behind the held one — so MPI's non-overtaking guarantee
survives every injected fault.
"""

from __future__ import annotations

import itertools
import threading
import time
from _thread import allocate_lock
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.mpisim.exceptions import (
    AbortError,
    DuplicateMessageError,
    RankState,
    RecvTimeoutError,
)

#: Wildcard source rank for receives (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard tag for receives (mirrors ``MPI_ANY_TAG``).
ANY_TAG = -1

_envelope_seq = itertools.count()


@dataclass(frozen=True)
class WaitPolicy:
    """Configurable receive-wait behaviour.

    ``timeout``
        default per-receive timeout in seconds (``None`` blocks until
        completion or engine abort — with *no* periodic wakeups).
    ``initial_interval`` / ``backoff`` / ``max_interval``
        when a timeout is in effect, the wait retries in slices growing
        geometrically from ``initial_interval`` by ``backoff`` up to
        ``max_interval`` (retry-with-backoff, replacing the historical
        hard-coded 50 ms poll tick).
    """

    timeout: Optional[float] = None
    initial_interval: float = 0.001
    backoff: float = 2.0
    max_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.initial_interval <= 0:
            raise ValueError("initial_interval must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_interval < self.initial_interval:
            raise ValueError("max_interval must be >= initial_interval")

    def intervals(self) -> Iterator[float]:
        """The unbounded backoff sequence."""
        interval = self.initial_interval
        while True:
            yield interval
            interval = min(interval * self.backoff, self.max_interval)


#: Default policy: block indefinitely (the engine's abort/deadlock
#: machinery is the backstop), 1 ms → 250 ms backoff when a timeout is
#: requested.
DEFAULT_WAIT_POLICY = WaitPolicy()


@dataclass(slots=True)
class Envelope:
    """A message in flight.

    ``payload`` is owned by the envelope (the sender copied its data), so
    the receiver may adopt it without further copying.  ``fault`` marks
    envelopes manufactured by the fault injector (e.g. ``"duplicate"``);
    matching one fails the receive with a typed error.
    """

    src: int
    dst: int
    tag: int
    comm_id: int
    payload: Any
    nbytes: int
    seq: int = field(default_factory=_envelope_seq.__next__)
    fault: Optional[str] = None

    def matches(self, source: int, tag: int, comm_id: int) -> bool:
        """True when this envelope satisfies a receive posted with the
        given ``(source, tag, comm_id)`` triple."""
        if self.comm_id != comm_id:
            return False
        if source != ANY_SOURCE and self.src != source:
            return False
        if tag != ANY_TAG and self.tag != tag:
            return False
        return True


class Latch:
    """A one-shot completion flag: one bare lock, held from creation and
    released once by :meth:`set`.

    The surface of :class:`threading.Event` that receives use
    (``set``/``is_set``/``wait(timeout)``) at the cost of one lock —
    an ``Event`` is a condition variable over a second lock, and its
    ``set`` notifies through both.  A latch is never cleared, so
    :meth:`set` releases at most once and a later call is a no-op;
    :meth:`wait` returns whether the latch is set, like
    ``Event.wait``.  :meth:`set` is a check-then-act, so a latch has
    one setter: a receive's is whoever took it off the mailbox's
    pending list (under the mailbox lock), or its poster when it
    completed at once."""

    __slots__ = ("_lock", "_set")

    def __init__(self) -> None:
        self._lock = allocate_lock()
        self._lock.acquire()
        self._set = False

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if not self._set:
            self._set = True
            self._lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._set:
            return True
        if self._lock.acquire(True, -1 if timeout is None else timeout):
            self._lock.release()  # open again for any later waiter
            return True
        return self._set


class PostedRecv:
    """A receive that has been posted but not yet satisfied."""

    __slots__ = ("source", "tag", "comm_id", "envelope", "done", "aborted", "retries")

    def __init__(self, source: int, tag: int, comm_id: Any) -> None:
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        #: filled in when matched
        self.envelope: Optional[Envelope] = None
        self.done = Latch()
        #: set by :meth:`Mailbox.abort_all` when the engine aborts the run
        self.aborted = False
        #: backoff retries performed while waiting (diagnostics)
        self.retries = 0


@dataclass
class _HeldStream:
    """A ``(src, comm_id)`` stream held back by the fault injector.

    Envelopes release strictly from the front (FIFO); each hold schedules
    one release, and a release pops whatever is at the front, so ordering
    within the stream is preserved no matter when timers fire."""

    envelopes: deque = field(default_factory=deque)
    #: release the front early when another stream delivers (reorder)
    release_on_foreign_put: bool = False


class Mailbox:
    """Mailbox of a single rank.

    Thread-safe: senders call :meth:`put` from their own threads, the
    owning rank posts receives with :meth:`post_recv` and waits on the
    returned :class:`PostedRecv`.
    """

    def __init__(
        self,
        owner_rank: int,
        abort_event: threading.Event,
        *,
        policy: Optional[WaitPolicy] = None,
    ):
        self.owner_rank = owner_rank
        self._abort = abort_event
        self._lock = threading.Lock()
        #: the blocking-probe primitive (Condition.wait releases the
        #: mailbox lock), signalled on abort and, while ``_probing`` is
        #: non-zero, on every delivery
        self._cond = threading.Condition(self._lock)
        #: blocking probes parked on ``_cond`` right now
        self._probing = 0
        self._envelopes: list[Envelope] = []
        self._pending: list[PostedRecv] = []
        #: default wait behaviour (engine-configurable)
        self.policy = policy or DEFAULT_WAIT_POLICY
        #: fault injector consulted at delivery time (set by the engine)
        self.faults = None
        #: the engine's per-rank progress states (set by the engine) —
        #: lets abort/timeout errors name what this rank was doing
        self.rank_states: Optional[list[RankState]] = None
        #: backoff-slice expiries while waiting with a timeout; stays 0
        #: for untimed receives (they block without polling)
        self.poll_wakeups = 0
        self._held: dict[tuple, _HeldStream] = {}

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def put(self, env: Envelope) -> None:
        """Deposit an envelope, applying any injected delivery faults;
        satisfy the oldest matching posted receive if one exists,
        otherwise queue the envelope."""
        injector = self.faults
        if injector is None or not injector.plan.is_active:
            with self._lock:
                self._deliver_locked(env)
            return

        fault = injector.delivery_fault(env.src, self.owner_rank)
        duplicate = None
        if fault.duplicate:
            duplicate = Envelope(
                src=env.src,
                dst=env.dst,
                tag=env.tag,
                comm_id=env.comm_id,
                payload=env.payload,
                nbytes=env.nbytes,
                fault="duplicate",
            )
        stream = (env.src, env.comm_id)
        with self._lock:
            held = self._held.get(stream)
            if held is not None:
                # stream is blocked: queue behind it (FIFO) and schedule
                # one release for this envelope
                held.envelopes.append(env)
                self._schedule_release(stream, 0.0)
            elif fault.delay is not None:
                held = _HeldStream(
                    envelopes=deque([env]),
                    release_on_foreign_put=fault.reorder,
                )
                self._held[stream] = held
                self._schedule_release(stream, fault.delay)
            else:
                self._deliver_locked(env)
                self._release_reordered_locked(exclude=stream)
        if duplicate is not None:
            # the copy trails the original so it can never overtake it
            lag = max(injector.plan.duplicate_lag, 0.0)
            timer = threading.Timer(lag, self._put_duplicate, args=(duplicate,))
            timer.daemon = True
            timer.start()

    def _put_duplicate(self, env: Envelope) -> None:
        with self._lock:
            self._deliver_locked(env)

    def _deliver_locked(self, env: Envelope) -> None:
        """Match or queue one envelope.  Caller holds the lock."""
        if self._probing:
            self._cond.notify_all()
        for i, recv in enumerate(self._pending):
            if env.matches(recv.source, recv.tag, recv.comm_id):
                del self._pending[i]
                recv.envelope = env
                recv.done.set()
                return
        self._envelopes.append(env)

    # ------------------------------------------------------------------
    # held-stream machinery (fault injection)
    # ------------------------------------------------------------------
    def _schedule_release(self, stream: tuple, delay: float) -> None:
        timer = threading.Timer(delay, self._release_one, args=(stream,))
        timer.daemon = True
        timer.start()

    def _release_one(self, stream: tuple) -> None:
        """Deliver the front envelope of a held stream (no-op if the
        stream already drained via an early reorder release)."""
        with self._lock:
            self._release_one_locked(stream)

    def _release_one_locked(self, stream: tuple) -> None:
        held = self._held.get(stream)
        if held is None or not held.envelopes:
            return
        env = held.envelopes.popleft()
        if not held.envelopes:
            del self._held[stream]
        self._deliver_locked(env)

    def _release_reordered_locked(self, exclude: tuple) -> None:
        """A foreign delivery just happened: release the front of every
        reorder-held stream (the reordering has been achieved)."""
        for stream in [
            s
            for s, h in self._held.items()
            if h.release_on_foreign_put and s != exclude
        ]:
            self._release_one_locked(stream)

    def flush_held(self) -> int:
        """Deliver every held envelope immediately (engine teardown);
        returns how many were flushed."""
        flushed = 0
        with self._lock:
            while self._held:
                stream = next(iter(self._held))
                self._release_one_locked(stream)
                flushed += 1
        return flushed

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def post_recv(self, source: int, tag: int, comm_id: int) -> PostedRecv:
        """Post a receive; if a queued envelope already matches, the
        receive completes immediately."""
        recv = PostedRecv(source=source, tag=tag, comm_id=comm_id)
        with self._lock:
            if self._abort.is_set():
                recv.aborted = True
                recv.done.set()
                return recv
            for i, env in enumerate(self._envelopes):
                if env.matches(source, tag, comm_id):
                    del self._envelopes[i]
                    recv.envelope = env
                    recv.done.set()
                    return recv
            self._pending.append(recv)
        return recv

    def wait(
        self,
        recv: PostedRecv,
        timeout: Optional[float] = None,
        policy: Optional[WaitPolicy] = None,
    ) -> Envelope:
        """Block until ``recv`` is satisfied or the engine aborts.

        With no timeout (neither the argument nor the effective policy
        supplies one) the wait is a single latch block — idle ranks do
        not spin.  With a timeout, the wait retries in the policy's
        backoff slices until the deadline.  Returns the matched envelope;
        raises :class:`AbortError` when the engine aborts,
        :class:`RecvTimeoutError` on deadline expiry, and
        :class:`DuplicateMessageError` when the match is an injected
        duplicate.
        """
        if not recv.done.is_set():
            self._block(recv, timeout, policy or self.policy)
        env = recv.envelope
        if env is not None:
            if env.fault == "duplicate":
                raise DuplicateMessageError(
                    f"rank {self.owner_rank}: receive from {recv.source} "
                    f"(tag {recv.tag}) matched an injected duplicate of "
                    f"message {env.src}->{env.dst}",
                    fault=f"duplicate@rank{self.owner_rank}",
                )
            return env
        # woken without an envelope: engine abort
        self.cancel(recv)
        raise self._abort_error(recv)

    def _block(
        self, recv: PostedRecv, timeout: Optional[float], pol: WaitPolicy
    ) -> None:
        """:meth:`wait` for a receive not yet complete: return once it is
        (or the engine aborted); raise on abort or deadline expiry."""
        effective = timeout if timeout is not None else pol.timeout
        start = time.monotonic()
        if self._abort.is_set():
            self.cancel(recv)
            raise self._abort_error(recv)
        if effective is None:
            recv.done.wait()
            return
        deadline = start + effective
        intervals = pol.intervals()
        while not recv.done.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.cancel(recv)
                raise RecvTimeoutError(
                    f"rank {self.owner_rank}: timed out after "
                    f"{effective}s waiting for message from "
                    f"{recv.source} (tag {recv.tag}, comm "
                    f"{recv.comm_id}, {recv.retries} retries)",
                    rank=self.owner_rank,
                    source=recv.source,
                    tag=recv.tag,
                    waited=time.monotonic() - start,
                    retries=recv.retries,
                )
            if recv.done.wait(timeout=min(next(intervals), remaining)):
                return
            recv.retries += 1
            self.poll_wakeups += 1
            if self._abort.is_set():
                return

    def _abort_error(self, recv: PostedRecv) -> AbortError:
        state = None
        if self.rank_states is not None:
            state = self.rank_states[self.owner_rank]
        doing = f" during {state.describe()}" if state is not None else ""
        return AbortError(
            f"rank {self.owner_rank}: run aborted while waiting for "
            f"message from {recv.source} (tag {recv.tag}){doing}",
            rank=self.owner_rank,
            state=state,
        )

    def cancel(self, recv: PostedRecv) -> None:
        """Remove a pending receive (no-op if it already completed)."""
        with self._lock:
            if recv in self._pending:
                self._pending.remove(recv)

    def wait_for_arrival(self, timeout: float) -> None:
        """Block until the next delivery into this mailbox (matched or
        queued) or ``timeout`` seconds — the blocking-probe primitive.
        Spurious wakeups are fine: callers re-check their predicate."""
        with self._cond:
            self._probing += 1
            try:
                self._cond.wait(timeout)
            finally:
                self._probing -= 1

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def abort_all(self) -> None:
        """Wake every pending receive with the abort flag.  Called by the
        engine after setting the abort event, so untimed waits (which
        block without polling) terminate promptly."""
        with self._lock:
            pending, self._pending = self._pending, []
            self._cond.notify_all()
        for recv in pending:
            recv.aborted = True
            recv.done.set()

    def reset(self) -> None:
        """Drop all queued/held/pending state (engine run start)."""
        with self._lock:
            self._envelopes.clear()
            pending, self._pending = self._pending, []
            self._held.clear()
            self.poll_wakeups = 0
        for recv in pending:
            recv.aborted = True
            recv.done.set()

    # ------------------------------------------------------------------
    # introspection (tests, deadlock reports)
    # ------------------------------------------------------------------
    @property
    def queued_count(self) -> int:
        with self._lock:
            return len(self._envelopes)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def pending_summary(self) -> list[tuple[int, int]]:
        """``(source, tag)`` of every in-flight posted receive — the
        engine's deadlock report names these."""
        with self._lock:
            return [(r.source, r.tag) for r in self._pending]

    def drain(self, predicate: Callable[[Envelope], bool] | None = None) -> list[Envelope]:
        """Remove and return queued envelopes (all, or those matching the
        predicate).  Used by tests and by communicator teardown checks."""
        with self._lock:
            if predicate is None:
                out, self._envelopes = self._envelopes, []
                return out
            out = [e for e in self._envelopes if predicate(e)]
            self._envelopes = [e for e in self._envelopes if not predicate(e)]
            return out
