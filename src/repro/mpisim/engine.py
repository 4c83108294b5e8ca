"""The process engine: one thread per MPI rank, parked between jobs.

``Engine.run(fn)`` wakes one parked thread ``mpisim-rank-{r}`` per rank
(spawning one only where none is idle), hands each a
:class:`~repro.mpisim.comm.Communicator` bound to its rank, and waits
for the job on one latch.  A job runs in a fresh :mod:`contextvars`
context and a thread parks holding nothing of it, as if it were new
(:func:`pool_info` counts them).  Semantics mirrored from MPI:

* ranks communicate only through the engine — its mailboxes, and the
  per-communicator rendezvous at which all ranks meet by reference —
  there is no shared state between rank functions unless the caller
  introduces it;
* if any rank raises, the run is aborted: all ranks blocked in
  communication wake with :class:`~repro.mpisim.exceptions.AbortError`
  and the original exception is re-raised to the caller wrapped in
  :class:`~repro.mpisim.exceptions.RankFailedError`;
* a global timeout converts silent deadlock into a
  :class:`~repro.mpisim.exceptions.DeadlockError` naming the stuck ranks
  and, via per-rank :class:`~repro.mpisim.exceptions.RankState`, what
  each was doing (operation, phase, round, in-flight receives); a rank
  still running :data:`ABORT_GRACE` s after the abort is abandoned.

The engine is the *correctness* substrate: with Python threads, rank
interleavings are real (if GIL-serialized), so deadlock-freedom claims
are exercised for real.  A :class:`~repro.mpisim.faults.FaultPlan` makes
the interleavings *hostile*: delivery faults are injected in the
mailboxes, stall/kill faults at communicator operation boundaries, and
every failure is attributable through :meth:`Engine.fault_events`.
Modeled *performance* comes from replaying recorded traces through
:mod:`repro.netsim` instead.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from repro.mpisim.faults import FaultPlan

from repro.mpisim.exceptions import (
    AbortError,
    DeadlockError,
    RankFailedError,
    RankState,
)
from repro.mpisim.mailbox import DEFAULT_WAIT_POLICY, Mailbox, WaitPolicy
from repro.mpisim.rendezvous import Rendezvous
from repro.mpisim.trace import TraceRecorder

#: seconds a deadlocked job's ranks get, all together, to unwind after
#: the abort; a worker still running then is abandoned
ABORT_GRACE = 5.0


class PoolInfo(NamedTuple):
    """Rank workers: threads ever spawned, jobs taken by a parked one,
    ones abandoned at a deadlock, and ones parked / running now."""

    spawned: int
    reused: int
    abandoned: int
    idle: int
    busy: int


class _Job:
    """One ``Engine.run``: its ranks still running, and a latch on them."""

    def __init__(self, nranks: int):
        self.pending = set(range(nranks))
        self.lock, self.done = threading.Lock(), threading.Lock()
        self.done.acquire()

    def finish(self, rank: int) -> None:
        with self.lock:
            self.pending.discard(rank)
            if not self.pending:
                self.done.release()

    def wait(self, timeout: float) -> tuple[int, ...]:
        """Wait up to ``timeout`` seconds; return the ranks still running."""
        self.done.acquire(timeout=max(timeout, 0.0))
        with self.lock:
            return tuple(sorted(self.pending))


class _Pool:
    """Rank threads known by their job queues: at most one idle per rank
    index, and a busy one is in no list, so no job reaches it."""

    def __init__(self) -> None:
        self.lock = threading.Condition(threading.Lock())  # notified at busy == 0
        self.idle: dict[int, queue.SimpleQueue] = {}
        self.spawned = self.reused = self.abandoned = self.busy = 0

    def start(self, runner: Callable[[int], None], job: _Job, nranks: int) -> None:
        """Hand ``runner(r)`` to the idle worker of each index ``r``,
        spawning one where there is none."""
        with self.lock:
            workers = [self.idle.pop(r, None) for r in range(nranks)]
            fresh = workers.count(None)
            self.spawned += fresh
            self.reused += nranks - fresh
            self.busy += nranks
        for r, jobs in enumerate(workers):
            if jobs is None:
                jobs = queue.SimpleQueue()
                threading.Thread(
                    target=self._serve, args=(jobs, r),
                    name=f"mpisim-rank-{r}", daemon=True,
                ).start()
            jobs.put((runner, job))

    def _serve(self, jobs: queue.SimpleQueue, rank: int) -> None:
        parked = True
        while parked:
            runner, job = jobs.get()
            # a fresh context per job, as a new thread would start with
            contextvars.Context().run(runner, rank)
            runner = None  # park holding nothing of the job
            # park before the latch counts this rank, so that the
            # caller's next job finds this worker idle
            with self.lock:
                self.busy -= 1
                parked = self.idle.setdefault(rank, jobs) is jobs
                if not self.busy:
                    self.lock.notify_all()
            job.finish(rank)


_POOL = _Pool()
# a forked child has none of its parent's threads
os.register_at_fork(after_in_child=_POOL.__init__)


def pool_info(*, wait: float = 0.0) -> PoolInfo:
    """Counters of the rank workers every :class:`Engine` shares, read
    once none is busy or ``wait`` seconds have passed."""
    with _POOL.lock:
        _POOL.lock.wait_for(lambda: not _POOL.busy, timeout=wait)
        return PoolInfo(
            _POOL.spawned, _POOL.reused, _POOL.abandoned,
            len(_POOL.idle), _POOL.busy,
        )


class Engine:
    """Runtime shared by all ranks of one virtual MPI job.

    Parameters
    ----------
    nranks:
        number of MPI processes (rank threads) to run.
    timeout:
        wall-clock seconds after which a run is declared deadlocked.
    tracing:
        when true, communicators record their operations into
        :attr:`trace` for inspection / network-model replay.
    faults:
        optional :class:`~repro.mpisim.faults.FaultPlan` injected into
        message delivery and operation boundaries.
    wait_policy:
        default :class:`~repro.mpisim.mailbox.WaitPolicy` for receives
        (per-receive timeout and retry backoff); the default blocks
        without polling and relies on abort/deadlock detection.
    """

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = 120.0,
        tracing: bool = False,
        faults=None,
        wait_policy: Optional[WaitPolicy] = None,
    ):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        self.abort_event = threading.Event()
        self.rank_states = [RankState() for _ in range(nranks)]
        self.mailboxes = [
            Mailbox(r, self.abort_event, policy=wait_policy)
            for r in range(nranks)
        ]
        self._wait_policy = wait_policy or DEFAULT_WAIT_POLICY
        #: comm_id -> that communicator's meeting point (created on
        #: first use, so ``dup``/``split`` communicators get their own)
        self._rendezvous: dict[tuple, Rendezvous] = {}
        self._rendezvous_lock = threading.Lock()
        self.trace: Optional[TraceRecorder] = TraceRecorder(nranks) if tracing else None
        self.injector = None
        if faults is not None:
            from repro.mpisim.faults import FaultInjector, FaultPlan

            plan = faults
            if not isinstance(plan, FaultPlan):
                raise TypeError(
                    f"faults must be a FaultPlan, got {type(faults)}"
                )
            self.injector = FaultInjector(plan, nranks)
            self.injector.trace = self.trace
        for mb in self.mailboxes:
            mb.faults = self.injector
            mb.rank_states = self.rank_states
        self._errors: list[tuple[int, BaseException]] = []
        self._errors_lock = threading.Lock()

    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Abort the run: raise the abort flag and wake every rank
        blocked in an untimed receive or parked at a rendezvous."""
        self.abort_event.set()
        for mb in self.mailboxes:
            mb.abort_all()
        for meeting in self._meetings():
            meeting.abort_all()

    def run(
        self,
        fn: Callable[..., Any],
        *,
        args: Sequence[tuple] | None = None,
    ) -> list[Any]:
        """Execute ``fn(comm, *rank_args)`` on every rank.

        ``args`` optionally supplies one extra-argument tuple per rank.
        Returns the list of per-rank return values, indexed by rank.
        """
        from repro.mpisim.comm import Communicator

        if args is not None and len(args) != self.nranks:
            raise ValueError("args must supply one tuple per rank")

        self.abort_event.clear()
        self._errors.clear()
        for mb in self.mailboxes:
            mb.reset()
        with self._rendezvous_lock:
            self._rendezvous.clear()
        for state in self.rank_states:
            state.update(op="idle")
        if self.injector is not None:
            self.injector.reset()
        results: list[Any] = [None] * self.nranks

        def runner(rank: int) -> None:
            comm = Communicator(self, rank, self.nranks)
            extra = args[rank] if args is not None else ()
            try:
                results[rank] = fn(comm, *extra)
            except AbortError:
                pass  # secondary casualty of another rank's failure
            except BaseException as exc:  # noqa: BLE001  # lint: allow(L004) - recorded per rank, re-raised as RankFailedError by run()
                with self._errors_lock:
                    self._errors.append((rank, exc))
                self.abort()

        job = _Job(self.nranks)
        _POOL.start(runner, job, self.nranks)
        stuck = job.wait(self.timeout)
        if stuck:
            # Declare deadlock: gather the stuck set *with* their
            # in-flight state, then give them one window to unwind.
            stuck_info = {i: self._stuck_state(i) for i in stuck}
            self.abort()
            abandoned = job.wait(ABORT_GRACE)
            message = self._deadlock_message(stuck, stuck_info)
            if abandoned:
                with _POOL.lock:
                    _POOL.abandoned += len(abandoned)
                message += f"\n  abandoned {ABORT_GRACE:g}s after the abort: ranks {abandoned}"
            raise DeadlockError(
                message,
                stuck_ranks=stuck,
                stuck_info=stuck_info,
            )

        if self._errors:
            self._errors.sort(key=lambda e: e[0])
            rank, exc = self._errors[0]
            if isinstance(exc, TimeoutError):
                # a per-receive timeout is a locally detected deadlock
                state = self._stuck_state(rank)
                raise DeadlockError(
                    f"rank {rank} timed out waiting ({exc}); "
                    f"state: {state.describe()}",
                    stuck_ranks=(rank,),
                    stuck_info={rank: state},
                ) from exc
            raise RankFailedError(
                f"rank {rank} failed: {exc!r}", rank=rank, cause=exc
            ) from exc
        return results

    def _stuck_state(self, rank: int) -> RankState:
        """The rank's progress state enriched with its in-flight
        receives and the rendezvous it is parked at (for deadlock/abort
        reports)."""
        state = self.rank_states[rank]
        waits = [
            f"recv(src={s}, tag={t})"
            for s, t in self.mailboxes[rank].pending_summary()
        ]
        waits.extend(
            filter(None, (m.waiting_summary(rank) for m in self._meetings()))
        )
        if waits:
            detail = f"waiting on {', '.join(waits)}"
            state = RankState(
                op=state.op, phase=state.phase, round=state.round,
                detail=detail if not state.detail else f"{state.detail}; {detail}",
            )
        return state

    def _deadlock_message(
        self, stuck: tuple[int, ...], stuck_info: dict[int, RankState]
    ) -> str:
        lines = [
            f"engine timeout after {self.timeout}s; "
            f"ranks still blocked: {stuck}"
        ]
        for r in stuck:
            lines.append(f"  rank {r}: {stuck_info[r].describe()}")
        if self.injector is not None and self.injector.events:
            injected = ", ".join(
                e.describe() for e in self.injector.snapshot()
            )
            lines.append(f"  injected faults: {injected}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def mailbox(self, rank: int) -> Mailbox:
        return self.mailboxes[rank]

    def rendezvous(self, comm_id: tuple, size: int) -> Rendezvous:
        """The meeting point of the communicator ``comm_id`` (``size``
        ranks), created by whichever rank asks first."""
        with self._rendezvous_lock:
            meeting = self._rendezvous.get(comm_id)
            if meeting is None:
                meeting = self._rendezvous[comm_id] = Rendezvous(
                    comm_id, size, self.abort_event, self._wait_policy
                )
            return meeting

    def _meetings(self) -> list[Rendezvous]:
        with self._rendezvous_lock:
            return list(self._rendezvous.values())

    def fault_events(self) -> list:
        """Faults injected during the last run (empty without a plan)."""
        if self.injector is None:
            return []
        return self.injector.snapshot()

    def undelivered_messages(self) -> int:
        """Total envelopes still sitting in mailboxes — nonzero after a
        run indicates unmatched sends (a correctness bug in the caller,
        or leftovers of an injected duplicate)."""
        for mb in self.mailboxes:
            mb.flush_held()
        return sum(mb.queued_count for mb in self.mailboxes)


def run_ranks(
    nranks: int,
    fn: Callable[..., Any],
    *,
    timeout: float = 120.0,
    tracing: bool = False,
    args: Sequence[tuple] | None = None,
    faults: Optional["FaultPlan"] = None,
) -> list[Any]:
    """One-shot convenience: build an engine, run ``fn`` on all ranks,
    return the per-rank results."""
    return Engine(nranks, timeout=timeout, tracing=tracing, faults=faults).run(
        fn, args=args
    )
