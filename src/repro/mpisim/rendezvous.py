"""Per-communicator rendezvous: all ranks meet by reference.

The ranks of one :class:`~repro.mpisim.engine.Engine` are threads of one
process, so a collective that needs every rank's data in one place does
not have to *send* it anywhere.  A :class:`Rendezvous` is the meeting
point behind :meth:`Communicator.rendezvous
<repro.mpisim.comm.Communicator.rendezvous>`: every rank deposits an
object in its slot — the object itself, no pickle, no envelope — the
last rank to arrive runs the collective's ``action`` over the slot list
while the others stay parked, and every rank leaves with the action's
result (or its exception).  :meth:`Rendezvous.broadcast` is the
one-sided form, a broadcast by reference: every rank leaves with the
root's object and only the root is waited for — it does not wait at
all, nor does a rank that arrives after it.  Rounds are kept apart by
each rank's own count of its visits here, so a rank can be rounds ahead
of the others.

Waiting follows the mailbox rules: with no timeout a waiter parks on the
condition with no periodic wake-up and relies on the engine's
abort/deadlock machinery; with a :class:`~repro.mpisim.mailbox.WaitPolicy`
timeout the wait is bounded and expires with a
:class:`~repro.mpisim.exceptions.RecvTimeoutError`.
:meth:`Rendezvous.abort_all` (called by ``Engine.abort``) wakes every
waiter with :class:`~repro.mpisim.exceptions.AbortError`.  A rendezvous
that failed on any rank is over: the engine aborts the run, as for any
rank failure, and the next ``Engine.run`` starts with fresh meeting
points.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.mpisim.exceptions import AbortError, RecvTimeoutError
from repro.mpisim.mailbox import WaitPolicy


class _Round:
    """One visit of every rank: the deposits (of a meeting), who has
    arrived, who is parked, and what they leave with."""

    __slots__ = ("slots", "arrived", "parked", "outcome", "root")

    def __init__(self, size: int) -> None:
        #: the deposits, indexed by communicator rank
        self.slots: list = [None] * size
        #: engine ranks that have deposited, in arrival order
        self.arrived: list[int] = []
        #: engine ranks waiting for the outcome
        self.parked: set[int] = set()
        #: (result, error) once the action has run / the root has arrived
        self.outcome: Optional[tuple[Any, Optional[BaseException]]] = None
        #: the communicator rank a broadcast waits for (None: a meeting)
        self.root: Optional[int] = None


class Rendezvous:
    """The meeting point of one communicator's ``size`` ranks."""

    def __init__(
        self,
        comm_id: tuple,
        size: int,
        abort_event: threading.Event,
        policy: WaitPolicy,
    ) -> None:
        self.comm_id = comm_id
        self.size = size
        self._abort = abort_event
        self._policy = policy
        self._cond = threading.Condition()
        #: how many rounds each communicator rank has joined: all ranks
        #: come here in the same order, so its k-th is everybody's k-th
        self._joined = [0] * size
        #: the rounds somebody has joined and not everybody has left
        self._rounds: dict[int, _Round] = {}

    def meet(
        self,
        rank: int,
        engine_rank: int,
        obj: Any,
        action: Callable[[list], Any],
    ) -> Any:
        """Deposit ``obj`` in slot ``rank`` and wait for the round to
        complete.  The last arriver runs ``action(slots)`` — outside the
        lock, so an abort never queues behind it; the round is its alone
        meanwhile, every other rank being parked in it or rounds behind
        — and every rank returns its result.  An ``action`` that raises
        is raised on every rank."""
        with self._cond:
            index, round_ = self._join_locked(rank, engine_rank)
            round_.slots[rank] = obj
            last = len(round_.arrived) == self.size
            if not last:
                result, error = self._wait_locked(index, round_, engine_rank)
        if last:
            error = None
            try:
                result = action(round_.slots)
            except BaseException as exc:  # noqa: BLE001  # lint: allow(L004) - published, then raised on every rank below
                result, error = None, exc
            with self._cond:
                self._complete_locked(index, round_, (result, error))
        if error is not None:
            raise error
        return result

    def broadcast(
        self, rank: int, engine_rank: int, obj: Any, root: int
    ) -> Any:
        """The root's ``obj`` — the object itself — on every rank.  Only
        the root is waited for: it leaves at once, and so does a rank
        that arrives after it."""
        with self._cond:
            index, round_ = self._join_locked(rank, engine_rank)
            round_.root = root
            if rank == root:
                self._complete_locked(index, round_, (obj, None))
                return obj
            if round_.outcome is None:
                return self._wait_locked(index, round_, engine_rank)[0]
            self._retire_locked(index, round_)
            return round_.outcome[0]

    def _join_locked(
        self, rank: int, engine_rank: int
    ) -> tuple[int, _Round]:
        """Enter this rank's next round.  Caller holds the condition."""
        if self._abort.is_set():
            raise self._abort_error(engine_rank)
        index = self._joined[rank]
        self._joined[rank] = index + 1
        round_ = self._rounds.get(index)
        if round_ is None:
            round_ = self._rounds[index] = _Round(self.size)
        round_.arrived.append(engine_rank)
        return index, round_

    def _complete_locked(
        self,
        index: int,
        round_: _Round,
        outcome: tuple[Any, Optional[BaseException]],
    ) -> None:
        """Publish what the ranks of ``round_`` leave with."""
        # drop the references: the callers own their objects
        round_.slots = []
        round_.outcome = outcome
        self._retire_locked(index, round_)
        self._cond.notify_all()

    def _retire_locked(self, index: int, round_: _Round) -> None:
        """Forget a round once every rank has been and gone."""
        if (
            round_.outcome is not None
            and len(round_.arrived) == self.size
            and not round_.parked
        ):
            self._rounds.pop(index, None)

    def _wait_locked(
        self, index: int, round_: _Round, engine_rank: int
    ) -> tuple[Any, Optional[BaseException]]:
        """Park until the round has an outcome; returns it.  Caller
        holds the condition."""
        timeout = self._policy.timeout
        start = time.monotonic()
        round_.parked.add(engine_rank)
        try:
            while round_.outcome is None:
                if self._abort.is_set():
                    raise self._abort_error(engine_rank, round_)
                if timeout is None:
                    self._cond.wait()
                    continue
                remaining = start + timeout - time.monotonic()
                if remaining <= 0:
                    raise RecvTimeoutError(
                        f"rank {engine_rank}: timed out after {timeout}s "
                        f"at {self._describe_locked(round_)}",
                        rank=engine_rank,
                        waited=time.monotonic() - start,
                    )
                self._cond.wait(remaining)
            return round_.outcome
        finally:
            round_.parked.discard(engine_rank)
            self._retire_locked(index, round_)

    def _describe_locked(self, round_: Optional[_Round] = None) -> str:
        where = f"rendezvous(comm={self.comm_id})"
        if round_ is None:
            return where
        if round_.root is not None:
            return f"{where}: the root (rank {round_.root} of it) has not arrived"
        if len(round_.arrived) == self.size:
            return (
                f"{where}: all {self.size} ranks arrived, rank "
                f"{round_.arrived[-1]} is running the action"
            )
        return (
            f"{where}: {len(round_.arrived)} of {self.size} ranks arrived"
        )

    def _abort_error(
        self, engine_rank: int, round_: Optional[_Round] = None
    ) -> AbortError:
        return AbortError(
            f"rank {engine_rank}: run aborted at "
            f"{self._describe_locked(round_)}",
            rank=engine_rank,
        )

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def abort_all(self) -> None:
        """Wake every waiter (the engine has set the abort flag)."""
        with self._cond:
            self._cond.notify_all()

    def waiting_summary(self, engine_rank: int) -> Optional[str]:
        """What ``engine_rank`` is waiting for here, if it is — the
        engine's deadlock report names it."""
        with self._cond:
            for round_ in self._rounds.values():
                running = (
                    round_.outcome is None
                    and len(round_.arrived) == self.size
                    and round_.arrived[-1] == engine_rank
                )
                if engine_rank in round_.parked or running:
                    return self._describe_locked(round_)
        return None
