"""Per-communicator rendezvous: all ranks meet by reference.

The ranks of one :class:`~repro.mpisim.engine.Engine` are threads of one
process, so a collective that needs every rank's data in one place does
not have to *send* it anywhere.  A :class:`Rendezvous` is the meeting
point behind :meth:`Communicator.rendezvous
<repro.mpisim.comm.Communicator.rendezvous>`: every rank deposits an
object in its slot — the object itself, no pickle, no envelope — the
last rank to arrive runs the collective's ``action`` over the slot list
while the others stay parked, and every rank leaves with the action's
result (or its exception).

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
        #: the gathering round's deposits, indexed by communicator rank
        self._slots: list = [None] * size
        #: engine ranks that have arrived in the gathering round
        self._arrived: list[int] = []
        self._generation = 0
        #: (result, error) of the last completed round
        self._outcome: tuple[Any, Optional[BaseException]] = (None, None)

    def meet(
        self,
        rank: int,
        engine_rank: int,
        obj: Any,
        action: Callable[[list], Any],
    ) -> Any:
        """Deposit ``obj`` in slot ``rank`` and wait for the round to
        complete.  The last arriver runs ``action(slots)`` — outside the
        lock, so an abort never queues behind it; nobody else can touch
        the round meanwhile, every other rank being parked here — and
        every rank returns its result.  An ``action`` that raises is
        raised on every rank."""
        with self._cond:
            if self._abort.is_set():
                raise self._abort_error(engine_rank)
            generation = self._generation
            self._slots[rank] = obj
            self._arrived.append(engine_rank)
            last = len(self._arrived) == self.size
            if last:
                slots = self._slots
            else:
                self._wait_locked(generation, engine_rank)
                result, error = self._outcome
        if last:
            error = None
            try:
                result = action(slots)
            except BaseException as exc:  # noqa: BLE001  # lint: allow(L004) - published, then raised on every rank below
                result, error = None, exc
            with self._cond:
                # drop the references: the callers own their objects
                self._slots = [None] * self.size
                self._arrived = []
                self._outcome = (result, error)
                self._generation += 1
                self._cond.notify_all()
        if error is not None:
            raise error
        return result

    def _wait_locked(self, generation: int, engine_rank: int) -> None:
        """Park until the round completes.  Caller holds the condition."""
        timeout = self._policy.timeout
        start = time.monotonic()
        while self._generation == generation:
            if self._abort.is_set():
                raise self._abort_error(engine_rank)
            if timeout is None:
                self._cond.wait()
                continue
            remaining = start + timeout - time.monotonic()
            if remaining <= 0:
                raise RecvTimeoutError(
                    f"rank {engine_rank}: timed out after {timeout}s at "
                    f"{self._describe_locked()}",
                    rank=engine_rank,
                    waited=time.monotonic() - start,
                )
            self._cond.wait(remaining)

    def _describe_locked(self) -> str:
        where = f"rendezvous(comm={self.comm_id})"
        if len(self._arrived) == self.size:
            return (
                f"{where}: all {self.size} ranks arrived, rank "
                f"{self._arrived[-1]} is running the action"
            )
        return (
            f"{where}: {len(self._arrived)} of {self.size} ranks arrived"
        )

    def _abort_error(self, engine_rank: int) -> AbortError:
        return AbortError(
            f"rank {engine_rank}: run aborted at {self._describe_locked()}",
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
            if engine_rank in self._arrived:
                return self._describe_locked()
        return None
