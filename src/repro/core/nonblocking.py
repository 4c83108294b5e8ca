"""Split-phase (non-blocking) Cartesian collectives.

The paper specifies the ``*_init`` calls "in order to later provide for
non-blocking, persistent versions of the Cartesian collectives (as
currently discussed in the MPI Forum)".  This module supplies that
non-blocking execution mode for any precomputed schedule, as a
split-phase front-end over the shared
:class:`~repro.core.backend.interpreter.ScheduleInterpreter` (empty
phases are skipped silently; no trace marks are emitted — consistent
with real non-blocking collectives whose progress is not observable):

* ``start()`` posts the first phase's non-blocking operations and
  returns immediately — computation can overlap the communication;
* ``test()`` makes progress without blocking: when the current phase's
  requests have completed, the next phase is posted;
* ``wait()`` drives the remaining phases to completion and performs the
  final local-copy phase.

Because two outstanding collectives may interleave their phases
differently on different ranks, every started operation draws a fresh
tag from the communicator-consistent sequence (all ranks must start
collectives in the same order — the usual MPI requirement), so FIFO
channel matching can never pair messages across operations.

Split-phase execution requires a per-rank transport; it always runs
over the threaded one, regardless of the backend selected for blocking
collectives.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.backend.interpreter import ScheduleInterpreter
from repro.core.backend.threaded import ThreadedTransport
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.comm import Communicator


class SplitPhaseOp:
    """One started non-blocking collective execution.  ``on_done`` is
    called once, with the interpreter's ``(plan_hit, bytes_packed,
    bytes_copied)``, when the execution completes."""

    def __init__(
        self,
        comm: Communicator,
        topo: CartTopology,
        schedule: Schedule,
        buffers: Mapping[str, np.ndarray],
        tag: int,
        on_done: Optional[Callable[[bool, int, int], None]] = None,
    ):
        self.comm = comm
        self.topo = topo
        self.schedule = schedule
        self.tag = tag
        self._on_done = on_done
        self._interp = ScheduleInterpreter(
            ThreadedTransport(comm),
            topo,
            schedule,
            buffers,
            tag=tag,
            observe=False,
            skip_empty_phases=True,
        )
        self.buffers = self._interp.buffers
        self._advance(first=True)

    # ------------------------------------------------------------------
    def _advance(self, first: bool = False) -> None:
        """Complete the posted phase (``first``: begin instead); post
        the next or finish locally."""
        interp = self._interp
        try:
            if first:
                interp.begin()
            else:
                interp.complete_phase()
            if not interp.post_next_phase():
                interp.finish()  # nothing left to communicate
                if self._on_done is not None:
                    self._on_done(*interp.outcome)
        except BaseException:
            interp.abort()
            raise

    # ------------------------------------------------------------------
    def test(self) -> bool:
        """Non-blocking progress: returns True once complete."""
        if self._interp.done:
            return True
        if all(r.test() for r in self._interp.pending):
            self._advance()
            return self.test() if not self._interp.pending else self._interp.done
        return False

    def wait(self) -> None:
        """Block until the collective completes (idempotent)."""
        while not self._interp.done:
            self._advance()

    @property
    def completed(self) -> bool:
        return self._interp.done

    @property
    def phases_remaining(self) -> int:
        return self._interp.phases_remaining

    def __repr__(self) -> str:
        return (
            f"SplitPhaseOp({self.schedule.kind}, tag={self.tag}, "
            f"phase={len(self.schedule.phases) - self.phases_remaining}/"
            f"{len(self.schedule.phases)}, done={self.completed})"
        )

