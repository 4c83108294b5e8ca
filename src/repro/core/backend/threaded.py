"""Threaded backend: the mpisim engine as a transport.

The per-rank transport is a thin adapter over
:class:`~repro.mpisim.comm.Communicator`'s block mode.  ``run`` is the
interpreter over that transport on the calling rank's own thread;
``start`` binds one such interpreter per rank and persistent handle and
re-runs it; ``execute_all`` exists for parity testing and
certification: it spins up a fresh engine with one thread per rank and
runs the interpreter in each.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend.base import Backend, Prepared, Transport
from repro.core.backend.interpreter import ScheduleInterpreter
from repro.core.plan import BatchedPlan
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.comm import Communicator
from repro.mpisim.datatypes import BlockSet


class ThreadedTransport(Transport):
    """One rank's verbs over an mpisim communicator."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.rank = comm.rank

    def post_recv(
        self,
        blocks: BlockSet,
        buffers: Mapping[str, np.ndarray],
        source: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        req = self.comm.irecv_blocks(blocks, buffers, source, tag)
        req.round_index = seq[1]
        return req

    def post_send(
        self,
        blocks: BlockSet,
        buffers: Mapping[str, np.ndarray],
        dest: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        return self.comm.isend_blocks(blocks, buffers, dest, tag)

    def waitall(self, pending: Sequence[Any]) -> None:
        self.comm.waitall(pending)

    # observability --------------------------------------------------------
    def mark(self, note: str) -> None:
        self.comm.mark(note)

    def progress(self, **kwargs: Any) -> None:
        self.comm.progress(**kwargs)

    def record_local(self, nbytes: int, note: str = "") -> None:
        self.comm.record_local(nbytes, note=note)


class ThreadedBackend(Backend):
    """One OS thread per rank (the mpisim engine)."""

    name = "threaded"

    def run(
        self,
        comm: Communicator,
        topo: CartTopology,
        schedule: Schedule,
        buffers: Mapping[str, np.ndarray],
        op: str = "",
    ) -> tuple[bool, int, int]:
        """Per-rank execution: the interpreter right here, on the
        calling rank's transport — no meeting (a rank that calls a
        different collective fails at message matching)."""
        return ScheduleInterpreter(
            ThreadedTransport(comm), topo, schedule, buffers
        ).run()

    def start(
        self, comm: Communicator, topo: CartTopology, handle: Any
    ) -> tuple[bool, int, int]:
        """A handle's first start binds this rank's execution: one
        interpreter over the rank's transport and the handle's buffers,
        which looks the rank's plan view up as it runs.  It is kept in
        ``handle.prepared``, and a later start runs the phase loop
        only (a plan hit).  No meeting: a rank has nothing to prepare
        with the others."""
        if handle.prepared is None:
            interp = ScheduleInterpreter(
                ThreadedTransport(comm), topo, handle.schedule, handle.buffers
            )
            outcome = interp.run()
            handle.prepared = Prepared(
                handle.op, handle.schedule, interp.plan, interp.run
            )
            return outcome
        return handle.prepared.run()

    def execute_all(
        self,
        topo: CartTopology,
        schedule: Schedule,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        plan: BatchedPlan | None = None,
    ) -> None:
        # ``plan`` is not used: the rank threads look their views up
        from repro.mpisim.engine import Engine

        def fn(comm: Communicator) -> None:
            ScheduleInterpreter(
                ThreadedTransport(comm),
                topo,
                schedule,
                rank_buffers[comm.rank],
            ).run()

        Engine(topo.size, timeout=120.0).run(fn)
