"""The per-rank walk: deterministic all-ranks execution, no threads.

Because Cartesian collective schedules are SPMD — every process executes
the identical phase/round sequence — a schedule can be executed for
*all* ``p`` ranks inside one Python process by driving one
:class:`~repro.core.backend.interpreter.ScheduleInterpreter` per rank
over a shared in-memory exchange.  It asks nothing of the buffers (each
rank looks up the plan of its own sizes and folds byte slices, not
whole buffers) and shares no kernel-launch code with the matrix forms
of :mod:`~repro.core.backend.batched`, which makes it two things:

* the *reference*: the verifier's sentinel execution (V506) drives it
  through :func:`drive_lockstep`, :mod:`repro.core.verify` certifies on
  :class:`LockstepBackend` by default, and the parity tests compare the
  matrix forms against it byte for byte;
* the batched executor's *fallback* for what the matrix forms refuse
  (ranks with differing buffer sizes, reductions over buffers that are
  not a whole number of elements).

It is not a registry entry: on every input both can run, the matrix
forms are several times faster, so the name ``"lockstep"`` resolves to
``"batched"`` (:data:`repro.core.backend.ALIASES`).  Use the class
directly (a :class:`~repro.core.backend.base.Backend` instance is
accepted wherever a name is) to force the walk.

The transport defers delivery: ``post_send`` packs the round's payload
into an in-memory exchange at post time, ``waitall`` unpacks the posted
receives.  The driver interleaves the interpreters phase by phase, so
every rank's sends of a phase are packed before any rank unpacks —
within a phase, schedule construction guarantees reads and writes touch
disjoint storage, and the pack-then-unpack discipline makes the executor
insensitive to that guarantee being violated (a violation would surface
as a data mismatch in validation tests rather than silently depending
on rank order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend.base import Backend, Transport
from repro.core.backend.interpreter import ScheduleInterpreter
from repro.core.plan import GLOBAL_POOL, BatchedPlan
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockSet
from repro.mpisim.exceptions import ScheduleError

class LockstepExchange:
    """The shared in-memory "wire": packed payloads keyed by
    (source, destination, (phase, round)).  Payloads are flat ``uint8``
    arrays drawn from the process buffer pool — returned to it as soon
    as the receiver unpacks, so a steady-state execution allocates no
    wire memory at all."""

    def __init__(self) -> None:
        self.messages: dict[tuple[int, int, tuple[int, int]], np.ndarray] = {}


@dataclass
class _PendingRecv:
    blocks: BlockSet
    buffers: Mapping[str, np.ndarray]
    source: int
    seq: tuple[int, int]


_SEND_TOKEN = object()


class LockstepTransport(Transport):
    """One rank's verbs over the shared exchange."""

    def __init__(self, exchange: LockstepExchange, rank: int) -> None:
        self.exchange = exchange
        self.rank = rank

    def post_send(
        self,
        blocks: BlockSet,
        buffers: Mapping[str, np.ndarray],
        dest: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        # pack at post time: the concurrent-semantics snapshot, gathered
        # straight into a pooled wire buffer (no bytes object)
        wire = GLOBAL_POOL.acquire(blocks.total_nbytes)
        try:
            blocks.pack_into(buffers, wire)
        except BaseException:
            # a failed gather (bad block set, fault injection) must not
            # leak the wire: it is not in the exchange yet, so the
            # backend's abort drain cannot release it for us
            GLOBAL_POOL.release(wire)
            raise
        self.exchange.messages[(self.rank, dest, seq)] = wire
        return _SEND_TOKEN

    def post_recv(
        self,
        blocks: BlockSet,
        buffers: Mapping[str, np.ndarray],
        source: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        return _PendingRecv(blocks, buffers, source, seq)

    def waitall(self, pending: Sequence[Any]) -> None:
        for token in pending:
            if not isinstance(token, _PendingRecv):
                continue
            payload = self.exchange.messages.pop(
                (token.source, self.rank, token.seq), None
            )
            if payload is None:  # pragma: no cover - refused at lowering
                raise ScheduleError(
                    f"rank {self.rank} expects a message from "
                    f"{token.source} which sent none"
                )
            try:
                token.blocks.unpack_from(token.buffers, payload)
            finally:
                # the wire buffer goes back even when the scatter raises
                # (bad block set, fault injection) — an unpack failure
                # must not leak pool bytes
                GLOBAL_POOL.release(payload)


def drive_lockstep(
    interps: Sequence[ScheduleInterpreter], exchange: LockstepExchange
) -> None:
    """Run one interpreter per rank over ``exchange``, phase-interleaved
    (the verifier drives explicit plan views through this too)."""
    try:
        for it in interps:
            it.begin()
        for _ in range(len(interps[0].schedule.phases)):
            # all ranks post (and pack) the phase first …
            for it in interps:
                it.post_next_phase()
            # … then all ranks deliver it.
            for it in interps:
                it.complete_phase()
        for it in interps:
            it.finish()
    except BaseException:
        # return every rank's pooled scratch
        for it in interps:
            it.abort()
        raise
    finally:
        # drain what is still on the wire — a failed run's packed
        # payloads, or sends no rank received — so a run leaves
        # outstanding_bytes exactly where it found them
        for payload in exchange.messages.values():
            GLOBAL_POOL.release(payload)
        exchange.messages.clear()


class LockstepBackend(Backend):
    """All ranks in one process, phases interleaved across ranks (not
    in the registry: the reference executor and the batched backend's
    fallback)."""

    name = "lockstep"

    def execute_all(
        self,
        topo: CartTopology,
        schedule: Schedule,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        plan: BatchedPlan | None = None,
    ) -> None:
        # ``plan`` is not used: every rank looks up the plan of its own
        # buffer sizes, which need not be rank 0's
        p = topo.size
        if len(rank_buffers) != p:
            raise ScheduleError(
                f"need one buffer set per rank: p={p}, got {len(rank_buffers)}"
            )
        exchange = LockstepExchange()
        drive_lockstep(
            [
                ScheduleInterpreter(
                    LockstepTransport(exchange, r),
                    topo,
                    schedule,
                    rank_buffers[r],
                    observe=False,
                )
                for r in range(p)
            ],
            exchange,
        )


#: the walk itself (stateless), for the callers that mean the per-rank
#: form and not whatever a registry name resolves to
WALK = LockstepBackend()
