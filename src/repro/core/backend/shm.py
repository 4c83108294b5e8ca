"""Shared-memory backend: one OS process per rank.

The threaded backend cannot exploit more than one core for the
pack/unpack copies (the GIL serializes them); this backend runs each
rank in its own forked process, with all user buffers and all message
payloads living in a single ``multiprocessing.shared_memory`` segment.

Layout of the segment, computed by the parent before forking:

* one region per (rank, buffer name) holding that rank's named user
  buffers (the ``"temp"`` scratch stays process-private — nothing else
  reads it);
* one region per (phase, round) of ``p × nbytes`` message slots, where
  ``nbytes`` is the round's uniform payload size (SPMD schedules send
  the same-sized payload from every rank).  Slot ``r`` of a round is
  written only by rank ``r`` and read only by ``r``'s round target, so
  no two processes ever write the same bytes.

The transport defers delivery exactly like the lockstep backend, but in
parallel: ``post_send`` packs straight into the sender's slot
(:meth:`~repro.mpisim.datatypes.BlockSet.pack_into`, no intermediate
``bytes``), and ``waitall`` is one ``multiprocessing.Barrier`` wait —
after which every slot of the phase is fully written — followed by
in-place ``unpack_from`` reads.  Slots are unique per (phase, round), so
one barrier per phase suffices: a rank cannot overwrite a slot before
its reader has consumed it, because the reader's next write targets a
different region.

Worker failures abort the barrier (waking every sibling with
``BrokenBarrierError``) and are reported back over a queue; the parent
turns them into a :class:`~repro.core.backend.base.BackendError`.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend.base import (
    Backend,
    BackendError,
    Transport,
)
from repro.core import plan as plan_mod
from repro.core.backend.interpreter import ScheduleInterpreter
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockSet, byte_view
from repro.mpisim.exceptions import ScheduleError

#: Refuse to fork absurd process counts; override for big-machine runs.
_MAX_RANKS_ENV = "REPRO_SHM_MAX_RANKS"
_DEFAULT_MAX_RANKS = 64


def shm_max_ranks() -> int:
    """The most ranks the shm backend will fork (``REPRO_SHM_MAX_RANKS``)."""
    return int(os.environ.get(_MAX_RANKS_ENV, _DEFAULT_MAX_RANKS))


#: seconds a worker waits at a phase barrier before giving up
_TIMEOUT = 60.0


@dataclass
class _PendingRecv:
    blocks: BlockSet
    buffers: Mapping[str, np.ndarray]
    source: int
    seq: tuple[int, int]


_SEND_TOKEN = object()


def compute_segment_layout(
    schedule: Schedule,
    rank_buffer_sizes: Sequence[Mapping[str, int]],
) -> tuple[list[dict[str, tuple[int, int]]], dict[tuple[int, int], tuple[int, int]], int]:
    """Lay out one shared segment for ``p`` ranks of ``schedule``.

    Returns ``(buffer_table, slots, total)``: per-rank ``name -> (offset,
    nbytes)`` regions for the user buffers, ``(phase, round) -> (base,
    per-slot nbytes)`` for the ``p``-wide message-slot strips, and the
    total segment size.  Pure function of its inputs so the effect
    analyzer can replay the exact layout the backend maps and prove the
    regions disjoint (violation V707) without forking anything.
    """
    offset = 0
    buffer_table: list[dict[str, tuple[int, int]]] = []
    for sizes in rank_buffer_sizes:
        table: dict[str, tuple[int, int]] = {}
        for name, nbytes in sizes.items():
            table[name] = (offset, int(nbytes))
            offset += int(nbytes)
        buffer_table.append(table)
    p = len(rank_buffer_sizes)
    slots: dict[tuple[int, int], tuple[int, int]] = {}
    for i, phase in enumerate(schedule.phases):
        for j, rnd in enumerate(phase.rounds):
            nbytes = rnd.send_blocks.total_nbytes
            slots[(i, j)] = (offset, nbytes)
            offset += p * nbytes
    return buffer_table, slots, offset


class ShmTransport(Transport):
    """One rank's verbs over the mapped segment."""

    def __init__(
        self,
        rank: int,
        segment: np.ndarray,
        slots: Mapping[tuple[int, int], tuple[int, int]],
        barrier: Any,
        timeout: float,
    ) -> None:
        self.rank = rank
        self.segment = segment
        self.slots = slots
        self._barrier = barrier
        self.timeout = timeout

    def _slot(self, rank: int, seq: tuple[int, int]) -> np.ndarray:
        base, nbytes = self.slots[seq]
        start = base + rank * nbytes
        return self.segment[start : start + nbytes]

    def post_send(
        self,
        blocks: BlockSet,
        buffers: Mapping[str, np.ndarray],
        dest: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        blocks.pack_into(buffers, self._slot(self.rank, seq))
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
        self._barrier.wait(self.timeout)
        for token in pending:
            if not isinstance(token, _PendingRecv):
                continue
            data = self._slot(token.source, token.seq)
            token.blocks.unpack_from(
                token.buffers, data[: token.blocks.total_nbytes]
            )


class ShmBackend(Backend):
    """One forked process per rank over one shared segment."""

    name = "shm"

    def execute_all(
        self,
        topo: CartTopology,
        schedule: Schedule,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        plan: plan_mod.BatchedPlan | None = None,
    ) -> None:
        # ``plan`` is not used: the workers look their views up
        p = topo.size
        if len(rank_buffers) != p:
            raise ScheduleError(
                f"need one buffer set per rank: p={p}, got {len(rank_buffers)}"
            )
        max_ranks = shm_max_ranks()
        if p > max_ranks:
            raise BackendError(
                f"shm backend refuses {p} ranks (> {_MAX_RANKS_ENV}="
                f"{max_ranks}); raise the limit explicitly for large runs"
            )
        # Compute coalesced-run plans once, in the parent, before forking.
        schedule.prepare()
        # Lower the plan and take every rank's view here too: children
        # inherit them copy-on-write through the fork, so every worker
        # starts with a plan-cache hit instead of compiling its own.
        # Strictly best-effort: a schedule that cannot compile (e.g.
        # undersized buffers) must fail inside the worker, where the
        # error funnels through the queue as a BackendError like any
        # other failure.
        for r in range(p):
            try:
                plan_mod.get_or_compile(
                    schedule, topo, rank_buffers[r]
                )[0].for_rank(r)
            except Exception:
                break

        # ---- segment layout ------------------------------------------------
        # (rank, name) -> (segment offset, nbytes) regions, then the
        # (phase, round) -> (base, per-slot nbytes) message strips.
        buffer_table, slots, offset = compute_segment_layout(
            schedule,
            [
                {name: int(arr.nbytes) for name, arr in rank_buffers[r].items()}
                for r in range(p)
            ],
        )

        ctx = get_context("fork")
        shm = SharedMemory(create=True, size=max(offset, 1))
        segment = np.frombuffer(shm.buf, dtype=np.uint8)
        try:
            for r in range(p):
                for name, arr in rank_buffers[r].items():
                    off, n = buffer_table[r][name]
                    segment[off : off + n] = byte_view(arr)

            barrier = ctx.Barrier(p)
            errors = ctx.SimpleQueue()

            def worker(rank: int) -> None:
                try:
                    seg = np.frombuffer(shm.buf, dtype=np.uint8)
                    buffers = {
                        name: seg[off : off + n]
                        for name, (off, n) in buffer_table[rank].items()
                    }
                    transport = ShmTransport(rank, seg, slots, barrier, _TIMEOUT)
                    ScheduleInterpreter(
                        transport,
                        topo,
                        schedule,
                        buffers,
                        observe=False,
                    ).run()
                except BaseException:  # noqa: BLE001 - reported to parent
                    errors.put((rank, traceback.format_exc()))
                    barrier.abort()
                    raise SystemExit(1)

            procs = [ctx.Process(target=worker, args=(r,)) for r in range(p)]
            for proc in procs:
                proc.start()
            failed = False
            for proc in procs:
                proc.join(_TIMEOUT + 30.0)
                if proc.is_alive():  # pragma: no cover - hang safety net
                    proc.terminate()
                    proc.join(5.0)
                    failed = True
                elif proc.exitcode != 0:
                    failed = True
            if failed:
                details = []
                while not errors.empty():
                    rank, tb = errors.get()
                    details.append(f"rank {rank}:\n{tb}")
                raise BackendError(
                    "shm worker failed:\n" + ("\n".join(details) or "(no report)")
                )
            # Copy what the plan wrote back into the callers' arrays (a
            # buffer no kernel writes may be read-only).  The written
            # names are the schedule's, whatever the per-rank sizes.
            written = plan_mod.get_or_compile(
                schedule, topo, rank_buffers[0]
            )[0].written
            for r in range(p):
                for name in written.intersection(rank_buffers[r]):
                    off, n = buffer_table[r][name]
                    byte_view(rank_buffers[r][name])[:] = segment[
                        off : off + n
                    ]
        finally:
            # Release the numpy export before closing, or the memoryview
            # refuses to release the mapping.
            del segment
            shm.close()
            shm.unlink()
