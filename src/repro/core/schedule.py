"""Communication-schedule representation shared by both algorithms.

A schedule (Section 3) is a sequence of *phases*; each phase is a set of
independent send-receive *rounds* executed with non-blocking operations
and completed by one ``waitall`` (Listing 5).  A round is described by

* a relative offset vector — the round's send target is
  ``(R + vec) mod dims`` and its receive source ``(R − vec) mod dims``
  for the executing process ``R``; storing the *relative* vector keeps
  the schedule rank-independent (all processes share one schedule
  object, resolving ranks at execution time);
* a send :class:`~repro.mpisim.datatypes.BlockSet` and a receive
  :class:`~repro.mpisim.datatypes.BlockSet` — the grouped data blocks of
  the round (the committed derived datatypes of Algorithm 1).

A final non-communication phase performs rank-local copies (blocks for
the zero offset vector, and duplicate-vector fan-out in the allgather
case).

Schedules are pure data: building one costs O(td) (Proposition 3.1) and
it can be executed any number of times — this is what the ``*_init``
persistent operations hand back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.analyze.report import ScheduleValidationError
from repro.core.neighborhood import Neighborhood
from repro.mpisim.datatypes import BlockRef, BlockSet, byte_view
from repro.mpisim.exceptions import ScheduleError


@dataclass
class Round:
    """One send-receive exchange: all blocks sharing a direction."""

    #: relative offset of the send target (receive source is its negation
    #: unless ``recv_offset`` overrides it)
    offset: tuple[int, ...]
    send_blocks: BlockSet
    recv_blocks: BlockSet
    #: number of *logical* data blocks combined into this round (a logical
    #: block described by a multi-region `w` datatype still counts once)
    logical_blocks: int = 0
    #: optional independent receive-source offset: the receive source is
    #: ``(R − recv_offset) mod dims``.  ``None`` (the isomorphic default)
    #: means ``recv_offset == offset`` — the symmetric sendrecv exchange
    #: of Listing 4.  The general form exists because MPI sendrecv allows
    #: it; the static verifier is what proves a given choice sound.
    recv_offset: Optional[tuple[int, ...]] = None

    @property
    def recv_source_offset(self) -> tuple[int, ...]:
        """Offset whose *negation* locates the receive source."""
        return self.offset if self.recv_offset is None else self.recv_offset

    def validate(self) -> None:
        if self.send_blocks.total_nbytes != self.recv_blocks.total_nbytes:
            raise ScheduleValidationError.single(
                "V103",
                f"round to {self.offset}: send "
                f"{self.send_blocks.total_nbytes} B != recv "
                f"{self.recv_blocks.total_nbytes} B",
            )
        # Send/receive *byte* sizes must match; block-reference counts may
        # differ (a multi-region `w` layout can pair with one temp slot).
        self.recv_blocks.check_disjoint()

    @property
    def nbytes(self) -> int:
        return self.send_blocks.total_nbytes

    @property
    def block_count(self) -> int:
        return self.logical_blocks


@dataclass
class LocalCombine:
    """A rank-local combine (reduction) step.

    Folds the ``src`` region into the ``dst`` accumulator region with the
    schedule's combine operator.  Accumulators use first-write-wins
    initialization: the first step targeting a given ``dst`` region is a
    plain copy (no operator identity element is ever materialized), every
    later one applies the operator.  The resolution from "step" to
    "copy or combine" is static per rank, so the plan compiler bakes it
    into per-step rank-row masks.

    ``when_round`` gates the step on delivery: the step only executes if
    round ``when_round`` of the owning phase actually received (its
    source rank exists on the mesh).  ``None`` means unconditional —
    pre-steps (seeding from the rank's own send buffer) and all steps of
    fully periodic schedules use it.
    """

    src: BlockRef
    dst: BlockRef
    when_round: Optional[int] = None

    def validate(self) -> None:
        if self.src.nbytes != self.dst.nbytes:
            raise ScheduleValidationError.single(
                "V104",
                f"local combine size mismatch: {self.src} -> {self.dst}",
            )


@dataclass
class Phase:
    """One group of independent rounds; ``dim`` is the dimension the
    phase routes along (``None`` for the local-copy phase marker).

    ``combine_steps`` run *after* the phase's ``waitall``, in order: they
    fold the staging regions the phase's rounds received into accumulator
    regions (reduction schedules only; empty otherwise)."""

    dim: int | None
    rounds: list[Round] = field(default_factory=list)
    combine_steps: list[LocalCombine] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rounds)


@dataclass
class LocalCopy:
    """A rank-local block copy executed after the communication phases."""

    src: BlockRef
    dst: BlockRef

    def validate(self) -> None:
        if self.src.nbytes != self.dst.nbytes:
            raise ScheduleValidationError.single(
                "V104", f"local copy size mismatch: {self.src} -> {self.dst}"
            )


@dataclass
class Schedule:
    """A complete, reusable communication schedule."""

    kind: str  # "alltoall" | "allgather" | "trivial-alltoall" | ...
    neighborhood: Neighborhood
    phases: list[Phase]
    local_copies: list[LocalCopy] = field(default_factory=list)
    #: bytes of scratch space the executor must provide as buffer "temp"
    temp_nbytes: int = 0
    #: informational: which named buffers the block sets reference
    buffer_names: tuple[str, ...] = ("send", "recv", "temp")
    #: per-neighbor user-buffer layout (``send_layout[i]`` = where block
    #: ``i`` lives in the send buffer); builders record these so the
    #: static verifier can check delivered content against the
    #: collective's definition.  ``None`` for hand-built schedules.
    send_layout: Optional[list[BlockSet]] = field(
        default=None, repr=False, compare=False
    )
    recv_layout: Optional[list[BlockSet]] = field(
        default=None, repr=False, compare=False
    )
    #: reduction metadata (``None``/empty for pure data-movement
    #: schedules).  ``combine_op`` is an operator token resolvable by
    #: :func:`repro.core.reduce_schedule.resolve_op_token`;
    #: ``combine_dtype`` the numpy dtype string the combine kernels view
    #: buffer regions as; ``pre_steps`` seed accumulators from the send
    #: buffer before phase 0; ``required_outputs`` are regions that must
    #: have been initialized when the schedule finishes (on meshes, a
    #: rank whose every contributor fell off the edge has none).
    combine_op: Optional[str] = None
    combine_dtype: Optional[str] = None
    pre_steps: list[LocalCombine] = field(default_factory=list)
    required_outputs: tuple[BlockRef, ...] = ()
    #: coalesced local-copy plan, precomputed by :meth:`prepare`
    _copy_runs: list[LocalCopy] | None = field(
        default=None, repr=False, compare=False
    )
    #: what one execution is accounted as — ``(rounds, volume in
    #: blocks, volume in bytes, local-copy bytes)`` — summed over every
    #: block once, by :meth:`prepare`, instead of on every call of
    #: every rank
    _totals: tuple[int, int, int, int] | None = field(
        default=None, repr=False, compare=False
    )
    #: lowered execution plans, one per (dims, periods, buffer
    #: signature), keyed and populated by :mod:`repro.core.plan`.
    #: Living on the schedule object, they share its cache lifetime:
    #: evicting the schedule-cache entry invalidates its plans with it.
    _plans: dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: bumped by :meth:`clear_plans` (under the plan-module lock) so a
    #: plan compile racing an invalidation never files its result
    _plans_generation: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    # metrics (Propositions 3.2 / 3.3)
    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def num_rounds(self) -> int:
        """Total communication rounds ``C``."""
        return sum(len(ph) for ph in self.phases)

    @property
    def rounds_per_phase(self) -> tuple[int, ...]:
        return tuple(len(ph) for ph in self.phases)

    @property
    def volume_blocks(self) -> int:
        """Per-process communication volume ``V`` in blocks: total number
        of block-sends across all rounds."""
        return sum(r.block_count for ph in self.phases for r in ph.rounds)

    @property
    def volume_bytes(self) -> int:
        """Per-process communication volume in bytes."""
        return sum(r.nbytes for ph in self.phases for r in ph.rounds)

    def all_rounds(self) -> list[Round]:
        return [r for ph in self.phases for r in ph.rounds]

    @property
    def is_reduction(self) -> bool:
        """Whether this schedule carries a combine operator (reduction
        family) as opposed to pure data movement."""
        return self.combine_op is not None

    @property
    def combine_step_count(self) -> int:
        return len(self.pre_steps) + sum(
            len(ph.combine_steps) for ph in self.phases
        )

    # ------------------------------------------------------------------
    def validate(self, buffers: Mapping[str, np.ndarray] | None = None) -> None:
        """Internal-consistency checks; with ``buffers`` given, also bound
        checks every block reference."""
        for ph in self.phases:
            for r in ph.rounds:
                r.validate()
                if buffers is not None:
                    r.send_blocks.validate_against(buffers)
                    r.recv_blocks.validate_against(buffers)
            for cs in ph.combine_steps:
                cs.validate()
                if cs.when_round is not None and not (
                    0 <= cs.when_round < len(ph.rounds)
                ):
                    raise ScheduleValidationError.single(
                        "V104",
                        f"combine step gated on round {cs.when_round} of a "
                        f"{len(ph.rounds)}-round phase",
                    )
        for cs in self.pre_steps:
            cs.validate()
        for lc in self.local_copies:
            lc.validate()

    def prepare(self) -> "Schedule":
        """Precompute the coalesced-copy fast path: every round's block
        sets collapse adjacent regions into single slice copies, and
        consecutive local copies whose source *and* destination are both
        contiguous merge into one.  The accounting totals are summed
        here too.  Idempotent and cheap to re-call; cached schedules
        are prepared once at build time so repeated executions pay
        nothing."""
        if self._copy_runs is None:
            for ph in self.phases:
                for r in ph.rounds:
                    r.send_blocks.coalesced_runs()
                    r.recv_blocks.coalesced_runs()
            runs: list[LocalCopy] = []
            for lc in self.local_copies:
                if lc.src.nbytes == 0:
                    continue
                if runs:
                    last = runs[-1]
                    if (
                        last.src.buffer == lc.src.buffer
                        and last.dst.buffer == lc.dst.buffer
                        and lc.src.offset == last.src.end()
                        and lc.dst.offset == last.dst.end()
                    ):
                        runs[-1] = LocalCopy(
                            src=BlockRef(
                                last.src.buffer,
                                last.src.offset,
                                last.src.nbytes + lc.src.nbytes,
                            ),
                            dst=BlockRef(
                                last.dst.buffer,
                                last.dst.offset,
                                last.dst.nbytes + lc.dst.nbytes,
                            ),
                        )
                        continue
                runs.append(lc)
            self._copy_runs = runs
        self.totals()
        return self

    def prepared_copy_runs(self) -> list[LocalCopy]:
        """The coalesced local-copy runs (preparing on demand) — the
        input of the plan compiler's fused copy program."""
        if self._copy_runs is None:
            self.prepare()
        return list(self._copy_runs or ())

    def totals(self) -> tuple[int, int, int, int]:
        """``(rounds, volume in blocks, volume in bytes, local-copy
        bytes)`` of one execution — what OpStats accounts per call —
        summed when first asked for, which :meth:`prepare` does."""
        totals = self._totals
        if totals is None:
            totals = self._totals = (
                self.num_rounds,
                self.volume_blocks,
                self.volume_bytes,
                sum(lc.src.nbytes for lc in self.prepared_copy_runs()),
            )
        return totals

    @property
    def local_copy_bytes(self) -> int:
        """Bytes moved by the final non-communication phase."""
        return self.totals()[3]

    def clear_plans(self) -> None:
        """Drop all lowered plans (called when this schedule's cache
        entry is evicted; plans recompile lazily on the next execution).
        A compile in flight when this runs is never cached afterwards
        (generation guard in the plan module)."""
        from repro.core import plan as plan_mod

        plan_mod.invalidate_plans(self)

    def run_local_copies(self, buffers: Mapping[str, np.ndarray]) -> int:
        """Execute the final non-communication phase; returns bytes
        copied (for trace accounting)."""
        if self._copy_runs is None:
            self.prepare()
        moved = 0
        for lc in self._copy_runs or ():
            src_view = byte_view(buffers[lc.src.buffer])
            dst_view = byte_view(buffers[lc.dst.buffer])
            dst_view[lc.dst.offset : lc.dst.offset + lc.dst.nbytes] = src_view[
                lc.src.offset : lc.src.offset + lc.src.nbytes
            ]
            moved += lc.src.nbytes
        return moved

    def describe(self) -> str:
        """Human-readable summary used by examples and debugging."""
        lines = [
            f"{self.kind} schedule: t={self.neighborhood.t}, "
            f"d={self.neighborhood.d}, phases={self.num_phases}, "
            f"rounds={self.num_rounds}, volume={self.volume_blocks} blocks "
            f"({self.volume_bytes} B), temp={self.temp_nbytes} B, "
            f"local copies={len(self.local_copies)}"
        ]
        if self.is_reduction:
            lines[0] += (
                f", op={self.combine_op}/{self.combine_dtype}, "
                f"combine steps={self.combine_step_count}"
            )
        for pi, ph in enumerate(self.phases):
            dim = "local" if ph.dim is None else f"dim {ph.dim}"
            lines.append(f"  phase {pi} ({dim}): {len(ph)} rounds")
            for r in ph.rounds:
                lines.append(
                    f"    -> {r.offset}: {r.block_count} blocks, {r.nbytes} B"
                )
        return "\n".join(lines)


class BoundOp(NamedTuple):
    """One collective resolved against a communicator — the record every
    launcher (blocking call, ``i*`` start, ``*_init`` handle) runs.
    ``CartComm._bind_*`` is the one place these are made from user
    arguments."""

    #: operation name the execution is recorded under in OpStats
    op: str
    schedule: Schedule
    buffers: Mapping[str, np.ndarray]


def uniform_block_layout(sizes: Sequence[int], buffer: str) -> list[BlockSet]:
    """Lay out ``len(sizes)`` blocks back-to-back in one named buffer and
    return one single-block :class:`BlockSet` per index — the standard
    send/receive buffer convention of the MPI neighborhood collectives
    (block ``i`` stored at offset ``Σ sizes[:i]``)."""
    out: list[BlockSet] = []
    off = 0
    for s in sizes:
        if s < 0:
            raise ScheduleError("block sizes must be non-negative")
        out.append(BlockSet([BlockRef(buffer, off, int(s))]))
        off += int(s)
    return out


@lru_cache(maxsize=1024)
def uniform_layout_signature(
    m_bytes: int, count: int, buffer: str
) -> tuple[tuple[tuple[str, int, int], ...], ...]:
    """The canonical signature
    (:func:`~repro.core.schedule_cache.layout_signature`) of
    ``uniform_block_layout([m_bytes] * count, buffer)``, by arithmetic:
    no block set is made to name a layout.  Every rank of a
    communicator asks on its level-1 miss, for the key the first one
    already computed — hence the memo (the tuple is shared, and
    immutable all the way down)."""
    return tuple(
        ((buffer, i * m_bytes, m_bytes),) for i in range(count)
    )
