"""Byte-interval sets for the effect system.

The compiled execution layer (:mod:`repro.core.plan`) expresses every
data movement as numpy selectors — slices for coalesced runs, ``int64``
index arrays for fragmented ones, both counted in lanes (the gcd of a
layout's extents: a byte, a word or a whole block).  The effect analyzer abstracts both to
the same symbolic object: a normalized set of half-open *byte* intervals
``[lo, hi)`` over one buffer — the lane is scaled away here, so every
check downstream is lane-blind.  Interval sets support exactly the algebra
the race checks need — union with overlap detection, intersection, and
bounds — and record whether the *source selector itself* collided (a
fancy index naming one byte twice), which no set union could see after
the fact.

The abstraction step is made once per verification:
:class:`PlanEffects` walks the ops of every kernel and program of a
plan one time and keeps what each consumer asks for — the lanes the
lowering chose and the interval summaries the effect pass checks.

Everything here is pure and deterministic; the analyzer never executes
a kernel to learn what it touches.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from repro.core.plan import (
        BatchedPlan,
        CompiledBlockSet,
        CompiledCopyProgram,
    )

#: A compiled selector as stored in ``CompiledBlockSet._sel_ops`` /
#: ``CompiledCopyProgram._sel_ops``: a slice for a coalesced run, an
#: ``int64`` array of lane indices for a fragmented one.
Selector = Union[slice, np.ndarray]


class SelectorSummary(NamedTuple):
    """What one selector touches: intervals plus collision evidence."""

    intervals: tuple[tuple[int, int], ...]
    #: number of byte indices named more than once by the selector
    duplicate_bytes: int
    #: total bytes selected, counting duplicates (= selector length)
    nbytes: int


def summarize_selector(sel: Selector, lane: int = 1) -> SelectorSummary:
    """Reduce a compiled selector in ``lane``-byte units to normalized
    byte intervals.

    Duplicate indices in a fancy-index selector are reported, not
    collapsed silently: a scatter that names one destination byte twice
    is a write-write collision even though the resulting interval set
    looks innocent.
    """
    if isinstance(sel, slice):
        start = 0 if sel.start is None else int(sel.start) * lane
        stop = start if sel.stop is None else int(sel.stop) * lane
        if stop <= start:
            return SelectorSummary((), 0, max(0, stop - start))
        return SelectorSummary(((start, stop),), 0, stop - start)
    idx = np.asarray(sel, dtype=np.int64)
    n = int(idx.size)
    if n == 0:
        return SelectorSummary((), 0, 0)
    gaps = np.diff(idx)
    if n > 1 and int(gaps.min()) <= 0:
        idx = np.sort(idx)
        idx = idx[np.concatenate(([True], np.diff(idx) != 0))]
        gaps = np.diff(idx)
    # idx is strictly increasing here; coalesce consecutive lane indices
    breaks = np.flatnonzero(gaps != 1)
    starts = idx[np.concatenate(([0], breaks + 1))] * lane
    ends = (idx[np.concatenate((breaks, [idx.size - 1]))] + 1) * lane
    intervals = tuple(zip(starts.tolist(), ends.tolist()))
    return SelectorSummary(intervals, (n - int(idx.size)) * lane, n * lane)


class IntervalSet:
    """A normalized (sorted, disjoint, coalesced) set of byte intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._ivs: tuple[tuple[int, int], ...] = _normalize(intervals)

    @classmethod
    def _normalized(cls, intervals: Iterable[tuple[int, int]]) -> "IntervalSet":
        """``intervals`` as a set, where they are known to be sorted,
        disjoint and coalesced already (:func:`summarize_selector`
        leaves a selector's so)."""
        self = cls.__new__(cls)
        self._ivs = tuple(intervals)
        return self

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return self._ivs

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo},{hi})" for lo, hi in self._ivs)
        return f"IntervalSet({body})"

    @property
    def nbytes(self) -> int:
        return sum(hi - lo for lo, hi in self._ivs)

    @property
    def lo(self) -> int:
        return self._ivs[0][0] if self._ivs else 0

    @property
    def hi(self) -> int:
        return self._ivs[-1][1] if self._ivs else 0

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not self._ivs:
            return other
        if self.contains(other):
            return self
        return IntervalSet(self._ivs + other._ivs)

    def contains(self, other: "IntervalSet") -> bool:
        """True iff every byte of ``other`` is in ``self``."""
        if len(self._ivs) == 1:  # a whole buffer: the ledger's usual case
            return not other._ivs or (
                self.lo <= other.lo and other.hi <= self.hi
            )
        return self.intersection(other).nbytes == other.nbytes

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        # two cuts of one point would take two intervals of a or of b
        # meeting there: the pieces are as coalesced as the operands
        return IntervalSet._normalized(out)

    def within_bounds(self, capacity: int) -> bool:
        return not self._ivs or (self.lo >= 0 and self.hi <= capacity)


def _normalize(intervals: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    ivs = sorted((int(lo), int(hi)) for lo, hi in intervals if hi > lo)
    if not ivs:
        return ()
    out: list[tuple[int, int]] = [ivs[0]]
    for lo, hi in ivs[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            if hi > phi:
                out[-1] = (plo, hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def shared_bytes(
    first: Sequence[Mapping[str, IntervalSet]],
    second: Sequence[Mapping[str, IntervalSet]],
) -> dict[tuple[int, int], dict[str, int]]:
    """Which effects (per-buffer byte intervals) of ``first`` share
    bytes with which of ``second``:
    ``(i, j) -> {buffer: bytes first[i] and second[j] both touch}``,
    pairs that share nothing left out.  One sort and sweep per buffer
    over every interval of both sides, not one intersection per pair —
    the rounds of a sound phase share nothing, and showing that costs a
    sort, however many rounds the phase has."""
    spans: dict[str, list[tuple[int, int, int, int]]] = {}
    for side, effects in enumerate((first, second)):
        for index, effect in enumerate(effects):
            for name, ivs in effect.items():
                spans.setdefault(name, []).extend(
                    (lo, hi, side, index) for lo, hi in ivs
                )
    shared: dict[tuple[int, int], dict[str, int]] = {}
    for name, rows in spans.items():
        rows.sort()
        # per side, the (end, index) of intervals met so far that a
        # later start may still fall into
        reach: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
        for lo, hi, side, index in rows:
            others = reach[1 - side]
            others[:] = [other for other in others if other[0] > lo]
            for end, other in others:
                pair = (other, index) if side else (index, other)
                per_buffer = shared.setdefault(pair, {})
                per_buffer[name] = (
                    per_buffer.get(name, 0) + min(hi, end) - lo
                )
            reach[side].append((hi, index))
    return shared


# ---------------------------------------------------------------------------
# one pass over the ops of a plan
# ---------------------------------------------------------------------------

#: the name a kernel's wire side goes by where its ops are read in
#: copy-program form (no buffer is called this)
WIRE = ""


class ProgramEffects(NamedTuple):
    """What the ops of one kernel or copy program say, read in one pass
    (:func:`read_ops`)."""

    #: ``(lane, source buffer, destination buffer)`` per selector op
    lanes: tuple[tuple[int, str, str], ...]
    #: per source buffer, the bytes read and how many are named twice
    sources: dict[str, tuple[IntervalSet, int]]
    #: per destination buffer, the bytes written and how many twice
    targets: dict[str, tuple[IntervalSet, int]]
    #: selector ops that gather and scatter different byte counts, as
    #: ``(source, destination, gathered, scattered)``
    ragged: tuple[tuple[str, str, int, int], ...]


def read_ops(
    sel_ops: Iterable[tuple[str, str, Selector, Selector, int]],
    run_ops: Iterable[tuple[str, str, int, int, int]],
    *,
    intervals: bool = True,
) -> ProgramEffects:
    """Read a program's ops, given in copy-program form — ``(source,
    destination, source selector, destination selector, lane)`` and
    ``(source, destination, source offset, destination offset,
    nbytes)`` — once.  Without ``intervals`` only the lanes are kept (an
    in-place plan's round programs: the effect pass reads the kernels
    they were zipped from)."""
    lanes: list[tuple[int, str, str]] = []
    parts: tuple[dict[str, list[SelectorSummary]], ...] = ({}, {})
    ragged: list[tuple[str, str, int, int]] = []
    for src, dst, src_sel, dst_sel, lane in sel_ops:
        lanes.append((lane, src, dst))
        if intervals:
            gathered = summarize_selector(src_sel, lane)
            scattered = summarize_selector(dst_sel, lane)
            if gathered.nbytes != scattered.nbytes:
                ragged.append((src, dst, gathered.nbytes, scattered.nbytes))
            parts[0].setdefault(src, []).append(gathered)
            parts[1].setdefault(dst, []).append(scattered)
    for src, dst, src_off, dst_off, n in run_ops:
        if intervals:
            parts[0].setdefault(src, []).append(
                summarize_selector(slice(src_off, src_off + n))
            )
            parts[1].setdefault(dst, []).append(
                summarize_selector(slice(dst_off, dst_off + n))
            )
    sources, targets = (
        {name: _fold(summaries) for name, summaries in side.items()}
        for side in parts
    )
    return ProgramEffects(tuple(lanes), sources, targets, tuple(ragged))


def _fold(parts: Sequence[SelectorSummary]) -> tuple[IntervalSet, int]:
    """The bytes a buffer's selectors touch together, and how many of
    them are claimed more than once — by a duplicate fancy index or by
    two ops naming the same region (the quantity every write-write race
    check reduces to)."""
    union = IntervalSet._normalized(parts[0].intervals)
    collisions = parts[0].duplicate_bytes
    for part in parts[1:]:
        ivs = IntervalSet._normalized(part.intervals)
        collisions += part.duplicate_bytes + union.intersection(ivs).nbytes
        union = union.union(ivs)
    return union, collisions


class KernelEffects(NamedTuple):
    """What one :class:`CompiledBlockSet` touches, per side.

    ``buffers`` maps buffer names to the byte intervals the kernel's
    buffer side touches; ``wire`` is the wire side.  The collision
    counters record bytes claimed more than once *within* the kernel —
    by a duplicate fancy index or by two ops naming the same region —
    which is a write-write race whenever that side is the destination.
    ``lanes`` are the lane each selector op views its buffer in.
    """

    buffers: Mapping[str, IntervalSet]
    buffer_collision_bytes: int
    wire: IntervalSet
    wire_collision_bytes: int
    total_nbytes: int
    lanes: tuple[tuple[int, str], ...]


def kernel_effects(kernel: "CompiledBlockSet") -> KernelEffects:
    """Symbolic effect summary of one pack/unpack kernel."""
    read = read_ops(
        ((WIRE, *op) for op in kernel._sel_ops),
        ((WIRE, *op) for op in kernel._run_ops),
    )
    wire, wire_collisions = read.sources.get(WIRE, (IntervalSet(), 0))
    return KernelEffects(
        buffers={name: ivs for name, (ivs, _) in read.targets.items()},
        buffer_collision_bytes=sum(n for _, n in read.targets.values()),
        wire=wire,
        wire_collision_bytes=wire_collisions,
        total_nbytes=kernel.total_nbytes,
        lanes=tuple((lane, name) for lane, _, name in read.lanes),
    )


def program_effects(
    program: "CompiledCopyProgram", *, intervals: bool = True
) -> ProgramEffects:
    """:func:`read_ops` of a compiled copy program."""
    return read_ops(program._sel_ops, program._run_ops, intervals=intervals)


class PlanEffects:
    """Everything one verification reads off the ops of ``plan``: each
    kernel and program is walked once, here, and the lane check and the
    effect pass both read the result."""

    def __init__(self, plan: "BatchedPlan") -> None:
        self.plan = plan
        #: per phase, per round: the effects of (send, recv) — ``None``
        #: for a half no rank runs
        self.kernels = tuple(
            tuple(
                (
                    None if rnd.send is None else kernel_effects(rnd.send),
                    None if rnd.recv is None else kernel_effects(rnd.recv),
                )
                for rnd in phase
            )
            for phase in plan.phases
        )
        self.copies = program_effects(plan.copy_program)
        #: an in-place plan's round programs, flat (lowered here if
        #: nobody ran them yet)
        self.deliveries = tuple(
            None
            if program is None
            else program_effects(program, intervals=False)
            for programs in plan.deliveries or ()
            for program in programs
        )

    def lane_views(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """``(lane, byte extents of the two sides it views as words)``
        of every selector op of the plan, programs first."""
        sizes = self.plan.sizes
        for program in (self.copies, *self.deliveries):
            if program is not None:
                for lane, src, dst in program.lanes:
                    yield lane, (sizes[src], sizes[dst])
        for phase in self.kernels:
            for halves in phase:
                for half in halves:
                    if half is not None:
                        for lane, name in half.lanes:
                            yield lane, (sizes[name], half.total_nbytes)


def read_plan(
    plan: "BatchedPlan", effects: Optional[PlanEffects] = None
) -> PlanEffects:
    """``effects`` if it is a reading of ``plan``, else a fresh one."""
    if effects is None or effects.plan is not plan:
        effects = PlanEffects(plan)
    return effects
