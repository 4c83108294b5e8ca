"""Byte-interval sets for the effect system.

The compiled execution layer (:mod:`repro.core.plan`) expresses every
data movement as numpy selectors — slices for coalesced runs, ``int64``
index arrays for fragmented ones, both counted in lanes (machine words
of 8, 4, 2 or 1 bytes).  The effect analyzer abstracts both to
the same symbolic object: a normalized set of half-open *byte* intervals
``[lo, hi)`` over one buffer — the lane is scaled away here, so every
check downstream is lane-blind.  Interval sets support exactly the algebra
the race checks need — union with overlap detection, intersection, and
bounds — and record whether the *source selector itself* collided (a
fancy index naming one byte twice), which no set union could see after
the fact.

Everything here is pure and deterministic; the analyzer never executes
a kernel to learn what it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: A compiled selector as stored in ``CompiledBlockSet._sel_ops`` /
#: ``CompiledCopyProgram._sel_ops``: a slice for a coalesced run, an
#: ``int64`` array of lane indices for a fragmented one.
Selector = Union[slice, np.ndarray]


@dataclass(frozen=True)
class SelectorSummary:
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
    uniq = np.unique(idx)
    dup = n - int(uniq.size)
    intervals: list[tuple[int, int]] = []
    # uniq is sorted; coalesce consecutive lane indices into runs.
    breaks = np.nonzero(np.diff(uniq) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [uniq.size - 1]))
    for s, e in zip(starts, ends):
        intervals.append((int(uniq[s]) * lane, (int(uniq[e]) + 1) * lane))
    return SelectorSummary(tuple(intervals), dup * lane, n * lane)


class IntervalSet:
    """A normalized (sorted, disjoint, coalesced) set of byte intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._ivs: tuple[tuple[int, int], ...] = _normalize(intervals)

    @classmethod
    def from_summary(cls, summary: SelectorSummary) -> "IntervalSet":
        return cls(summary.intervals)

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
        return IntervalSet(self._ivs + other._ivs)

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
        return IntervalSet(out)

    def overlaps(self, other: "IntervalSet") -> bool:
        return bool(self.intersection(other))

    def contains(self, other: "IntervalSet") -> bool:
        """True iff every byte of ``other`` is in ``self``."""
        return other.intersection(self).nbytes == other.nbytes

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


def disjoint_union(
    parts: Sequence[IntervalSet],
) -> tuple[IntervalSet, int]:
    """Union many interval sets, returning (union, overlapping_bytes).

    ``overlapping_bytes`` counts bytes claimed by more than one part —
    the quantity every write-write race check reduces to.
    """
    total = IntervalSet()
    overlap = 0
    for part in parts:
        overlap += total.intersection(part).nbytes
        total = total.union(part)
    return total, overlap
