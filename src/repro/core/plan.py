"""Schedule lowering: the rank-free execution plan and the buffer pool.

Proposition 3.1 makes a schedule pure, rank-independent data, so one
lowering serves every rank.  This module lowers a prepared
:class:`~repro.core.schedule.Schedule` once, for all ranks of a
topology, into an immutable :class:`BatchedPlan`:

* **peer ranks** — every round's sources and targets as ``(p,)``
  arrays (:func:`translate_all`), ``-1`` off a non-periodic mesh edge;
* **gather/scatter programs** — each round's block sets as
  :class:`CompiledBlockSet` kernels, compiled once (they are the same on
  every rank): a slice for a contiguous layout, one numpy gather or
  scatter over an ``int64`` index array counting *lanes* (the gcd of the
  group's offsets, lengths and capacities, so whole 256-byte blocks move
  one per index) for a fragmented one, a slice loop for few large runs;
* **a fused local-copy program** (:class:`CompiledCopyProgram`), in the
  schedule's order wherever source and destination could interact;
* **combine steps with row masks** — ``when_round`` gating and
  first-write-wins timing resolved into per-step rank-row sets;
* **pooled scratch** from the process-wide size-classed
  :class:`BufferPool`.

The batched backend runs a plan staged — fused word maps on a
rank-major block (:meth:`BatchedPlan.execute_staged`) or planes, each
round a shift of the rank grid on a rank-minor one
(:meth:`BatchedPlan.execute_planes`) — or in place, from the sender's
own arrays to the receiver's (:meth:`BatchedPlan.deliver`).  One rank's
memoized row view :meth:`BatchedPlan.for_rank` (a :class:`RankPlan`,
sharing the kernels) is what the threaded backend's interpreter runs.

Plans are cached on the schedule object (``Schedule._plans``), one per
``(dims, periods, buffer signature)``, invalidated with its cache entry;
compilation is single-flight (:func:`get_or_compile`).  Every
lowering (:func:`lower`) is keyed by the schedule's normal form — its
extents in granules and a digest,
:func:`repro.analyze.certificates.normal_form` — with the topology and
the buffer sizes in granules: a plan filed under that key, and still
filed on a live schedule, is scaled to this one's granule (Proposition
3.1) where every size decision agrees, instead of lowered again.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
import weakref
from collections import OrderedDict, namedtuple
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.core.schedule import LocalCopy
from repro.mpisim.datatypes import BlockRef, byte_view
from repro.mpisim.exceptions import ScheduleError, TruncationError, UnknownBufferError

if TYPE_CHECKING:
    from repro.analyze.certificates import NormalForm
    from repro.core.schedule import LocalCombine, Phase, Schedule
    from repro.core.topology import CartTopology

#: Average coalesced-run size (bytes) up to which a fragmented layout is
#: lowered to index arrays.  Indexing moves one lane per index, a slice
#: copy is a memcpy with ~1 µs of Python overhead per run; at lane 1 the
#: two cost the same around this run size, so larger runs keep a slice
#: loop.  The threshold is in bytes whatever lane the layout reaches.
INDEX_RUN_LIMIT = 2048

#: Smallest size class handed out by the pool (pooling tiny buffers costs
#: more bookkeeping than the allocation it saves).
_MIN_CLASS = 64

_POOL_MAX_ENV = "REPRO_BUFFER_POOL_MAX"
_DEFAULT_POOL_MAX = 64 << 20  # retained (idle) bytes cap


# ---------------------------------------------------------------------------
# buffer pool
# ---------------------------------------------------------------------------

PoolStats = namedtuple(
    "PoolStats",
    [
        "acquires",
        "reuses",
        "releases",
        "dropped",
        "double_releases",
        "outstanding_bytes",
        "high_water_bytes",
        "retained_bytes",
    ],
)


class BufferPool:
    """A thread-safe, size-classed pool of flat ``uint8`` scratch arrays.

    :meth:`acquire` returns an exact-size view of a power-of-two block;
    :meth:`release` returns the block to its size class (up to the
    retained-bytes cap, ``REPRO_BUFFER_POOL_MAX``).  Forgetting to
    release is safe — the block is simply garbage-collected and the pool
    allocates a fresh one next time.  Every lent-out block is tracked
    (by identity, via a weak reference so an abandoned block can still
    be collected), so :meth:`release` can tell a genuine return from a
    stale or foreign one and never files the same memory twice.
    High-water and reuse statistics are exposed via :meth:`stats` for
    observability and tests.
    """

    def __init__(self, max_retained_bytes: Optional[int] = None) -> None:
        if max_retained_bytes is None:
            value = os.environ.get(_POOL_MAX_ENV, str(_DEFAULT_POOL_MAX))
            if not value.strip().isdecimal():
                raise ValueError(
                    f"{_POOL_MAX_ENV}={value!r}: expected a whole number "
                    f"of bytes, e.g. {_DEFAULT_POOL_MAX} (0 retains none)"
                )
            max_retained_bytes = int(value)
        self.max_retained_bytes = max(0, max_retained_bytes)
        self._lock = threading.Lock()
        self._classes: dict[int, list[np.ndarray]] = {}
        #: id(handle) → weakref for every exact-size view handed out and
        #: not yet returned; an entry whose handle dies unreleased drops
        #: itself (the weakref's callback), so the table only ever holds
        #: live handles and no call scans it
        self._lent: dict[int, "weakref.ref[np.ndarray]"] = {}
        self._retained = 0
        self._outstanding = 0
        self._high_water = 0
        self._acquires = 0
        self._reuses = 0
        self._releases = 0
        self._dropped = 0
        self._double_releases = 0

    @staticmethod
    def _class_of(nbytes: int) -> int:
        if nbytes <= _MIN_CLASS:
            return _MIN_CLASS
        return 1 << (nbytes - 1).bit_length()

    def acquire(self, nbytes: int) -> np.ndarray:
        """An exact-size flat ``uint8`` array backed by a pooled block."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        cls = self._class_of(nbytes)
        block: Optional[np.ndarray] = None
        with self._lock:
            free = self._classes.get(cls)
            if free:
                block = free.pop()
                self._retained -= cls
                self._reuses += 1
            self._acquires += 1
            self._outstanding += cls
            if self._outstanding > self._high_water:
                self._high_water = self._outstanding
        if block is None:
            block = np.empty(cls, dtype=np.uint8)
        handle = block[:nbytes]
        key = id(handle)
        # the callback runs while the dying handle still owns its id, so
        # it can only ever drop its own entry; it takes no lock (a
        # collection may fire it inside one of our locked sections) —
        # a single dict pop is atomic under the GIL
        lent = self._lent
        ref = weakref.ref(handle, lambda _ref: lent.pop(key, None))
        with self._lock:
            lent[key] = ref
        return handle

    def release(self, arr: np.ndarray) -> None:
        """Return an array obtained from :meth:`acquire` to the pool.

        Arrays the pool did not hand out (wrong dtype/shape, or a size
        that is not a pool class) are ignored — callers may release
        unconditionally.  Releasing the same block twice is an error the
        pool must absorb rather than honour: appending one base block to
        the free list twice would let two later :meth:`acquire` calls
        hand out aliasing views of the same memory.  A release is only
        honoured when ``arr`` is *the* handle :meth:`acquire` returned
        and that handle is still lent out; anything else — a second
        release of the same handle, a stale handle whose block the pool
        already re-lent to someone else, a foreign array the pool never
        handed out — is dropped and counted in
        ``PoolStats.double_releases``.  (The old free-list identity scan
        missed the re-lent case: the stale release re-filed a block that
        another caller was still writing through, and the next acquire
        handed out an alias of live memory.)
        """
        if not isinstance(arr, np.ndarray) or arr.size == 0:
            return
        base = arr.base if isinstance(arr.base, np.ndarray) else arr
        if (
            base.dtype != np.uint8
            or base.ndim != 1
            or base.base is not None
            or base.size < _MIN_CLASS
            or base.size & (base.size - 1)
        ):
            return
        cls = base.size
        with self._lock:
            entry = self._lent.get(id(arr))
            if entry is None or entry() is not arr:
                self._double_releases += 1
                return
            del self._lent[id(arr)]
            self._releases += 1
            if self._outstanding >= cls:
                self._outstanding -= cls
            if self._retained + cls <= self.max_retained_bytes:
                self._classes.setdefault(cls, []).append(base)
                self._retained += cls
            else:
                self._dropped += 1

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                acquires=self._acquires,
                reuses=self._reuses,
                releases=self._releases,
                dropped=self._dropped,
                double_releases=self._double_releases,
                outstanding_bytes=self._outstanding,
                high_water_bytes=self._high_water,
                retained_bytes=self._retained,
            )

    def clear(self) -> None:
        """Drop all retained blocks and reset the counters.

        Blocks currently lent out stay tracked: releasing them after a
        ``clear()`` is still a genuine return, not a double release."""
        with self._lock:
            self._classes.clear()
            self._retained = 0
            self._outstanding = 0
            self._high_water = 0
            self._acquires = 0
            self._reuses = 0
            self._releases = 0
            self._dropped = 0
            self._double_releases = 0

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"BufferPool(retained={s.retained_bytes}, "
            f"outstanding={s.outstanding_bytes}, reuses={s.reuses})"
        )


#: The process-wide pool used by the interpreter and the lockstep wire.
GLOBAL_POOL = BufferPool()


# ---------------------------------------------------------------------------
# compiled block kernels
# ---------------------------------------------------------------------------

#: A precomputed gather/scatter selector: a slice where the region is
#: contiguous, an ``int64`` index array where it is not — both counted in
#: *lanes*, not bytes.
Selector = Union[slice, np.ndarray]

_ALL_ROWS = slice(None)


def _lane_of(*extents: int) -> int:
    """The widest lane every one of ``extents`` (run offsets and lengths
    on both sides, buffer capacities, the wire total) is a multiple of:
    their gcd, so a layout of whole 256-byte blocks moves one block per
    index."""
    return math.gcd(*extents) or 1


@lru_cache(maxsize=256)
def _lane_dtype(lane: int) -> np.dtype:
    """The word type a selector of ``lane`` bytes indexes: an unsigned
    integer up to 8 bytes, an opaque ``V{lane}`` block beyond (and for
    the odd widths in between).  Memoised: building a dtype costs a
    rank-view kernel of a few words a third of its call."""
    return np.dtype(f"u{lane}" if lane in (1, 2, 4, 8) else f"V{lane}")


def _selector(
    spans: Sequence[tuple[int, int]], lane: int, capacity: int
) -> Selector:
    """Lower ordered (start, nbytes) spans of a ``capacity``-byte side
    to a slice or index array in ``lane`` units.  Every index is shown
    to lie inside the side's lane view here, once, which is what lets
    the gathers run with ``mode="clip"`` and never clip."""
    pos = spans[0][0]
    for start, n in spans:
        if start != pos:
            break
        pos += n
    else:
        return slice(spans[0][0] // lane, pos // lane)
    idx = np.concatenate(
        [
            np.arange(s // lane, (s + n) // lane, dtype=np.int64)
            for s, n in spans
        ]
    )
    assert not idx.size or 0 <= idx.min() <= idx.max() < capacity // lane
    return idx


def _copy_lanes(
    dst: np.ndarray,
    dst_sel: Selector,
    src: np.ndarray,
    src_sel: Selector,
    lane: int,
) -> None:
    """Copy ``src_sel`` of ``src`` to ``dst_sel`` of ``dst`` on the
    ``lane``-wide word views of two flat byte arrays.  An index gather
    into a contiguous destination writes straight through
    ``take(out=)``; the bounds were proven at compile time, so
    ``"clip"`` only skips the per-call check.  (Plain indices and the
    ``take`` method, not ``np.take``: per-rank kernels of a few words
    run this thousands of times per collective.)
    """
    dtype = _lane_dtype(lane)
    _copy_words(dst.view(dtype), dst_sel, src.view(dtype), src_sel)


def _copy_words(dst: np.ndarray, dst_sel: Selector, src: np.ndarray, src_sel: Selector) -> None:
    """:func:`_copy_lanes` on the lane-wide word views themselves."""
    if type(src_sel) is slice:
        dst[dst_sel] = src[src_sel]
        return
    if type(dst_sel) is slice:
        out = dst[dst_sel]
        if out.flags.c_contiguous:
            src.take(src_sel, -1, out, "clip")
            return
    dst[dst_sel] = src.take(src_sel, -1, None, "clip")


def _index_nbytes(ops: Sequence[tuple]) -> int:
    """Bytes held by the index arrays of selector ops."""
    return sum(
        sel.nbytes for op in ops for sel in op if isinstance(sel, np.ndarray)
    )


class CompiledBlockSet:
    """One round's pack/unpack program, lowered from coalesced runs.

    Duck-types the :class:`~repro.mpisim.datatypes.BlockSet` execution
    surface (``pack``/``pack_into``/``unpack``/``unpack_from``/
    ``total_nbytes``) so every transport consumes it unchanged.  Each
    per-buffer group is either one numpy selector operation (slice or
    fancy index on both the wire and buffer side, at the group's lane)
    or a precomputed slice loop for few-large-run layouts.
    """

    __slots__ = ("total_nbytes", "_sel_ops", "_run_ops", "groups")

    def __init__(
        self,
        total_nbytes: int,
        sel_ops: Sequence[tuple[str, Selector, Selector, int]],
        run_ops: Sequence[tuple[str, int, int, int]],
        groups: Sequence[tuple[int, int]] = (),
    ) -> None:
        self.total_nbytes = total_nbytes
        #: (buffer name, wire selector, buffer selector, lane)
        self._sel_ops = tuple(sel_ops)
        #: (buffer name, wire offset, buffer offset, nbytes)
        self._run_ops = tuple(run_ops)
        #: (runs, nbytes) of each group :func:`_index_kernel` judged
        self.groups = tuple(groups)

    # -- execution surface (BlockSet-compatible) -----------------------
    def pack_into(
        self, buffers: Mapping[str, np.ndarray], out: np.ndarray
    ) -> int:
        """Gather into ``out`` (e.g. a shared-memory slot); returns the
        number of bytes written."""
        if out.size != self.total_nbytes:
            raise TruncationError(
                f"destination of {out.size} bytes does not match compiled "
                f"block set of {self.total_nbytes} bytes"
            )
        for name, wire_sel, buf_sel, lane in self._sel_ops:
            _copy_lanes(out, wire_sel, byte_view(buffers[name]), buf_sel, lane)
        for name, wire_off, buf_off, n in self._run_ops:
            out[wire_off : wire_off + n] = byte_view(buffers[name])[
                buf_off : buf_off + n
            ]
        return self.total_nbytes

    def pack(self, buffers: Mapping[str, np.ndarray]) -> np.ndarray:
        """Gather all blocks into one fresh wire array (the eager-send
        snapshot — never a view of the user buffers)."""
        out = np.empty(self.total_nbytes, dtype=np.uint8)
        self.pack_into(buffers, out)
        return out

    def unpack_from(
        self, buffers: Mapping[str, np.ndarray], data: np.ndarray
    ) -> None:
        if data.size != self.total_nbytes:
            raise TruncationError(
                f"payload of {data.size} bytes does not match compiled "
                f"block set of {self.total_nbytes} bytes"
            )
        for name, wire_sel, buf_sel, lane in self._sel_ops:
            _copy_lanes(byte_view(buffers[name]), buf_sel, data, wire_sel, lane)
        for name, wire_off, buf_off, n in self._run_ops:
            byte_view(buffers[name])[buf_off : buf_off + n] = data[
                wire_off : wire_off + n
            ]

    def unpack(
        self,
        buffers: Mapping[str, np.ndarray],
        payload: Union[bytes, bytearray, memoryview, np.ndarray],
    ) -> None:
        self.unpack_from(buffers, np.frombuffer(payload, dtype=np.uint8))

    # -- introspection --------------------------------------------------
    @property
    def num_kernels(self) -> int:
        return len(self._sel_ops) + len(self._run_ops)

    @property
    def uses_indices(self) -> bool:
        return _index_nbytes(self._sel_ops) > 0

    @property
    def lanes(self) -> tuple[int, ...]:
        """The lane (bytes per word) of each selector op, in op order."""
        return tuple(op[3] for op in self._sel_ops)

    def __repr__(self) -> str:
        return (
            f"CompiledBlockSet({self.total_nbytes} B, "
            f"{len(self._sel_ops)} selector ops at lanes {self.lanes}, "
            f"{len(self._run_ops)} slice runs)"
        )


def _index_kernel(runs: int, nbytes: int) -> bool:
    """Whether ``runs`` runs of ``nbytes`` bytes in all lower to one
    selector op (a lone run is a slice; short runs share an index
    array) or to a slice copy per run (few large ones)."""
    return runs == 1 or nbytes // runs <= INDEX_RUN_LIMIT


def compile_blockset(
    runs: Sequence[BlockRef], sizes: Mapping[str, int]
) -> CompiledBlockSet:
    """Lower one round's coalesced runs into a pack/unpack kernel.

    ``sizes`` maps buffer names to their byte capacity; every run is
    bound-checked here, once, instead of per execution.
    """
    per_buffer: dict[str, list[tuple[int, int, int]]] = {}
    pos = 0
    for b in runs:
        cap = sizes.get(b.buffer)
        if cap is None:
            raise UnknownBufferError(
                f"block references unknown buffer {b.buffer!r}"
            )
        if b.end() > cap:
            raise TruncationError(
                f"block {b} exceeds buffer {b.buffer!r} of {cap} bytes"
            )
        per_buffer.setdefault(b.buffer, []).append((pos, b.offset, b.nbytes))
        pos += b.nbytes
    sel_ops: list[tuple[str, Selector, Selector, int]] = []
    run_ops: list[tuple[str, int, int, int]] = []
    groups = [(len(ts), sum(t[2] for t in ts)) for ts in per_buffer.values()]
    for (name, triples), group in zip(per_buffer.items(), groups):
        if _index_kernel(*group):
            cap = sizes[name]
            lane = _lane_of(cap, pos, *(x for t in triples for x in t))
            wire_sel = _selector([(w, n) for w, _, n in triples], lane, pos)
            buf_sel = _selector([(o, n) for _, o, n in triples], lane, cap)
            sel_ops.append((name, wire_sel, buf_sel, lane))
        else:
            run_ops.extend((name, w, o, n) for w, o, n in triples)
    return CompiledBlockSet(pos, sel_ops, run_ops, groups)


# ---------------------------------------------------------------------------
# fused local-copy program
# ---------------------------------------------------------------------------


class CompiledCopyProgram:
    """A list of block copies, lowered: the final non-communication
    phase (within one rank's buffers), or one round's delivery (from the
    sender's buffers to the receiver's, see :func:`zip_runs`).

    When every source region is disjoint from every destination region
    (per buffer, across the whole copy list — the normal case: sources
    in "send"/"temp", destinations in "recv"), copy order is irrelevant
    and copies sharing a (src buffer, dst buffer) pair fuse into one
    selector operation.  Otherwise the schedule's sequential slice order
    is kept verbatim, so lowering can never change observable results.
    """

    __slots__ = ("nbytes", "fused", "_sel_ops", "_run_ops", "groups")

    def __init__(
        self,
        nbytes: int,
        fused: bool,
        sel_ops: Sequence[tuple[str, str, Selector, Selector, int]],
        run_ops: Sequence[tuple[str, str, int, int, int]],
        groups: Sequence[tuple[int, int]] = (),
    ) -> None:
        self.nbytes = nbytes
        self.fused = fused
        #: (src buffer, dst buffer, src selector, dst selector, lane)
        self._sel_ops = tuple(sel_ops)
        #: (src buffer, dst buffer, src offset, dst offset, nbytes)
        self._run_ops = tuple(run_ops)
        #: (runs, nbytes) of each group :func:`_index_kernel` judged
        self.groups = tuple(groups)

    def run(
        self,
        buffers: Mapping[str, np.ndarray],
        sources: Optional[Mapping[str, np.ndarray]] = None,
    ) -> int:
        """Execute the program on ``buffers`` — reading ``sources``
        where given (a round's delivery reads the sending rank's
        buffers); returns bytes copied (trace accounting)."""
        if sources is None:
            sources = buffers
        for src, dst, src_sel, dst_sel, lane in self._sel_ops:
            _copy_lanes(
                byte_view(buffers[dst]), dst_sel,
                byte_view(sources[src]), src_sel, lane,
            )
        for src, dst, src_off, dst_off, n in self._run_ops:
            byte_view(buffers[dst])[dst_off : dst_off + n] = byte_view(
                sources[src]
            )[src_off : src_off + n]
        return self.nbytes

    def __repr__(self) -> str:
        return (
            f"CompiledCopyProgram({self.nbytes} B, fused={self.fused}, "
            f"{len(self._sel_ops)} selector ops, "
            f"{len(self._run_ops)} slice runs)"
        )


def _overlaps(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> bool:
    """Interval-list overlap check on sorted (start, end) lists."""
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][1] <= b[j][0]:
            i += 1
        elif b[j][1] <= a[i][0]:
            j += 1
        else:
            return True
    return False


def _spans(refs: Iterable[BlockRef]) -> dict[str, list[tuple[int, int]]]:
    """Per buffer name, the (start, end) interval of every block."""
    out: dict[str, list[tuple[int, int]]] = {}
    for ref in refs:
        out.setdefault(ref.buffer, []).append(
            (ref.offset, ref.offset + ref.nbytes)
        )
    return out


def _order_hazard(
    reads: Iterable[BlockRef], writes: Iterable[BlockRef]
) -> Optional[str]:
    """Why the order of a set of copies matters — ``None`` when it does
    not, so they may fuse, or run from one rank's live buffers straight
    into another's."""
    srcs, dsts = _spans(reads), _spans(writes)
    for spans in dsts.values():
        spans.sort()
        # destination regions must not collide with each other (a later
        # copy overwriting an earlier one is order-dependent) …
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            if s1 < e0:
                return "writes a byte twice"
    # … nor with any source region of the same buffer
    for name, spans in dsts.items():
        if _overlaps(sorted(srcs.get(name, [])), spans):
            return "reads what it writes"
    return None


def compile_copies(
    copies: Sequence[LocalCopy], sizes: Mapping[str, int]
) -> CompiledCopyProgram:
    """Lower block copies (the prepared local-copy runs, or one round's
    delivery segments) into a fused program."""
    nbytes = 0
    for lc in copies:
        for ref in (lc.src, lc.dst):
            cap = sizes.get(ref.buffer)
            if cap is None:
                raise UnknownBufferError(
                    f"local copy references unknown buffer {ref.buffer!r}"
                )
            if ref.end() > cap:
                raise TruncationError(
                    f"local copy block {ref} exceeds buffer "
                    f"{ref.buffer!r} of {cap} bytes"
                )
        nbytes += lc.src.nbytes
    if _order_hazard(
        (lc.src for lc in copies), (lc.dst for lc in copies)
    ):
        return CompiledCopyProgram(
            nbytes,
            False,
            (),
            [
                (lc.src.buffer, lc.dst.buffer, lc.src.offset, lc.dst.offset,
                 lc.src.nbytes)
                for lc in copies
            ],
        )
    groups: dict[tuple[str, str], list[LocalCopy]] = {}
    for lc in copies:
        groups.setdefault((lc.src.buffer, lc.dst.buffer), []).append(lc)
    sel_ops: list[tuple[str, str, Selector, Selector, int]] = []
    run_ops: list[tuple[str, str, int, int, int]] = []
    sums = [(len(g), sum(lc.src.nbytes for lc in g)) for g in groups.values()]
    for ((src, dst), group), judged in zip(groups.items(), sums):
        if _index_kernel(*judged):
            src_spans = [(lc.src.offset, lc.src.nbytes) for lc in group]
            dst_spans = [(lc.dst.offset, lc.dst.nbytes) for lc in group]
            lane = _lane_of(
                sizes[src], sizes[dst],
                *(x for span in src_spans + dst_spans for x in span),
            )
            src_sel = _selector(src_spans, lane, sizes[src])
            dst_sel = _selector(dst_spans, lane, sizes[dst])
            sel_ops.append((src, dst, src_sel, dst_sel, lane))
        else:
            run_ops.extend(
                (src, dst, lc.src.offset, lc.dst.offset, lc.src.nbytes)
                for lc in group
            )
    return CompiledCopyProgram(nbytes, True, sel_ops, run_ops, sums)


class _Gather:
    """The destination of an index launch of a :class:`BoundDelivery`:
    ``gather[...] = words`` copies the sender's lane ``words`` at
    ``src_sel`` to the receiver's at ``dst_sel`` (:func:`_copy_words`)."""

    __slots__ = ("dst", "dst_sel", "src_sel")

    def __init__(self, dst: np.ndarray, dst_sel: Selector, src_sel: Selector) -> None:
        self.dst, self.dst_sel, self.src_sel = dst, dst_sel, src_sel

    def __setitem__(self, _all: object, words: np.ndarray) -> None:
        _copy_words(self.dst, self.dst_sel, words, self.src_sel)


class BoundDelivery(list):
    """An in-place plan bound to one rank set's arrays
    (:meth:`BatchedPlan.bind`): every copy of an execution as a
    pre-sliced ``(destination, source)`` pair, in order; a call is one
    pass of ``destination[...] = source`` over them."""

    def __call__(self) -> None:
        for dst, src in self:
            dst[...] = src


def _bind_program(
    program: CompiledCopyProgram,
    views: Callable[[str, int], Sequence[np.ndarray]],
    pairs: Sequence[tuple[int, int]],
) -> list[tuple[Any, np.ndarray]]:
    """``program``'s launches from each (receiver, sender) pair's sender
    into its receiver, op by op, on ``views(name, lane)`` (every rank's
    words of a buffer): pre-sliced, or an index launch."""
    out: list[tuple[Any, np.ndarray]] = []
    for src, dst, src_sel, dst_sel, lane in program._sel_ops:
        d, s = views(dst, lane), views(src, lane)
        if type(src_sel) is slice and type(dst_sel) is slice:
            out += [(d[j][dst_sel], s[k][src_sel]) for j, k in pairs]
        else:
            out += [(_Gather(d[j], dst_sel, src_sel), s[k]) for j, k in pairs]
    for src, dst, src_off, dst_off, n in program._run_ops:
        to, at = slice(dst_off, dst_off + n), slice(src_off, src_off + n)
        d, s = views(dst, 1), views(src, 1)
        out += [(d[j][to], s[k][at]) for j, k in pairs]
    return out


#: One aligned stretch of a round's byte stream: (src buffer, src
#: offset, dst buffer, dst offset, nbytes).
Segment = tuple[str, int, str, int, int]


def zip_runs(
    send_runs: Sequence[BlockRef], recv_runs: Sequence[BlockRef]
) -> list[Segment]:
    """One round's delivery as block copies.  The send side's and the
    receive side's coalesced runs are two partitions of the same byte
    stream (equal totals, cut at different places); every stretch
    between two cuts is one aligned segment — its source named in the
    *sender's* buffers, its destination in the *receiver's*."""
    segments: list[Segment] = []
    it = iter(recv_runs)
    dst, taken = next(it, None), 0
    for src in send_runs:
        done = 0
        while done < src.nbytes:
            if dst is None:
                raise ScheduleError(
                    "round sends more bytes than it receives"
                )
            n = min(src.nbytes - done, dst.nbytes - taken)
            segments.append(
                (src.buffer, src.offset + done, dst.buffer,
                 dst.offset + taken, n)
            )
            done += n
            taken += n
            if taken == dst.nbytes:
                dst, taken = next(it, None), 0
    if dst is not None:
        raise ScheduleError("round receives more bytes than it sends")
    return segments


def compile_delivery(
    segments: Sequence[Segment], sizes: Mapping[str, int]
) -> CompiledCopyProgram:
    """Lower one round's segments like any other list of block copies:
    same selectors, lanes, index/slice rule and bounds checks as the
    local-copy phase, sources read from the sending rank."""
    return compile_copies(
        [
            LocalCopy(BlockRef(src, src_off, n), BlockRef(dst, dst_off, n))
            for src, src_off, dst, dst_off, n in segments
        ],
        sizes,
    )


# ---------------------------------------------------------------------------
# combine (reduction) steps: one rank's rows
# ---------------------------------------------------------------------------


class RankReduceRound:
    """One rank's rows of a :class:`BatchedReduceRound`: the steps whose
    copy rows or fold rows contain the rank, in the batched step order.

    Nothing is compiled for the rank: the lowering's row masks already
    decided ``when_round`` gating (the peer ranks are known) and
    first-write-wins initialization (the execution order is known), so a
    step is either a byte-slice copy (accumulator initialization) or an
    in-place fold — ``ufunc(dst, src, out=dst)`` on dtype views of the
    byte slices, or ``dst[...] = fn(dst, src)`` for custom callables —
    and running the rank's steps one by one applies the operator in
    exactly the order :meth:`BatchedReduceRound.run` applies it to the
    rank's matrix row."""

    __slots__ = ("round", "steps", "names", "nbytes")

    def __init__(
        self,
        rnd: "BatchedReduceRound",
        steps: Sequence[tuple[bool, str, int, str, int, int]],
    ) -> None:
        self.round = rnd
        #: (is copy, src buffer, src offset, dst buffer, dst offset, nbytes)
        self.steps = tuple(steps)
        #: the buffers the steps touch
        self.names = tuple(
            {name for step in steps for name in (step[1], step[3])}
        )
        self.nbytes = sum(step[5] for step in steps)

    def run(self, buffers: Mapping[str, np.ndarray]) -> None:
        dt = self.round.dtype
        ufunc = self.round._ufunc
        fn = self.round._fn
        views = {name: byte_view(buffers[name]) for name in self.names}
        for is_copy, sbuf, soff, dbuf, doff, n in self.steps:
            s = views[sbuf][soff : soff + n]
            d = views[dbuf][doff : doff + n]
            if is_copy:
                d[...] = s
                continue
            s = s.view(dt)
            d = d.view(dt)
            if ufunc is not None:
                ufunc(d, s, out=d)
            else:
                d[...] = fn(d, s)

    def __repr__(self) -> str:
        return (
            f"RankReduceRound({self.round.token}/{self.round.dtype.str}, "
            f"{len(self.steps)} of {len(self.round.steps)} steps)"
        )


# ---------------------------------------------------------------------------
# one rank's view of the plan
# ---------------------------------------------------------------------------


class PlanRound:
    """One round of one rank: peers resolved, block programs shared.

    ``source``/``target`` are absolute ranks (``None`` off a
    non-periodic mesh edge, in which case the corresponding program is
    ``None`` too — the interpreter skips that half without translating
    anything)."""

    __slots__ = ("source", "target", "send", "recv")

    def __init__(
        self,
        source: Optional[int],
        target: Optional[int],
        send: Optional[CompiledBlockSet],
        recv: Optional[CompiledBlockSet],
    ) -> None:
        self.source = source
        self.target = target
        self.send = send
        self.recv = recv

    def __repr__(self) -> str:
        return f"PlanRound(source={self.source}, target={self.target})"


class RankPlan:
    """One rank's row of a :class:`BatchedPlan` (or of a mapped plan
    image): everything the interpreter needs per execution — the peer
    ranks of every round, the plan's shared pack/unpack kernels, the
    fused local-copy program, the rank's rows of the combine steps, and
    the wire-byte total this rank actually sends (mesh-boundary rounds
    excluded)."""

    __slots__ = (
        "kind",
        "rank",
        "phases",
        "copy_program",
        "pre_program",
        "combine_programs",
        "reduce_outputs_ok",
        "temp_nbytes",
        "wire_bytes",
        "local_bytes",
    )

    def __init__(
        self,
        kind: str,
        rank: int,
        phases: Sequence[Sequence[PlanRound]],
        copy_program: CompiledCopyProgram,
        temp_nbytes: int,
        wire_bytes: int,
        pre_program: Optional[RankReduceRound] = None,
        combine_programs: Sequence[Optional[RankReduceRound]] = (),
        reduce_outputs_ok: bool = True,
    ) -> None:
        self.kind = kind
        self.rank = rank
        self.phases = tuple(tuple(rs) for rs in phases)
        self.copy_program = copy_program
        #: the rank's accumulator-seeding steps (reductions; run in begin)
        self.pre_program = pre_program
        #: the rank's per-phase combine steps (aligned with ``phases``;
        #: ``None`` entries for phases with nothing to fold)
        self.combine_programs = (
            tuple(combine_programs)
            if combine_programs
            else (None,) * len(self.phases)
        )
        #: statically known: every required reduction output receives at
        #: least one contribution on this rank
        self.reduce_outputs_ok = reduce_outputs_ok
        self.temp_nbytes = temp_nbytes
        self.wire_bytes = wire_bytes
        self.local_bytes = copy_program.nbytes

    def run_local_copies(self, buffers: Mapping[str, np.ndarray]) -> int:
        return self.copy_program.run(buffers)

    @property
    def num_rounds(self) -> int:
        return sum(len(rs) for rs in self.phases)

    def __repr__(self) -> str:
        return (
            f"RankPlan({self.kind}, rank={self.rank}, "
            f"phases={len(self.phases)}, rounds={self.num_rounds}, "
            f"wire={self.wire_bytes} B)"
        )


def effective_sizes(
    schedule: "Schedule", buffers: Mapping[str, np.ndarray]
) -> dict[str, int]:
    """Byte capacities of the named buffers an execution will see —
    the caller's arrays plus the implicit ``"temp"`` scratch."""
    sizes = {name: int(arr.nbytes) for name, arr in buffers.items()}
    if schedule.temp_nbytes > 0 and "temp" not in sizes:
        sizes["temp"] = schedule.temp_nbytes
    return sizes


def buffer_signature(sizes: Mapping[str, int]) -> tuple:
    """The buffer-layout part of a plan key: sorted (name, nbytes)."""
    return tuple(sorted(sizes.items()))


def _plan_key(topo: "CartTopology", sizes: Mapping[str, int]) -> tuple:
    """The one plan-cache key: rank-free."""
    return ("plan", topo.dims, topo.periods, buffer_signature(sizes))


# ---------------------------------------------------------------------------
# the plan: the rank-free (all-ranks SPMD) lowering
# ---------------------------------------------------------------------------


def translate_all(topo: "CartTopology", offset: Sequence[int]) -> np.ndarray:
    """Vectorized ``topo.translate`` over every rank at once.

    Returns an ``int64`` array of shape ``(p,)`` holding the rank at
    ``coords(r) + offset`` for each rank ``r`` — ``-1`` where the offset
    leaves the mesh along a non-periodic dimension (the ``None`` of the
    scalar form).  Row-major rank order matches
    :meth:`~repro.core.topology.CartTopology.rank` exactly.
    """
    p = topo.size
    coords = np.stack(
        np.unravel_index(np.arange(p, dtype=np.int64), topo.dims), axis=1
    )
    tgt = coords + np.asarray(offset, dtype=np.int64)
    ok = np.ones(p, dtype=bool)
    for axis, (n, per) in enumerate(zip(topo.dims, topo.periods)):
        if per:
            tgt[:, axis] %= n
        else:
            ok &= (tgt[:, axis] >= 0) & (tgt[:, axis] < n)
            np.clip(tgt[:, axis], 0, n - 1, out=tgt[:, axis])
    ranks = np.ravel_multi_index(tuple(tgt.T), topo.dims).astype(np.int64)
    ranks[~ok] = -1
    return ranks


class BatchedRound:
    """One round of a :class:`BatchedPlan`: all ranks' exchanges as a
    handful of matrix operations.

    The pack/unpack kernels of one round are identical across ranks
    (the schedule is SPMD data; only the resolved peers differ), so the
    stacked ``(p, n)`` gather/scatter index matrix
    factors into one shared column selector (``send``/``recv`` —
    ordinary :class:`CompiledBlockSet` kernels) broadcast over rank
    rows.  The rank-varying part is held as peer arrays: ``sources`` /
    ``targets`` are ``(p,)`` ``int64`` with ``-1`` where the peer falls
    off a non-periodic mesh edge, and ``recv_rows`` (``None`` when every
    rank receives) is the boolean-mask-derived row index of the ranks
    whose receive half exists.
    """

    __slots__ = (
        "sources",
        "targets",
        "send",
        "recv",
        "recv_rows",
        "recv_sources",
        "senders",
    )

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        send: Optional[CompiledBlockSet],
        recv: Optional[CompiledBlockSet],
    ) -> None:
        self.sources = sources
        self.targets = targets
        self.send = send
        self.recv = recv
        self.senders = int((targets >= 0).sum())
        if recv is not None and int((sources >= 0).sum()) < sources.size:
            self.recv_rows: Optional[np.ndarray] = np.nonzero(sources >= 0)[0]
            self.recv_sources = sources[self.recv_rows]
        else:
            self.recv_rows = None
            self.recv_sources = sources

    @property
    def wire_nbytes(self) -> int:
        """Wire bytes per rank row of this round's ``(p, n)`` matrix."""
        return self.send.total_nbytes if self.send is not None else 0

    def __repr__(self) -> str:
        return (
            f"BatchedRound(senders={self.senders}, "
            f"wire={self.wire_nbytes} B/rank)"
        )


class BatchedReduceRound:
    """All ranks' combine work for one schedule point (the pre-step seed,
    or one phase's post-delivery folds) as shared kernels over the
    ``(p, nbytes)`` buffer matrices.

    Each lowered step is one vectorized operation on a column range of
    the full rank matrix: a byte-slice copy for accumulator
    initialization, an in-place ufunc (or the custom-callable
    ``dst[...] = fn(dst, src)`` form) for the fold.  The rank-varying
    part — ``when_round`` gating and first-write-wins timing, which
    differ per rank on meshes — is compiled into per-step row index
    arrays: ``None`` means every rank (the fully periodic fast path,
    one basic-slice kernel), an index array selects the subset via
    fancy-row read-modify-write (fancy-indexed assignment cannot take
    ``out=``).  Per-rank step order equals the batched step order, so
    the fold sequence — and therefore the result — is bit-identical to
    driving ``p`` interpreters, each running its :meth:`for_rank` rows
    of the same step list."""

    __slots__ = ("token", "dtype", "steps", "_ufunc", "_fn", "_rows")

    def __init__(
        self,
        token: str,
        dtype: np.dtype,
        steps: Sequence[
            tuple[str, int, str, int, int,
                  Optional[np.ndarray], Optional[np.ndarray]]
        ],
    ) -> None:
        from repro.core.reduce_schedule import (
            resolve_op_token,
            ufunc_for_token,
        )

        self.token = token
        self.dtype = dtype
        #: (src buf, src off, dst buf, dst off, nbytes, copy rows, combine
        #: rows), ``None`` rows for "all ranks"
        self.steps = tuple(steps)
        self._ufunc = ufunc_for_token(token)
        self._fn = None if self._ufunc is not None else resolve_op_token(token)
        #: per-step (skip | copy | fold) pattern -> the row view every
        #: rank with that pattern shares (one entry on a torus; rank
        #: threads racing on a pattern build equal views)
        self._rows: dict[bytes, Optional[RankReduceRound]] = {}

    def for_rank(self, rank: int) -> Optional[RankReduceRound]:
        """Rank ``rank``'s rows: the steps whose copy rows or fold rows
        contain it, in step order (``None`` when there are none)."""
        pattern = bytes(
            1 if copy_rows is None or rank in copy_rows
            else 2 if comb_rows is None or rank in comb_rows
            else 0
            for *_, copy_rows, comb_rows in self.steps
        )
        if pattern not in self._rows:
            mine = [
                (action == 1, *step[:5])
                for action, step in zip(pattern, self.steps)
                if action
            ]
            self._rows[pattern] = RankReduceRound(self, mine) if mine else None
        return self._rows[pattern]

    def run(self, arrays: Mapping[str, np.ndarray], lane: int = 0) -> None:
        """Every step on all ranks: ``arrays`` are the ``(p, nbytes)``
        matrices, or with ``lane`` the ``(words, p, lane)`` byte planes
        (:meth:`BatchedPlan.plane_views`), where a step's rank rows are
        the second axis and all its ranks one contiguous run."""
        dt, ufunc, fn = self.dtype, self._ufunc, self._fn

        def at(off: int, n: int, rows: Any = _ALL_ROWS) -> tuple:
            if lane:
                return slice(off // lane, (off + n) // lane), rows
            return rows, slice(off, off + n)

        for sbuf, soff, dbuf, doff, n, copy_rows, comb_rows in self.steps:
            src, dst = arrays[sbuf], arrays[dbuf]
            if copy_rows is None:
                dst[at(doff, n)] = src[at(soff, n)]
            elif copy_rows.size:
                dst[at(doff, n, copy_rows)] = src[at(soff, n, copy_rows)]
            if comb_rows is not None and not comb_rows.size:
                continue
            if comb_rows is None:
                d, s = dst[at(doff, n)].view(dt), src[at(soff, n)].view(dt)
                if ufunc is not None:
                    ufunc(d, s, out=d)
                else:
                    d[...] = fn(d, s)
            else:
                # fancy rank rows: copies, written back
                d = dst[at(doff, n, comb_rows)].view(dt)
                s = src[at(soff, n, comb_rows)].view(dt)
                out = ufunc(d, s) if ufunc is not None else fn(d, s)
                dst[at(doff, n, comb_rows)] = out.view(np.uint8)

    def __repr__(self) -> str:
        return (
            f"BatchedReduceRound({self.token}/{self.dtype.str}, "
            f"{len(self.steps)} steps)"
        )


def _compile_batched_combines(
    schedule: "Schedule",
    p: int,
    live_by_phase: Sequence[Sequence[np.ndarray]],
    sizes: Mapping[str, int],
) -> tuple[
    Optional[BatchedReduceRound],
    tuple[Optional[BatchedReduceRound], ...],
    np.ndarray,
    Optional[str],
]:
    """Combine lowering for all ranks: (pre-step kernel, per-phase
    kernels, ranks whose required outputs never receive a contribution,
    why the buffers cannot run as ``(p, n)`` dtype matrices — ``None``
    when they can).  ``when_round`` gating, first-write-wins and bounds
    are resolved here, once; rank views read the result off the masks."""
    nphases = len(schedule.phases)
    if not schedule.is_reduction:
        return None, (None,) * nphases, np.empty(0, dtype=np.int64), None
    dt = np.dtype(schedule.combine_dtype)
    token = schedule.combine_op
    inited: dict[tuple[str, int, int], np.ndarray] = {}
    unviewable: list[str] = []

    def lower(
        steps: Sequence["LocalCombine"],
        live_rounds: Optional[Sequence[np.ndarray]],
    ) -> Optional[BatchedReduceRound]:
        lowered = []
        for step in steps:
            for ref in (step.src, step.dst):
                # a count-zero reduction names scratch no rank allocates
                cap = sizes.get(ref.buffer, None if ref.nbytes else 0)
                if cap is None:
                    raise UnknownBufferError(
                        f"combine step references unknown buffer "
                        f"{ref.buffer!r}"
                    )
                if ref.end() > cap:
                    raise TruncationError(
                        f"combine block {ref} exceeds buffer "
                        f"{ref.buffer!r} of {cap} bytes"
                    )
                if cap % dt.itemsize:
                    # rank views fold byte slices, not whole buffers:
                    # only the staged forms need this
                    unviewable.append(
                        f"buffer {ref.buffer!r} of {cap} B cannot be "
                        f"viewed as {dt.str} rank matrices"
                    )
            if step.when_round is None:
                eligible = np.ones(p, dtype=bool)
            else:
                if live_rounds is None or not (
                    0 <= step.when_round < len(live_rounds)
                ):
                    raise ScheduleError(
                        f"combine gate names round {step.when_round}, "
                        f"the step list has "
                        f"{0 if live_rounds is None else len(live_rounds)}"
                        f" round(s)"
                    )
                eligible = live_rounds[step.when_round]
            key = (step.dst.buffer, step.dst.offset, step.dst.nbytes)
            prev = inited.get(key)
            if prev is None:
                prev = np.zeros(p, dtype=bool)
                inited[key] = prev
            copy_mask = eligible & ~prev
            comb_mask = eligible & prev
            prev |= eligible
            if step.src.nbytes == 0 or not eligible.any():
                continue
            lowered.append(
                (
                    step.src.buffer,
                    step.src.offset,
                    step.dst.buffer,
                    step.dst.offset,
                    step.src.nbytes,
                    None if copy_mask.all() else np.nonzero(copy_mask)[0],
                    None if comb_mask.all() else np.nonzero(comb_mask)[0],
                )
            )
        if not lowered:
            return None
        return BatchedReduceRound(token, dt, lowered)

    pre = lower(schedule.pre_steps, None)
    per_phase = tuple(
        lower(phase.combine_steps, live_by_phase[pi])
        for pi, phase in enumerate(schedule.phases)
    )
    missing = np.zeros(p, dtype=bool)
    for ref in schedule.required_outputs:
        got = inited.get((ref.buffer, ref.offset, ref.nbytes))
        if got is None:
            missing[:] = True
        else:
            missing |= ~got
    return (
        pre,
        per_phase,
        np.nonzero(missing)[0],
        unviewable[0] if unviewable else None,
    )


class BatchedPlan:
    """The one plan IR: an immutable lowering of one schedule for all
    ranks of one topology and buffer signature.

    A staged execution runs all ``p`` ranks as one data-parallel numpy
    program on one pooled block: :attr:`fused` word maps on it
    rank-major, or :attr:`planes` on it rank-minor (:attr:`staging`
    says which).  Both keep the walk's pack-all-then-deliver discipline
    per phase, so they are byte-identical to driving ``p`` interpreters
    over the :meth:`for_rank` views.  :meth:`deliver` copies each round
    from the sending rank's own arrays to the receiving rank's; only a
    phase that reads what it writes can tell, so ``delivery`` records
    which form the lowering chose for the plan, ``delivery_reason`` why.
    """

    __slots__ = (
        "kind",
        "key",
        "p",
        "phases",
        "hazards",
        "delivery",
        "delivery_reason",
        "_segments",
        "_deliveries",
        "copy_program",
        "pre_program",
        "combine_programs",
        "reduce_missing",
        "matrix_error",
        "temp_nbytes",
        "sizes",
        "offsets",
        "block_nbytes",
        "_fused",
        "_planes",
        "_staging",
        "wire_bytes",
        "_rank_wire_bytes",
        "written",
        "_index_nbytes",
        "compile_seconds",
        "instantiated",
        "class_key",
        "_views",
        "__weakref__",
    )

    def __init__(
        self,
        kind: str,
        key: tuple,
        p: int,
        phases: Sequence[Sequence[BatchedRound]],
        copy_program: CompiledCopyProgram,
        temp_nbytes: int,
        sizes: Mapping[str, int],
        wire_bytes: int,
        compile_seconds: float,
        pre_program: Optional[BatchedReduceRound],
        combine_programs: Sequence[Optional[BatchedReduceRound]],
        reduce_missing: np.ndarray,
        matrix_error: Optional[str],
        hazards: Sequence[Optional[str]],
        delivery_reason: str,
        segments: Optional[Sequence[Sequence[Optional[Sequence[Segment]]]]],
    ) -> None:
        self.kind = kind
        self.key = key
        self.p = p
        self.phases = tuple(tuple(rs) for rs in phases)
        #: per phase, why its rounds may not run from live buffers — it
        #: ``"reads what it writes"`` or ``"writes a byte twice"`` (what
        #: the effect pass reports as V703/V702) — or ``None``
        self.hazards = tuple(hazards)
        #: the form the batched backend runs: ``"in-place"``
        #: (:meth:`deliver`) or ``"staged"`` (:attr:`staging`)
        self.delivery = "staged" if segments is None else "in-place"
        self.delivery_reason = delivery_reason
        #: an in-place plan's rounds as zipped segments (``None`` for a
        #: round with a missing half), and what :attr:`deliveries`
        #: lowered them to when first asked
        self._segments = segments
        self._deliveries: Optional[
            tuple[tuple[Optional[CompiledCopyProgram], ...], ...]
        ] = None
        self.copy_program = copy_program
        #: all-ranks accumulator seeding (reductions; runs before phase 0)
        self.pre_program = pre_program
        #: per-phase all-ranks combine kernels (aligned with ``phases``)
        self.combine_programs = tuple(combine_programs)
        #: ranks whose required reduction outputs receive no contribution
        #: (raises at execute, matching the per-rank interpreters)
        self.reduce_missing = reduce_missing
        #: why the staged forms refuse (a combine buffer that is not
        #: a whole number of dtype elements); rank views are unaffected
        self.matrix_error = matrix_error
        self.temp_nbytes = temp_nbytes
        self.sizes = dict(sizes)
        #: the staged form's one pooled block: every buffer's ``(p,
        #: nbytes)`` matrix back to back (:meth:`matrices`), each at an
        #: 8-byte boundary so that every lane's word view stays aligned
        self.offsets, self.block_nbytes = _block_layout(p, self.sizes)
        self._fused: Any = _UNLOWERED
        self._planes: Any = _UNLOWERED
        self._staging: Optional[str] = None
        self.wire_bytes = wire_bytes
        #: per rank, the wire bytes it sends (rounds whose target is off
        #: a mesh edge excluded; they add up to ``wire_bytes``)
        self._rank_wire_bytes = sum(
            (
                rnd.wire_nbytes * (rnd.targets >= 0)
                for rounds in self.phases
                for rnd in rounds
            ),
            np.zeros(p, dtype=np.int64),
        )
        #: names of the buffers any kernel writes (receive scatters,
        #: local-copy destinations, combine targets): what an all-ranks
        #: backend that stages buffers has to hand back to the callers —
        #: and so all that has to be writeable on their side
        written: set[str] = set()
        #: bytes held by the index arrays of the kernels lowered here
        self._index_nbytes = _index_nbytes(copy_program._sel_ops)
        for rounds in self.phases:
            for rnd in rounds:
                if rnd.send is not None:
                    self._index_nbytes += _index_nbytes(rnd.send._sel_ops)
                if rnd.recv is not None:
                    self._index_nbytes += _index_nbytes(rnd.recv._sel_ops)
                    written.update(
                        op[0] for op in (*rnd.recv._sel_ops, *rnd.recv._run_ops)
                    )
        written.update(
            op[1] for op in (*copy_program._sel_ops, *copy_program._run_ops)
        )
        for comb in (pre_program, *self.combine_programs):
            if comb is not None:
                written.update(step[2] for step in comb.steps)
        self.written = frozenset(written)
        self.compile_seconds = compile_seconds
        #: scaled from a plan of its class (:func:`lower`), not lowered
        self.instantiated = False
        #: ``(class key, granule)`` :func:`lower` keyed it by (``None``:
        #: its schedule has no normal form, or it was lowered directly)
        self.class_key: Optional[tuple[tuple, int]] = None
        self._views: dict[int, RankPlan] = {}

    @property
    def deliveries(
        self,
    ) -> Optional[tuple[tuple[Optional[CompiledCopyProgram], ...], ...]]:
        """Per phase, per round: the program :meth:`deliver` runs from
        the round's sender to its receiver (``None`` for a round with a
        missing half) — ``None`` altogether for a staged plan.  Lowered
        when first asked for, which only the batched backend and the
        verifier do: the rank views' consumers of the same cached plan
        never pay for it.  (Threads that race here lower equal
        programs.)"""
        if self._deliveries is None and self._segments is not None:
            self._deliveries = tuple(
                tuple(
                    None if c is None else compile_delivery(c, self.sizes)
                    for c in row
                )
                for row in self._segments
            )
        return self._deliveries

    @property
    def fused(self) -> Optional["FusedProgram"]:
        """The plan's data movement as one word map per phase on the
        staged form's block (:func:`fuse_phases`) — ``None`` where it
        cannot be.  Lowered when first asked for, by the verifier or the
        first staged execution.  (Threads that race here lower equal
        programs.)"""
        if self._fused is _UNLOWERED:
            self._fused = fuse_phases(self)
        elif isinstance(self._fused, BatchedPlan):  # the plan it was scaled from
            maps = self._fused.fused
            self._fused = maps and FusedProgram(_lane_dtype(self.fused_lane), maps.steps)
        return self._fused

    @property
    def fused_lane(self) -> Optional[int]:
        """The word :attr:`fused` would move — the widest that the buffer
        sizes, the block's 8-byte layout and every kernel allow — read
        off the sizes without lowering a map; ``None`` (no maps) for an
        in-place plan, a reduction some rank gets no contribution to, a
        phase that writes a byte twice and maps over
        :data:`FUSED_INDEX_PER_BLOCK_BYTE`."""
        return _fused_lane(self, self.sizes)

    @property
    def planes(self) -> Optional["PlaneProgram"]:
        """:func:`lower_planes` of the plan, lowered when first asked for."""
        if self._planes is _UNLOWERED:
            self._planes = lower_planes(self)
        return self._planes

    @property
    def staging(self) -> str:
        """How a staged execution runs and why — ``"fused: …"``,
        ``"planes: …"`` or ``"walk: …"`` (neither exists) — from counts,
        nothing lowered: planes where the fused maps are refused or each
        slab copy moves :data:`PLANE_WORDS_PER_LAUNCH` words and
        :data:`PLANE_BYTES_PER_LAUNCH` bytes (:func:`_launches`; ``≤``:
        one per moving round assumed, which already rules planes out)."""
        if self._staging is None:
            lane, launches = _plane_lane(self), sum(map(len, _moving(self)))
            moved = _moved(self) // (lane or 1)
            least = max(PLANE_WORDS_PER_LAUNCH, PLANE_BYTES_PER_LAUNCH // (lane or 1))
            counted = lane and moved >= launches * least
            words = moved // max(_launches(self) if counted else launches, 1)
            bulk = words >= PLANE_WORDS_PER_LAUNCH and words * (lane or 0) >= PLANE_BYTES_PER_LAUNCH
            per = f"{'' if counted else '≤ '}{words} words of {lane} B per launch"
            self._staging = (
                (f"planes: {per}" if bulk else f"fused: {per}") if self.fused_lane
                else "planes: no fused maps" if lane
                else "walk: no fused maps, the plane lane is not whole combine elements"
            )
        return self._staging

    @property
    def fused_if_lowered(self) -> Optional["FusedProgram"]:
        """:attr:`fused` where it has been lowered (``None`` where it has
        not, or cannot be): what a reader sees without lowering it."""
        return self._fused if isinstance(self._fused, FusedProgram) else None

    @property
    def planes_if_lowered(self) -> Optional["PlaneProgram"]:
        """:attr:`planes` where lowered, as :attr:`fused_if_lowered`."""
        return self._planes if isinstance(self._planes, PlaneProgram) else None

    @property
    def selector_nbytes(self) -> int:
        """Bytes held by the index arrays of every kernel of the plan
        (the round programs' and the fused maps' from when they are
        lowered)."""
        fused = self._fused.steps if isinstance(self._fused, FusedProgram) else ()
        return self._index_nbytes + _index_nbytes(fused) + sum(
            _index_nbytes(program._sel_ops)
            for programs in self._deliveries or ()
            for program in programs
            if program is not None
        )

    def matrices(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """Every buffer's ``(p, nbytes)`` matrix in ``block``, the
        staged form's ``block_nbytes`` flat bytes."""
        return {
            name: block[start : start + self.p * self.sizes[name]].reshape(
                self.p, self.sizes[name]
            )
            for name, start in self.offsets.items()
        }

    def rank_wire_bytes(self, rank: int) -> int:
        """Wire bytes ``rank`` sends per execution — what its view's
        ``wire_bytes`` says, without materialising the view."""
        return int(self._rank_wire_bytes[rank])

    def for_rank(self, rank: int) -> RankPlan:
        """Rank ``rank``'s memoized row view: its peers read off row
        ``rank`` of every round's ``sources``/``targets``, the *shared*
        kernel objects (``None`` for the half whose peer is missing),
        and its rows of the masked combine step lists."""
        view = self._views.get(rank)
        if view is not None:
            return view
        if not 0 <= rank < self.p:
            raise ScheduleError(f"rank {rank} outside 0..{self.p - 1}")
        phases: list[list[PlanRound]] = []
        for phase in self.phases:
            rounds: list[PlanRound] = []
            for rnd in phase:
                source = int(rnd.sources[rank])
                target = int(rnd.targets[rank])
                rounds.append(
                    PlanRound(
                        source if source >= 0 else None,
                        target if target >= 0 else None,
                        rnd.send if target >= 0 else None,
                        rnd.recv if source >= 0 else None,
                    )
                )
            phases.append(rounds)
        combines = [
            None if comb is None else comb.for_rank(rank)
            for comb in (self.pre_program, *self.combine_programs)
        ]
        view = self._views[rank] = RankPlan(
            self.kind,
            rank,
            phases,
            self.copy_program,
            self.temp_nbytes,
            self.rank_wire_bytes(rank),
            pre_program=combines[0],
            combine_programs=combines[1:],
            reduce_outputs_ok=rank not in self.reduce_missing,
        )
        return view

    def plane_views(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """Every buffer's plane in ``block`` (laid out as :meth:`matrices`):
        ``(words, p, lane)`` bytes, a word slot one row over all ranks."""
        lane, p = self.planes.lane, self.p
        return {
            name: block[start : start + p * self.sizes[name]].reshape(
                self.sizes[name] // lane, p, lane
            )
            for name, start in self.offsets.items()
        }

    def execute_staged(self, block: np.ndarray, matrices: Mapping[str, np.ndarray]) -> None:
        """One execution through :attr:`fused` on the rank-major
        ``block`` (``matrices`` its :meth:`matrices`): the seeding, each
        word map then its folds, the local copies."""
        words = block.view(self.fused.dtype)
        if self.pre_program is not None:
            self.pre_program.run(matrices)
        for (dst, src), combine in zip(self.fused.steps, (*self.combine_programs, None)):
            words[dst] = words[src]
            if combine is not None:
                combine.run(matrices)
        if not self.copy_program.fused:  # in the schedule's order, rank by rank
            for rank in range(self.p):
                self.copy_program.run({name: m[rank] for name, m in matrices.items()})

    def execute_planes(self, block: np.ndarray) -> None:
        """One execution through :attr:`planes` on the rank-minor
        ``block``: the seeding; per phase its slab copies (from a snapshot
        where it is in :attr:`hazards`) then its folds; the local copies."""
        if self.reduce_missing.size:
            raise ScheduleError("reduction received no contributions (all neighbors off the mesh)")
        prog, dims = self.planes, self.key[1]
        planes = self.plane_views(block)

        def grid(views: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
            return {n: a.view(prog.dtype).reshape(len(a), *dims) for n, a in views.items()}

        live = src = grid(planes)
        if self.pre_program is not None:
            self.pre_program.run(planes, prog.lane)
        snapshot = GLOBAL_POOL.acquire(self.block_nbytes if any(self.hazards) else 0)
        try:
            for moves, hazard, combine in zip(prog.phases, self.hazards, self.combine_programs):
                if hazard is not None:
                    snapshot[:] = block
                    src = grid(self.plane_views(snapshot))
                for s, s_key, d, d_key in moves:
                    live[d][d_key] = src[s][s_key]
                src = live
                if combine is not None:
                    combine.run(planes, prog.lane)
            for s, s_rows, d, d_rows in prog.copies:
                live[d][d_rows] = live[s][s_rows]
        finally:
            GLOBAL_POOL.release(snapshot)

    def _delivering(self) -> Iterator[tuple[CompiledCopyProgram, list[tuple[int, int]]]]:
        """:meth:`bind`'s order: each delivering round's program with its
        (receiver, sender) pairs, then the local copies with each rank's."""
        ranks = range(self.p)
        for rounds, programs in zip(self.phases, self.deliveries or ()):
            for rnd, prog in zip(rounds, programs):
                if prog is not None:
                    rows = ranks if rnd.recv_rows is None else rnd.recv_rows.tolist()
                    yield prog, list(zip(rows, rnd.recv_sources.tolist()))
        yield self.copy_program, list(zip(ranks, ranks))

    @property
    def num_launches(self) -> int:
        """How many ``(destination, source)`` pairs :meth:`bind` makes."""
        return sum(len(p._sel_ops + p._run_ops) * len(pairs) for p, pairs in self._delivering())

    def bind(self, rank_buffers: Sequence[Mapping[str, np.ndarray]]) -> BoundDelivery:
        """The in-place form on the ranks' own arrays (one uniformly laid
        out mapping per rank): per round and receiving rank ``j``, its
        program's copies from the buffers of ``sources[j]`` to those of
        ``j``, then every rank's local copies.  Nothing is stacked."""
        if self.deliveries is None:
            raise ScheduleError(f"plan has no in-place form ({self.delivery_reason})")
        names = {name: [byte_view(b[name]) for b in rank_buffers] for name in rank_buffers[0]}

        @lru_cache(maxsize=None)
        def views(name: str, lane: int) -> list[np.ndarray]:
            return names[name] if lane == 1 else [v.view(_lane_dtype(lane)) for v in names[name]]

        launches = BoundDelivery()
        for prog, pairs in self._delivering():
            launches += _bind_program(prog, views, pairs)
        return launches

    def deliver(self, rank_buffers: Sequence[Mapping[str, np.ndarray]]) -> None:
        """One execution in place: :meth:`bind`, then run.  Ranks that
        bring no ``"temp"`` get rows of one pooled scratch matrix,
        returned even when a kernel raises."""
        pooled = self.temp_nbytes > 0 and "temp" not in rank_buffers[0]
        scratch = GLOBAL_POOL.acquire(self.p * self.temp_nbytes if pooled else 0)
        try:
            if pooled:
                rows = scratch.reshape(self.p, -1)
                rank_buffers = [{**b, "temp": row} for b, row in zip(rank_buffers, rows)]
            self.bind(rank_buffers)()
        finally:
            GLOBAL_POOL.release(scratch)

    @property
    def num_rounds(self) -> int:
        return sum(len(rs) for rs in self.phases)

    def __repr__(self) -> str:
        return (
            f"BatchedPlan({self.kind}, p={self.p}, "
            f"phases={len(self.phases)}, rounds={self.num_rounds}, "
            f"wire={self.wire_bytes} B, selectors={self.selector_nbytes} B, "
            f"{self.delivery}: {self.delivery_reason})"
        )


#: :attr:`BatchedPlan.fused` before it is first asked for
_UNLOWERED = object()


def _block_layout(p: int, sizes: Mapping[str, int]) -> tuple[dict[str, int], int]:
    """(offset of each buffer's matrix, total bytes) of a staged block."""
    ends = [0, *itertools.accumulate(-(-p * n // 8) * 8 for n in sizes.values())]
    return dict(zip(sizes, ends)), ends[-1]


def _fused_lane(
    plan: BatchedPlan, sizes: Mapping[str, int], num: int = 1, den: int = 1
) -> Optional[int]:
    """:attr:`BatchedPlan.fused_lane` of ``plan`` with every extent ×
    ``num / den`` and buffers of ``sizes``: arithmetic, no kernel built."""
    if plan.reduce_missing.size or plan.delivery == "in-place" or (
        "writes a byte twice" in plan.hazards
    ):
        return None
    prog = plan.copy_program
    moving = _moving(plan)
    programs = [k for phase in moving for r in phase for k in (r.send, r.recv)]
    programs += [prog] if prog.fused else []
    offsets, block_nbytes = _block_layout(plan.p, sizes)
    lane = _lane_of(
        *sizes.values(),
        *offsets.values(),
        block_nbytes,
        *(op[-1] * num // den for k in programs for op in k._sel_ops),
        *(x * num // den for k in programs for op in k._run_ops for x in op[-3:]),
    )
    if 16 * _moved(plan) * num // den > FUSED_INDEX_PER_BLOCK_BYTE * lane * block_nbytes:
        return None
    return lane


def _moved(plan: BatchedPlan) -> int:
    """Bytes one execution moves: every delivery, the fused local copies."""
    prog = plan.copy_program
    return plan.p * prog.nbytes * prog.fused + sum(
        (plan.p if r.recv_rows is None else r.recv_rows.size) * r.wire_nbytes
        for phase in _moving(plan)
        for r in phase
    )


#: A plan's data movement on the block of its staged form
#: (:attr:`BatchedPlan.offsets`), seen as one flat array of ``dtype``
#: words: each step is a ``(dst, src)`` pair of word indices, run as
#: ``words[dst] = words[src]`` — one step per phase (empty where the
#: phase moves nothing), then one for the local copies if the copy
#: program is ``fused`` (else it runs after the steps).
FusedProgram = namedtuple("FusedProgram", ["dtype", "steps"])

#: The fused maps hold two ``int64`` per word they move, ``16 / lane``
#: bytes per byte; a plan whose maps would hold more than this many
#: bytes per byte of its block — the staged form pools the block anyway
#: — runs in planes.  Measured: Moore alltoall and allgather
#: at lane 8 at most 1.93, the lane-1 Life halo 3.51; at lane 1 they
#: would be 9.6–15.
FUSED_INDEX_PER_BLOCK_BYTE = 4


def _words(sel: Selector, lane: int, fused: int) -> np.ndarray:
    """A selector of ``lane``-byte words as indices of ``fused``-byte
    ones (``fused`` divides ``lane``)."""
    k = lane // fused
    if type(sel) is slice:
        return np.arange(sel.start * k, sel.stop * k)
    return sel if k == 1 else (sel[:, None] * k + np.arange(k)).ravel()


def _step(pieces: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One step from its ``(dst, src)`` pieces (none: an empty step)."""
    none = np.empty(0, np.int64)
    return tuple(np.concatenate([none, *(x[i].ravel() for x in pieces)]) for i in (0, 1))


def _moving(plan: BatchedPlan) -> list[list[BatchedRound]]:
    """Per phase, the rounds that move a byte from a sender to a receiver."""
    return [
        [r for r in phase if r.send and r.recv and r.wire_nbytes]
        for phase in plan.phases
    ]


def fuse_phases(plan: BatchedPlan) -> Optional[FusedProgram]:
    """Lower ``plan`` onto its block, composed from its own kernels: in
    each phase, rank ``recv_rows[k]`` (rank ``k`` without them) at the
    word a round's ``recv`` kernel scatters wire word ``w`` to takes
    rank ``recv_sources[k]`` at the word its ``send`` kernel gathers
    ``w`` from.  NumPy gathers a step's whole right-hand side before it
    writes, so a phase reads its snapshot; a reduction folds between the
    steps.  ``None`` where :attr:`BatchedPlan.fused_lane` is."""
    lane = plan.fused_lane
    if lane is None:
        return None
    moving = _moving(plan)
    prog = plan.copy_program

    def at(rows: np.ndarray, name: str, sel: Selector, n: int) -> np.ndarray:
        # the words ``sel`` names in buffer ``name`` on each of ``rows``
        return rows[:, None] * (plan.sizes[name] // lane) + (
            plan.offsets[name] // lane + _words(sel, n, lane)
        )

    def side(rows: np.ndarray, kernel: CompiledBlockSet) -> np.ndarray:
        # per wire word of ``kernel``, the word it names on each row
        out = np.empty((rows.size, kernel.total_nbytes // lane), np.int64)
        for name, wire, sel, n in _ops(kernel, lane):
            out[:, _words(wire, n, lane)] = at(rows, name, sel, n)
        return out

    ranks = np.arange(plan.p)
    pieces = [
        [(side(ranks if r.recv_rows is None else r.recv_rows, r.recv),
          side(r.recv_sources, r.send)) for r in phase]
        for phase in moving
    ]
    if prog.fused and prog.nbytes:  # the same words on every rank
        pieces.append([
            (at(ranks, dst, dst_sel, n), at(ranks, src, src_sel, n))
            for src, dst, src_sel, dst_sel, n in _ops(prog, lane)
        ])
    return FusedProgram(_lane_dtype(lane), tuple(map(_step, pieces)))


def _ops(program: Any, lane: int) -> list[tuple]:
    """A kernel's selector ops, then its slice runs as selector ops at
    ``lane``: ``(*buffer names, selector, selector, its lane)``."""
    return [*program._sel_ops] + [
        (*names, slice(a // lane, (a + n) // lane),
         slice(b // lane, (b + n) // lane), lane)
        for *names, a, b, n in program._run_ops
    ]


# ---------------------------------------------------------------------------
# planes: a round is a shift of the rank grid
# ---------------------------------------------------------------------------

#: A plan's moves on its rank-minor block of ``dtype`` words: per phase its
#: ``(src, (rows, *rank slices), dst, (rows, *rank slices))`` slab copies,
#: the local copies ``(src, rows, dst, rows)``, the buffers staging is seen in.
PlaneProgram = namedtuple("PlaneProgram", ["lane", "dtype", "phases", "copies", "stale"])

#: What a slab copy must move for planes to beat fused maps (Moore alltoall, allgather,
#: allreduce: fused win at p ≤ 64 and (8,8,8) in lane 8, planes from lane 64 at p ≥ 256).
PLANE_WORDS_PER_LAUNCH = 64
PLANE_BYTES_PER_LAUNCH = 4096


def _plane_lane(plan: BatchedPlan) -> Optional[int]:
    """The word a plane holds: the widest every buffer size and kernel,
    fold and copy extent allow; ``None`` if not whole combine elements."""
    kernels = [k for phase in _moving(plan) for r in phase for k in (r.send, r.recv)]
    combines = [c for c in (plan.pre_program, *plan.combine_programs) if c]
    lane = _lane_of(
        *plan.sizes.values(),
        *(op[-1] for k in (*kernels, plan.copy_program) for op in k._sel_ops),
        *(x for k in (*kernels, plan.copy_program) for op in k._run_ops for x in op[-3:]),
        *(x for c in combines for step in c.steps for x in step[1:5:2]),
    )
    return None if combines and lane % combines[0].dtype.itemsize else lane


def _pieces(dims: Sequence[int], periods: Sequence[bool], sources: np.ndarray) -> tuple:
    """A round's delivery as slabs of the rank grid: per side, the
    receivers' and their senders' slices — one or two sides per shifted
    torus dimension, no wrap side on a mesh."""
    j = int(np.argmax(sources >= 0))
    return _slabs(tuple(dims), tuple(periods), j, int(sources[j]))


@lru_cache(maxsize=1024)
def _slabs(dims: tuple, periods: tuple, rank: int, source: int) -> tuple:
    """:func:`_pieces` of a round in which ``rank`` hears ``source``."""
    sides = []
    for n, per in zip(reversed(dims), reversed(periods)):
        (rank, at), (source, to) = divmod(rank, n), divmod(source, n)
        s = (to - at) % n if per else to - at
        cut = [(slice(0, n - s), slice(s, n))] if s >= 0 else [(slice(-s, n), slice(0, n + s))]
        sides.insert(0, cut + [(slice(n - s, n), slice(0, s))] if per and s else cut)
    return tuple(tuple(zip(*side)) for side in itertools.product(*sides))


def _launches(plan: BatchedPlan) -> int:
    """The slab copies of :attr:`BatchedPlan.planes`: per moving round, pieces × runs."""
    _, dims, periods, _ = plan.key

    def runs(kernel: CompiledBlockSet) -> int:
        sels = [sel for op in kernel._sel_ops for sel in op[1:3] if type(sel) is not slice]
        breaks = sum(int((np.diff(sel) != 1).sum()) for sel in sels)
        return len(kernel._run_ops) + len(kernel._sel_ops) + breaks

    return sum(
        len(_pieces(dims, periods, r.sources)) * max(runs(r.send), runs(r.recv))
        for phase in _moving(plan) for r in phase
    )


def _runs(src: np.ndarray, dst: np.ndarray) -> list[tuple[slice, slice]]:
    """Paired word slots as the longest runs in which both step by one:
    ``(src rows, dst rows)`` slices, in order."""
    src, dst, runs, a = src.tolist(), dst.tolist(), [], 0
    for i in range(1, len(src) + 1):
        if i == len(src) or src[i] != src[i - 1] + 1 or dst[i] != dst[i - 1] + 1:
            runs.append((slice(src[a], src[i - 1] + 1), slice(dst[a], dst[i - 1] + 1)))
            a = i
    return runs


def lower_planes(plan: BatchedPlan) -> Optional[PlaneProgram]:
    """Lower ``plan`` onto its rank-minor block: a moving round's wire
    words, paired send to receive word by its kernels, move as runs of
    slot rows per buffer pair, shifted by the round's offset
    (:func:`_pieces`).  ``None`` where :func:`_plane_lane` is."""
    lane = _plane_lane(plan)
    if lane is None:
        return None
    names = list(plan.sizes)
    dims, periods = plan.key[1], plan.key[2]

    def side(kernel: Any) -> np.ndarray:
        # per wire word: its buffer's index × 2^32 + the word slot (a run
        # of these codes, grouped by buffer pair, is a run of one buffer)
        out = np.empty(kernel.total_nbytes // lane, np.int64)
        for name, wire, sel, n in _ops(kernel, lane):
            out[_words(wire, n, lane)] = (names.index(name) << 32) + _words(sel, n, lane)
        return out

    def moves(src: np.ndarray, dst: np.ndarray) -> list[tuple]:
        order = np.argsort((src >> 32) * len(names) + (dst >> 32), kind="stable")
        return [
            (names[a.start >> 32], slice(a.start & 2**32 - 1, a.stop - (a.start >> 32 << 32)),
             names[b.start >> 32], slice(b.start & 2**32 - 1, b.stop - (b.start >> 32 << 32)))
            for a, b in _runs(src[order], dst[order])
        ]

    rounds = [
        [(_pieces(dims, periods, r.sources), moves(side(r.send), side(r.recv)), r) for r in ph]
        for ph in _moving(plan)
    ]
    copies = [
        (src, s_rows, dst, d_rows)
        for src, dst, s, d, n in _ops(plan.copy_program, lane)
        for s_rows, d_rows in _runs(_words(s, n, lane), _words(d, n, lane))
    ]
    # staged in: the buffers read, or kept on some rank, before every
    # rank's word is written (per buffer, a bit per slot all ranks wrote)
    written = dict.fromkeys(names, 0)
    stale: set[str] = set()

    def bits(rows: slice) -> int:  # a run of word slots as a bit mask
        return (1 << rows.stop) - (1 << rows.start)

    def run(*ops: tuple) -> None:
        # (src, src rows, dst, dst rows, every rank's dst written unread),
        # read together (a phase reads its snapshot), then written
        for s, s_rows, d, d_rows, whole in ops:
            stale.update(n for n, r in ((s, s_rows), (d, d_rows))[: 2 - whole]
                         if bits(r) & ~written[n])
        for _, _, d, d_rows, whole in ops:
            written[d] |= bits(d_rows) if whole else 0

    def folds(combine: Optional[BatchedReduceRound]) -> None:
        for sb, so, db, do, n, copy_rows, _ in combine.steps if combine else ():
            run((sb, slice(so // lane, (so + n) // lane), db,
                 slice(do // lane, (do + n) // lane), copy_rows is None))

    folds(plan.pre_program)
    for phase, combine in zip(rounds, plan.combine_programs):
        run(*((*m, r.recv_rows is None) for _, ms, r in phase for m in ms))
        folds(combine)
    for copy_op in copies:
        run((*copy_op, True))
    stale.update(n for n in names if written[n] != bits(slice(0, plan.sizes[n] // lane)))
    phases = tuple(
        tuple((s, (s_rows, *at), d, (d_rows, *to))
              for pieces, ms, _ in phase for s, s_rows, d, d_rows in ms for to, at in pieces)
        for phase in rounds
    )
    return PlaneProgram(lane, _lane_dtype(lane), phases, copies, frozenset(stale))


def _phase_hazard(
    phase: "Phase", rounds: Sequence[BatchedRound]
) -> Optional[str]:
    """Why one phase needs the wire's snapshot (``None``: it does not).
    Judged on the whole phase at once, by buffer name — every rank is
    some round's sender and some round's receiver — over the halves at
    least one rank runs."""
    reads: list[BlockRef] = []
    writes: list[BlockRef] = []
    for rnd, br in zip(phase.rounds, rounds):
        if br.send is not None:
            reads += rnd.send_blocks.coalesced_runs()
        if br.recv is not None:
            writes += rnd.recv_blocks.coalesced_runs()
    return _order_hazard(reads, writes)


def _choose_delivery(
    schedule: "Schedule",
    phases: Sequence[Sequence[BatchedRound]],
    hazards: Sequence[Optional[str]],
) -> tuple[str, Optional[list[list[Optional[list[Segment]]]]]]:
    """The plan's delivery verdict: (why, per phase and round the
    segments of the in-place form — ``None`` for a staged plan).  It
    needs run counts only: no selector is built here.

    A plan runs in place iff the wire's snapshot buys it nothing (no
    combine steps, no phase hazard) and its launched copies move more
    than :data:`INDEX_RUN_LIMIT` bytes on average — the rule by which
    :func:`compile_blockset` prefers a loop of slice copies over one
    index kernel, applied to the rank dimension: below it the ``p``
    per-rank launches of a round cost more than stacking the ranks and
    moving them with one matrix kernel."""
    if schedule.is_reduction:
        return "reduction", None
    for pi, hazard in enumerate(hazards):
        if hazard is not None:
            return f"phase {pi} {hazard}", None
    try:
        segments = [
            [
                None
                if br.send is None or br.recv is None
                else zip_runs(
                    rnd.send_blocks.coalesced_runs(),
                    rnd.recv_blocks.coalesced_runs(),
                )
                for rnd, br in zip(phase.rounds, rounds)
            ]
            for phase, rounds in zip(schedule.phases, phases)
        ]
    except ScheduleError as exc:
        return str(exc), None
    nbytes = launches = 0
    for row in segments:
        for round_segments in row:
            # the launches compile_copies will make of them: per
            # (src buffer, dst buffer) pair, [runs, bytes]
            pairs: dict[tuple[str, str], list[int]] = {}
            for src, _src_off, dst, _dst_off, n in round_segments or ():
                pair = pairs.setdefault((src, dst), [0, 0])
                pair[0] += 1
                pair[1] += n
            for runs, total in pairs.values():
                nbytes += total
                launches += 1 if _index_kernel(runs, total) else runs
    if not launches:
        return "no round delivers a byte", None
    if nbytes // launches <= INDEX_RUN_LIMIT:
        return f"{nbytes // launches} B per copy ≤ {INDEX_RUN_LIMIT}", None
    return f"{nbytes // launches} B per copy > {INDEX_RUN_LIMIT}", segments


def compile_batched_plan(
    schedule: "Schedule",
    topo: "CartTopology",
    sizes: Mapping[str, int],
) -> BatchedPlan:
    """*The* lowering: ``schedule`` for all ranks of ``topo`` at once
    (no caching — see :func:`get_or_compile`).

    The per-round kernels are compiled exactly once (they are rank-
    independent — per-rank lowerings would produce ``p`` identical
    sets); the rank-varying peers come from :func:`translate_all`.
    Rounds whose receivers expect a message no rank sends (an asymmetric
    ``recv_offset`` on a mesh) are rejected here, for every backend.
    """
    t0 = time.perf_counter()
    schedule.prepare()
    p = topo.size
    phases: list[list[BatchedRound]] = []
    live_by_phase: list[list[np.ndarray]] = []
    wire_bytes = 0
    # a neighbourhood that holds an offset's negation too resolves every
    # peer vector twice — once as targets, once as sources
    peers: dict[tuple[int, ...], np.ndarray] = {}

    def resolve(offset: tuple[int, ...]) -> np.ndarray:
        if offset not in peers:
            peers[offset] = translate_all(topo, offset)
        return peers[offset]

    for phase in schedule.phases:
        rounds: list[BatchedRound] = []
        live_rounds: list[np.ndarray] = []
        for rnd in phase.rounds:
            sources = resolve(tuple(-o for o in rnd.recv_source_offset))
            targets = resolve(tuple(rnd.offset))
            live_rounds.append(sources >= 0)
            send = recv = None
            if (targets >= 0).any():
                send = compile_blockset(
                    rnd.send_blocks.coalesced_runs(), sizes
                )
            if (sources >= 0).any():
                recv = compile_blockset(
                    rnd.recv_blocks.coalesced_runs(), sizes
                )
            br = BatchedRound(sources, targets, send, recv)
            if recv is not None:
                # every receiver's source must actually address it
                srcs = br.recv_sources
                dsts = (
                    np.arange(p, dtype=np.int64)
                    if br.recv_rows is None
                    else br.recv_rows
                )
                bad = np.nonzero(targets[srcs] != dsts)[0]
                if bad.size:
                    j = int(dsts[bad[0]])
                    raise ScheduleError(
                        f"rank {j} expects a message from "
                        f"{int(sources[j])} which sent none"
                    )
            if send is not None:
                wire_bytes += send.total_nbytes * br.senders
            rounds.append(br)
        phases.append(rounds)
        live_by_phase.append(live_rounds)
    copy_program = compile_copies(schedule.prepared_copy_runs(), sizes)
    pre_program, combine_programs, reduce_missing, matrix_error = (
        _compile_batched_combines(schedule, p, live_by_phase, sizes)
    )
    hazards = [
        _phase_hazard(phase, rounds)
        for phase, rounds in zip(schedule.phases, phases)
    ]
    delivery_reason, segments = _choose_delivery(schedule, phases, hazards)
    return BatchedPlan(
        schedule.kind,
        _plan_key(topo, sizes),
        p,
        phases,
        copy_program,
        schedule.temp_nbytes,
        sizes,
        wire_bytes,
        time.perf_counter() - t0,
        pre_program=pre_program,
        combine_programs=combine_programs,
        reduce_missing=reduce_missing,
        matrix_error=matrix_error,
        hazards=hazards,
        delivery_reason=delivery_reason,
        segments=segments,
    )


def compile_plan(
    schedule: "Schedule",
    topo: "CartTopology",
    rank: int,
    sizes: Mapping[str, int],
) -> RankPlan:
    """Lower ``schedule`` and take ``rank``'s view (no caching)."""
    return compile_batched_plan(schedule, topo, sizes).for_rank(rank)


# ---------------------------------------------------------------------------
# instantiation: a plan scaled from a real lowering of its class
# ---------------------------------------------------------------------------


def _scaled_kernel(kernel: Any, num: int, den: int) -> Any:
    """A :class:`CompiledBlockSet` or :class:`CompiledCopyProgram` with
    its byte extents and lanes × ``num / den``: the same selectors."""
    if kernel is None:
        return None
    sel = [(*op[:-1], op[-1] * num // den) for op in kernel._sel_ops]
    run = [(*op[:-3], *(x * num // den for x in op[-3:])) for op in kernel._run_ops]
    groups = [(runs, n * num // den) for runs, n in kernel.groups]
    if isinstance(kernel, CompiledBlockSet):
        return CompiledBlockSet(kernel.total_nbytes * num // den, sel, run, groups)
    return CompiledCopyProgram(kernel.nbytes * num // den, kernel.fused, sel, run, groups)


def _decisions(plan: BatchedPlan, num: int = 1, den: int = 1) -> tuple:
    """What lowering ``plan``'s schedule with every extent × ``num / den``
    decides of its kernels by the lowering's own predicates: per group an
    index kernel or a slice loop (:func:`_index_kernel`), per selector op
    its word class ``gcd(8, lane)``; delivery and fused maps apart."""
    out: list[object] = [plan.delivery]
    kernels = [k for phase in plan.phases for r in phase for k in (r.send, r.recv)]
    kernels += [plan.copy_program, *(k for row in plan.deliveries or () for k in row)]
    for k in filter(None, kernels):
        out += [_index_kernel(runs, n * num // den) for runs, n in k.groups]
        out += [math.gcd(8, op[-1] * num // den) for op in k._sel_ops]
    return tuple(out)


def _with(obj: Any, **slots: Any) -> Any:
    """A shallow copy of a slotted plan object with ``slots`` replaced."""
    new = object.__new__(type(obj))
    for name in type(obj).__slots__:
        if name != "__weakref__":
            setattr(new, name, slots[name] if name in slots else getattr(obj, name))
    return new


def _instantiate(
    schedule: "Schedule", plan: BatchedPlan, decided: tuple, num: int, den: int,
    key: tuple, sizes: Mapping[str, int],
) -> Optional[BatchedPlan]:
    """``schedule``'s plan as ``plan`` (of its class, whose
    :func:`_decisions` are ``decided``) with every extent × ``num / den``,
    sharing its peer vectors, row masks, selectors and fused word maps —
    ``None`` where a size decision of the lowering would differ, which
    is read off ``plan`` and ``schedule`` before anything is copied."""
    t0 = time.perf_counter()
    if plan.matrix_error is not None or _decisions(plan, num, den) != decided:
        return None
    offsets, block_nbytes = _block_layout(plan.p, sizes)
    lane, scaled = plan.fused_lane, _fused_lane(plan, sizes, num, den)
    if (lane is not None or scaled is not None) and (
        lane is None or scaled is None or scaled * den != lane * num
        or math.gcd(8, scaled) != math.gcd(8, lane)
        or any(offsets[n] * den != o * num for n, o in plan.offsets.items())
    ):
        return None
    why, segments = _choose_delivery(schedule, plan.phases, plan.hazards)
    if (segments is None) != (plan.delivery == "staged"):
        return None

    def scale(kernel: Any) -> Any:
        return _scaled_kernel(kernel, num, den)

    combines = [
        comb and BatchedReduceRound(comb.token, comb.dtype, [
            (sb, so * num // den, db, do * num // den, n * num // den, *rows)
            for sb, so, db, do, n, *rows in comb.steps
        ])
        for comb in (plan.pre_program, *plan.combine_programs)
    ]
    new = _with(
        plan, key=key, sizes=dict(sizes), temp_nbytes=plan.temp_nbytes * num // den,
        phases=tuple(
            tuple(_with(r, send=scale(r.send), recv=scale(r.recv)) for r in phase)
            for phase in plan.phases
        ),
        copy_program=scale(plan.copy_program),
        pre_program=combines[0], combine_programs=tuple(combines[1:]),
        offsets=offsets, block_nbytes=block_nbytes,
        wire_bytes=plan.wire_bytes * num // den,
        _rank_wire_bytes=plan._rank_wire_bytes * num // den,
        delivery_reason=why, _segments=segments,
        _deliveries=plan.deliveries and tuple(tuple(map(scale, r)) for r in plan.deliveries),
        # the maps of ``plan``, moving words of the scaled lane
        _fused=_UNLOWERED if lane is None else plan,
        _planes=_UNLOWERED, _staging=None, _views={}, instantiated=True,
    )
    new.compile_seconds = time.perf_counter() - t0
    return new


def _class_key(
    form: Optional["NormalForm"], topo: "CartTopology", sizes: Mapping[str, int]
) -> Optional[tuple]:
    """What a lowering of a schedule of normal form ``form`` for ``topo``
    at ``sizes`` is filed and looked up under: the form's digest, the
    topology and the sizes in granules (``None`` without a form, or
    where a size is not whole granules)."""
    if form is None or any(n % form.granule for n in sizes.values()):
        return None
    in_granules = tuple(sorted((name, n // form.granule) for name, n in sizes.items()))
    return (form.digest, topo.dims, topo.periods, in_granules)


#: :func:`lower`'s ``form`` where its caller has not computed one
_OWN_FORM: Any = object()


def lower(
    schedule: "Schedule", topo: "CartTopology", sizes: Mapping[str, int],
    form: Any = _OWN_FORM,
) -> BatchedPlan:
    """The plan of ``schedule`` for ``topo`` at ``sizes``, uncached.
    ``form`` is the schedule's normal form
    (:func:`repro.analyze.certificates.normal_form`, computed here where
    the caller passes none).  A plan filed under its :func:`_class_key`
    (:func:`_file`) is scaled to it (:func:`_instantiate`) where one
    agrees; else it is :func:`compile_batched_plan`'s."""
    if form is _OWN_FORM:
        from repro.analyze.certificates import normal_form

        form = normal_form(schedule)
    key, cls = _plan_key(topo, sizes), _class_key(form, topo, sizes)
    plan = None
    if cls is not None:
        with _CACHE_LOCK:
            filed = [(g, d, ref()) for d, (g, ref) in _CLASSES.get(cls, {}).items()]
        for granule, decided, source in filed:
            if source is not None:
                plan = _instantiate(schedule, source, decided, form.granule, granule, key, sizes)
                if plan is not None:
                    break
    if plan is None:
        plan = compile_batched_plan(schedule, topo, sizes)
    plan.class_key = None if cls is None else (cls, form.granule)
    return plan


# ---------------------------------------------------------------------------
# the per-schedule plan cache
# ---------------------------------------------------------------------------

_CACHE_LOCK = threading.Lock()
#: (schedule identity, plan key) -> Event for compiles in flight: plan
#: compilation is single-flight per key but runs *outside* the module
#: lock, so concurrent compilation — distinct schedules, the schedule
#: service's worker pool — does not serialize on one global lock.
_BUILDING: dict[tuple, threading.Event] = {}
#: the plans currently filed on some schedule (weakly: a plan leaves
#: with its schedule-cache entry)
_CACHED: "weakref.WeakSet[BatchedPlan]" = weakref.WeakSet()
#: :func:`_class_key` -> per set of size decisions (:func:`_decisions`)
#: the newest plan filed with them, ``(granule, weak reference)``: what
#: :func:`lower` scales.  A class lives while one of its plans is filed
#: on a live schedule; least recently used keys out first
_CLASSES: "OrderedDict[tuple, dict[tuple, tuple[int, weakref.ref[BatchedPlan]]]]" = OrderedDict()
#: keys :data:`_CLASSES` holds at most
_CLASS_LIMIT = 512
_hits = 0
_misses = 0
_compile_seconds = 0.0
_walked = 0
_instantiated = 0

PlanCacheInfo = namedtuple(
    "PlanCacheInfo",
    [
        "hits",
        "misses",
        "compile_seconds",
        "selector_bytes",
        "in_place_plans",
        "fused_plans",
        "walked",
        "instantiated",
    ],
)


def invalidate_plans(schedule: "Schedule") -> None:
    """Drop every cached plan of ``schedule`` and bump its plan
    generation (under the module lock), so a compile that was in flight
    when the invalidation happened can never file its result afterwards
    — the backing store of
    :meth:`~repro.core.schedule.Schedule.clear_plans`."""
    with _CACHE_LOCK:
        _CACHED.difference_update(schedule._plans.values())
        schedule._plans.clear()
        schedule._plans_generation += 1


def get_or_compile(
    schedule: "Schedule",
    topo: "CartTopology",
    buffers: Optional[Mapping[str, np.ndarray]] = None,
    *,
    sizes: Optional[Mapping[str, int]] = None,
) -> tuple[BatchedPlan, bool]:
    """Return ``(plan, hit)`` — the cached plan for ``topo`` and this
    buffer signature, or a freshly compiled one.  Plans live on the
    schedule object itself, so they are invalidated exactly when the
    schedule-cache entry is.  Single-flight: one compile per key however
    many rank threads ask (the others wait and count a hit), the compile
    itself outside the lock, and a generation guard so a compile racing
    :func:`invalidate_plans` is returned to its caller but never cached
    (no resurrected entries, no leaked plans)."""
    global _hits
    if sizes is None:
        if buffers is None:
            raise ValueError("need buffers or sizes to key a plan")
        sizes = effective_sizes(schedule, buffers)
    sizes = dict(sizes)
    key = _plan_key(topo, sizes)
    cache = schedule._plans
    token = (id(schedule), key)
    while True:
        with _CACHE_LOCK:
            plan = cache.get(key)
            if plan is not None:
                _hits += 1
                return plan, True
            pending = _BUILDING.get(token)
            if pending is None:
                pending = _BUILDING[token] = threading.Event()
                generation = schedule._plans_generation
                break
        # another thread is compiling this key: wait and re-check
        pending.wait()
    try:
        compiled = lower(schedule, topo, sizes)
        _file(schedule, compiled, generation)
        return compiled, False
    finally:
        with _CACHE_LOCK:
            _BUILDING.pop(token, None)
        pending.set()


def adopt_certified(
    schedule: "Schedule", certify: Callable[[], Optional[BatchedPlan]]
) -> None:
    """Run ``certify`` — the ``verify_on_build`` hook on the freshly
    built ``schedule``; it raises on a defect and returns the lowering
    its clean report judged — and file that plan as
    :func:`get_or_compile` files its own (:func:`_file`, the generation
    read before the lowering, so an invalidation that raced it wins).
    What then executes is the object that was certified; a caller whose
    sizes are not the verifier's (a padded ``alltoallw``) compiles its
    own."""
    with _CACHE_LOCK:
        generation = schedule._plans_generation
    plan = certify()
    if plan is not None:
        _file(schedule, plan, generation)


def _file(schedule: "Schedule", plan: BatchedPlan, generation: int) -> None:
    """Book ``plan`` (a real lowering is a miss and its seconds, a scaled
    one an instantiation) and file it on ``schedule`` behind the
    generation guard, and under its class key as the newest plan of its
    size decisions."""
    global _misses, _compile_seconds, _instantiated
    decided = None if plan.class_key is None else _decisions(plan)
    with _CACHE_LOCK:
        if plan.instantiated:
            _instantiated += 1
        else:
            _misses += 1
            _compile_seconds += plan.compile_seconds
        if schedule._plans_generation != generation or plan.key in schedule._plans:
            return
        schedule._plans[plan.key] = plan
        _CACHED.add(plan)
        if plan.class_key is not None:
            cls, granule = plan.class_key
            _CLASSES.setdefault(cls, {})[decided] = (granule, weakref.ref(plan))
            _CLASSES.move_to_end(cls)
            if len(_CLASSES) > _CLASS_LIMIT:
                _CLASSES.popitem(last=False)


def record_walk() -> None:
    """Count one all-ranks execution the batched backend could not run
    in a matrix form and handed to the per-rank walk."""
    global _walked
    with _CACHE_LOCK:
        _walked += 1


def plan_cache_info() -> PlanCacheInfo:
    """Process-wide plan-compilation counters (all schedules: ``misses``
    and ``compile_seconds`` real lowerings, ``instantiated`` plans scaled
    from their class's); of the plans cached right now, the index-array
    bytes they hold, how many the batched backend delivers in place and
    how many have their fused maps lowered; and how many executions took
    the per-rank walk instead of a matrix form."""
    with _CACHE_LOCK:
        cached = list(_CACHED)
        return PlanCacheInfo(
            hits=_hits,
            misses=_misses,
            compile_seconds=_compile_seconds,
            selector_bytes=sum(plan.selector_nbytes for plan in cached),
            in_place_plans=sum(
                plan.delivery == "in-place" for plan in cached
            ),
            fused_plans=sum(
                isinstance(plan._fused, FusedProgram) for plan in cached
            ),
            walked=_walked,
            instantiated=_instantiated,
        )


def plan_cache_reset() -> None:
    """Reset the process-wide plan counters and forget every class
    (tests)."""
    global _hits, _misses, _compile_seconds, _walked, _instantiated
    with _CACHE_LOCK:
        _hits = 0
        _misses = 0
        _compile_seconds = 0.0
        _walked = 0
        _instantiated = 0
        _CLASSES.clear()
