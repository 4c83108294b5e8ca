"""MPI derived datatypes over NumPy buffers.

The paper's message-combining schedules avoid explicit packing by
describing each round's data as an MPI *structured* datatype built with
``TypeApp`` (Algorithm 1): a list of (address, size) block descriptions,
possibly spanning several buffers (send buffer, receive buffer, temporary
buffer), communicated from ``MPI_BOTTOM``.

This module reproduces that machinery for NumPy:

* the classic type constructors — :class:`Primitive`,
  :class:`Contiguous`, :class:`Vector` / :class:`Hvector`,
  :class:`Indexed` / :class:`Hindexed`, :class:`Struct`,
  :class:`Resized` — each of which can enumerate the byte regions it
  describes relative to a base buffer, and pack/unpack those regions;
* :class:`BlockRef` / :class:`BlockSet` — the schedule-side equivalent of
  ``TypeApp`` over ``MPI_BOTTOM``: blocks are addressed by *buffer name*
  plus byte offset, so one send type can gather from the send and receive
  buffers of the calling process simultaneously, exactly as Algorithm 1
  requires.

Packing copies data once at the communication boundary (the eager send),
which is the closest analogue of zero-copy available without real NIC
scatter/gather; the important property preserved from the paper is that
*schedules never copy blocks between intermediate staging buffers* — the
block descriptions are assembled at schedule-construction time and reused
for every execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.mpisim.exceptions import TruncationError, UnknownBufferError


def byte_view(arr: np.ndarray) -> np.ndarray:
    """Return a flat ``uint8`` view of a C-contiguous array (no copy)."""
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"expected ndarray, got {type(arr).__name__}")
    if not arr.flags["C_CONTIGUOUS"]:
        raise ValueError("datatype buffers must be C-contiguous")
    return arr.view(np.uint8).reshape(-1)


def _coalesce(regions: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge adjacent/overlapping (offset, nbytes) regions.

    Region lists from type flattening are usually already sorted; sorting
    here makes coalescing valid for any construction order.  Overlap is
    permitted on the *send* side (the same bytes may be gathered twice) but
    callers on the receive side validate disjointness separately.
    """
    out: list[tuple[int, int]] = []
    for off, n in sorted(regions):
        if n == 0:
            continue
        if out and off <= out[-1][0] + out[-1][1]:
            last_off, last_n = out[-1]
            out[-1] = (last_off, max(last_off + last_n, off + n) - last_off)
        else:
            out.append((off, n))
    return out


class Datatype:
    """Abstract base of all datatypes.

    A datatype describes a layout of bytes relative to some base address.
    ``size`` is the number of *useful* bytes; ``extent`` the span from the
    layout's lower bound to its upper bound (used when repeating the type,
    as MPI does for ``count > 1`` arguments).
    """

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def extent(self) -> int:
        raise NotImplementedError

    @property
    def lb(self) -> int:
        """Lower bound in bytes (0 unless resized)."""
        return 0

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        """Yield (byte offset, nbytes) pairs for the data this type
        describes, where offsets are relative to the buffer start plus
        ``base``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def flatten(self, base: int = 0, count: int = 1) -> list[tuple[int, int]]:
        """Fully expanded, coalesced region list for ``count`` repetitions
        of this type starting at byte ``base``."""
        regs: list[tuple[int, int]] = []
        for c in range(count):
            regs.extend(self.regions(base + c * self.extent))
        return _coalesce(regs)

    def pack(self, buf: np.ndarray, base: int = 0, count: int = 1) -> bytes:
        """Gather this type's regions from ``buf`` into a contiguous byte
        string (the wire representation).

        One output allocation, filled region by region — not the
        ``np.concatenate(parts).tobytes()`` shape, which materializes the
        gathered bytes twice."""
        view = byte_view(buf)
        regions = self.flatten(base, count)
        out = np.empty(sum(n for _, n in regions), dtype=np.uint8)
        pos = 0
        for off, n in regions:
            out[pos : pos + n] = view[off : off + n]
            pos += n
        return out.tobytes()

    def unpack(
        self,
        buf: np.ndarray,
        payload: "bytes | bytearray | memoryview | np.ndarray",
        base: int = 0,
        count: int = 1,
    ) -> None:
        """Scatter a contiguous payload into this type's regions.

        Accepts any object exporting the buffer protocol — ``bytes``,
        ``memoryview``, a flat ``uint8`` array — without an intermediate
        copy (``np.frombuffer`` wraps, never copies)."""
        view = byte_view(buf)
        data = np.frombuffer(payload, dtype=np.uint8)
        pos = 0
        for off, n in self.flatten(base, count):
            if pos + n > data.size:
                raise TruncationError(
                    f"payload of {data.size} bytes too short for datatype "
                    f"needing {self.size * count} bytes"
                )
            view[off : off + n] = data[pos : pos + n]
            pos += n
        if pos != data.size:
            raise TruncationError(
                f"payload of {data.size} bytes longer than datatype "
                f"({pos} bytes)"
            )

    # MPI-style sugar -----------------------------------------------------
    def contiguous(self, count: int) -> "Contiguous":
        return Contiguous(count, self)

    def vector(self, count: int, blocklength: int, stride: int) -> "Vector":
        return Vector(count, blocklength, stride, self)

    def resized(self, lb: int, extent: int) -> "Resized":
        return Resized(self, lb, extent)


@dataclass(frozen=True)
class Primitive(Datatype):
    """A primitive element type, wrapping a NumPy dtype."""

    dtype: np.dtype

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    @property
    def size(self) -> int:
        return self.dtype.itemsize

    @property
    def extent(self) -> int:
        return self.dtype.itemsize

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        yield (base, self.dtype.itemsize)

    def __repr__(self) -> str:
        return f"Primitive({self.dtype})"


#: Counterparts of the MPI predefined datatypes used in the paper.
INT = Primitive(np.dtype(np.int32))
DOUBLE = Primitive(np.dtype(np.float64))
BYTE = Primitive(np.dtype(np.uint8))


@dataclass(frozen=True)
class Contiguous(Datatype):
    """``count`` consecutive repetitions of a base type."""

    count: int
    base_type: Datatype

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")

    @property
    def size(self) -> int:
        return self.count * self.base_type.size

    @property
    def extent(self) -> int:
        return self.count * self.base_type.extent

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        ext = self.base_type.extent
        for c in range(self.count):
            yield from self.base_type.regions(base + c * ext)


@dataclass(frozen=True)
class Vector(Datatype):
    """``count`` blocks of ``blocklength`` base elements, block starts
    ``stride`` base-*elements* apart (``MPI_Type_vector``).

    The canonical use in the paper's Listing 3 is the COL type describing
    one matrix column: ``Vector(n, 1, n + 2, DOUBLE)``.
    """

    count: int
    blocklength: int
    stride: int
    base_type: Datatype

    def __post_init__(self):
        if self.count < 0 or self.blocklength < 0:
            raise ValueError("count and blocklength must be non-negative")

    @property
    def size(self) -> int:
        return self.count * self.blocklength * self.base_type.size

    @property
    def extent(self) -> int:
        if self.count == 0:
            return 0
        span = ((self.count - 1) * self.stride + self.blocklength) * self.base_type.extent
        return span

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        bext = self.base_type.extent
        for c in range(self.count):
            start = base + c * self.stride * bext
            for b in range(self.blocklength):
                yield from self.base_type.regions(start + b * bext)


@dataclass(frozen=True)
class Hvector(Datatype):
    """Like :class:`Vector` but with the stride given in bytes."""

    count: int
    blocklength: int
    stride_bytes: int
    base_type: Datatype

    @property
    def size(self) -> int:
        return self.count * self.blocklength * self.base_type.size

    @property
    def extent(self) -> int:
        if self.count == 0:
            return 0
        return (self.count - 1) * self.stride_bytes + self.blocklength * self.base_type.extent

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        bext = self.base_type.extent
        for c in range(self.count):
            start = base + c * self.stride_bytes
            for b in range(self.blocklength):
                yield from self.base_type.regions(start + b * bext)


@dataclass(frozen=True)
class Indexed(Datatype):
    """Blocks of varying lengths at element displacements
    (``MPI_Type_indexed``)."""

    blocklengths: tuple[int, ...]
    displacements: tuple[int, ...]
    base_type: Datatype

    def __post_init__(self):
        object.__setattr__(self, "blocklengths", tuple(self.blocklengths))
        object.__setattr__(self, "displacements", tuple(self.displacements))
        if len(self.blocklengths) != len(self.displacements):
            raise ValueError("blocklengths and displacements differ in length")

    @property
    def size(self) -> int:
        return sum(self.blocklengths) * self.base_type.size

    @property
    def extent(self) -> int:
        if not self.blocklengths:
            return 0
        bext = self.base_type.extent
        hi = max(
            (d + b) * bext for d, b in zip(self.displacements, self.blocklengths)
        )
        lo = min(d * bext for d in self.displacements)
        return hi - min(lo, 0)

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        bext = self.base_type.extent
        for d, b in zip(self.displacements, self.blocklengths):
            start = base + d * bext
            for k in range(b):
                yield from self.base_type.regions(start + k * bext)


@dataclass(frozen=True)
class Hindexed(Datatype):
    """Like :class:`Indexed` but with byte displacements."""

    blocklengths: tuple[int, ...]
    byte_displacements: tuple[int, ...]
    base_type: Datatype

    def __post_init__(self):
        object.__setattr__(self, "blocklengths", tuple(self.blocklengths))
        object.__setattr__(self, "byte_displacements", tuple(self.byte_displacements))
        if len(self.blocklengths) != len(self.byte_displacements):
            raise ValueError("blocklengths and displacements differ in length")

    @property
    def size(self) -> int:
        return sum(self.blocklengths) * self.base_type.size

    @property
    def extent(self) -> int:
        if not self.blocklengths:
            return 0
        bext = self.base_type.extent
        hi = max(
            d + b * bext
            for d, b in zip(self.byte_displacements, self.blocklengths)
        )
        return hi

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        bext = self.base_type.extent
        for d, b in zip(self.byte_displacements, self.blocklengths):
            start = base + d
            for k in range(b):
                yield from self.base_type.regions(start + k * bext)


@dataclass(frozen=True)
class Struct(Datatype):
    """Heterogeneous blocks (``MPI_Type_create_struct``): a list of
    (byte displacement, count, datatype) entries."""

    entries: tuple[tuple[int, int, Datatype], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))

    @property
    def size(self) -> int:
        return sum(c * t.size for _, c, t in self.entries)

    @property
    def extent(self) -> int:
        if not self.entries:
            return 0
        return max(d + c * t.extent for d, c, t in self.entries)

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        for d, c, t in self.entries:
            for k in range(c):
                yield from t.regions(base + d + k * t.extent)


@dataclass(frozen=True)
class Subarray(Datatype):
    """A hyperslab of a C-ordered n-dimensional array
    (``MPI_Type_create_subarray``): the element region
    ``[starts, starts + subsizes)`` of an array of shape ``sizes``.

    The layout decomposes into contiguous runs along the last dimension
    — exactly the ROW/COL/face/corner types of halo exchanges (see
    :func:`repro.stencil.halo.region_from_slices`, which produces the
    equivalent block lists directly)."""

    sizes: tuple[int, ...]
    subsizes: tuple[int, ...]
    starts: tuple[int, ...]
    base_type: Datatype

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(x) for x in self.sizes))
        object.__setattr__(self, "subsizes", tuple(int(x) for x in self.subsizes))
        object.__setattr__(self, "starts", tuple(int(x) for x in self.starts))
        if not (len(self.sizes) == len(self.subsizes) == len(self.starts)):
            raise ValueError("sizes, subsizes and starts must align")
        for sz, sub, st in zip(self.sizes, self.subsizes, self.starts):
            if sub < 0 or st < 0 or st + sub > sz:
                raise ValueError(
                    f"subarray [{st}, {st + sub}) out of bounds for size {sz}"
                )

    @property
    def _elem_count(self) -> int:
        n = 1
        for s in self.subsizes:
            n *= s
        return n

    @property
    def size(self) -> int:
        return self._elem_count * self.base_type.size

    @property
    def extent(self) -> int:
        n = 1
        for s in self.sizes:
            n *= s
        return n * self.base_type.extent

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        if self._elem_count == 0:
            return
        bext = self.base_type.extent
        ndim = len(self.sizes)
        strides = [1] * ndim
        for j in range(ndim - 2, -1, -1):
            strides[j] = strides[j + 1] * self.sizes[j + 1]
        run = self.subsizes[-1]

        def rec(dim: int, elem_base: int):
            if dim == ndim - 1:
                start = (elem_base + self.starts[-1]) * bext
                for k in range(run):
                    yield from self.base_type.regions(base + start + k * bext)
                return
            for i in range(self.starts[dim], self.starts[dim] + self.subsizes[dim]):
                yield from rec(dim + 1, elem_base + i * strides[dim])

        yield from rec(0, 0)


@dataclass(frozen=True)
class Resized(Datatype):
    """A base type with overridden lower bound and extent
    (``MPI_Type_create_resized``), used to interleave repetitions."""

    base_type: Datatype
    new_lb: int
    new_extent: int

    @property
    def size(self) -> int:
        return self.base_type.size

    @property
    def extent(self) -> int:
        return self.new_extent

    @property
    def lb(self) -> int:
        return self.new_lb

    def regions(self, base: int = 0) -> Iterator[tuple[int, int]]:
        yield from self.base_type.regions(base)


# ---------------------------------------------------------------------------
# Multi-buffer block descriptions (the schedule-side ``TypeApp``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    """One block of bytes inside a *named* buffer.

    Schedules address three standard buffers — ``"send"``, ``"recv"`` and
    ``"temp"`` — mirroring the paper's sendbuf / recvbuf / tempbuf, but any
    name may be used (the stencil examples address the application matrix
    directly, as Listing 3 does with ``MPI_BOTTOM``-relative types).
    """

    buffer: str
    offset: int
    nbytes: int

    def __post_init__(self):
        if self.offset < 0 or self.nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")

    def end(self) -> int:
        return self.offset + self.nbytes


class BlockSet:
    """An ordered collection of :class:`BlockRef` — the accumulated result
    of Algorithm 1's ``TypeApp`` calls for one communication round.

    The block order is significant: sender and receiver commit block lists
    with *matching order and sizes*, so the wire format (plain
    concatenation) needs no headers.

    Runs of *contiguous* blocks (same buffer, each starting where the
    previous one ends) are indistinguishable on the wire from one large
    block, so packing and unpacking operate on a coalesced run list —
    computed once per block set (at schedule-build time for cached
    schedules) and reused for every execution.  Halo-style layouts whose
    regions are contiguous in memory collapse to a single slice copy.
    """

    __slots__ = ("blocks", "_runs", "_sig", "_nbytes", "_frozen")

    def __init__(self, blocks: Sequence[BlockRef] = ()):
        self.blocks: list[BlockRef] = list(blocks)
        self._runs: list[BlockRef] | None = None
        self._sig: tuple | None = None
        self._nbytes: int | None = None
        self._frozen = False

    def append(self, ref: BlockRef) -> None:
        """The ``TypeApp`` operation."""
        if self._frozen:
            raise TypeError(
                "append on a frozen (shared) BlockSet; copy it: BlockSet(bs.blocks)"
            )
        self.blocks.append(ref)
        self._runs = self._sig = self._nbytes = None

    def freeze(self) -> "BlockSet":
        """Close the block set to :meth:`append`, before sharing it
        between ranks (:func:`repro.stencil.halo.halo_specs` does)."""
        self._frozen = True
        return self

    def signature(self) -> tuple[tuple[str, int, int], ...]:
        """Canonical identity: the exact ordered (buffer, offset,
        nbytes) triples — computed once, like :meth:`coalesced_runs`."""
        sig = self._sig
        if sig is None:
            sig = self._sig = tuple(
                (b.buffer, b.offset, b.nbytes) for b in self.blocks
            )
        return sig

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[BlockRef]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockSet) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return f"BlockSet({self.blocks!r})"

    @property
    def total_nbytes(self) -> int:
        """Bytes on the wire — summed once, like :meth:`signature`."""
        n = self._nbytes
        if n is None:
            n = self._nbytes = sum(b.nbytes for b in self.blocks)
        return n

    def coalesced_runs(self) -> list[BlockRef]:
        """Order-preserving merge of adjacent blocks.

        Only *exactly consecutive* blocks in list order are merged
        (same buffer, next offset == previous end), which leaves the
        concatenated byte stream — and hence the wire format — unchanged.
        Overlapping or out-of-order blocks are kept as-is (the send side
        may legally gather the same bytes twice)."""
        runs = self._runs
        if runs is None:
            runs = []
            for b in self.blocks:
                if b.nbytes == 0:
                    continue
                if runs:
                    last = runs[-1]
                    if last.buffer == b.buffer and b.offset == last.end():
                        runs[-1] = BlockRef(
                            last.buffer, last.offset, last.nbytes + b.nbytes
                        )
                        continue
                runs.append(b)
            self._runs = runs
        return runs

    def buffers_used(self) -> set[str]:
        return {b.buffer for b in self.blocks}

    def validate_against(self, buffers: Mapping[str, np.ndarray]) -> None:
        """Check every block fits inside its buffer (debug aid)."""
        for b in self.blocks:
            if b.buffer not in buffers:
                raise UnknownBufferError(
                    f"block references unknown buffer {b.buffer!r}, not in {sorted(buffers)}"
                )
            cap = buffers[b.buffer].nbytes
            if b.end() > cap:
                raise TruncationError(
                    f"block {b} exceeds buffer {b.buffer!r} of {cap} bytes"
                )

    def check_disjoint(self) -> None:
        """Verify no two blocks overlap (required on the receive side:
        each received byte must land in exactly one location)."""
        per_buffer: dict[str, list[tuple[int, int]]] = {}
        for b in self.blocks:
            per_buffer.setdefault(b.buffer, []).append((b.offset, b.end()))
        for name, spans in per_buffer.items():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"overlapping receive blocks in buffer {name!r}: "
                        f"[{s0},{e0}) and starting at {s1}"
                    )

    # ------------------------------------------------------------------
    def pack(self, buffers: Mapping[str, np.ndarray]) -> bytes:
        """Gather all blocks, in order, into one wire payload."""
        runs = self.coalesced_runs()
        if not runs:
            return b""
        if len(runs) == 1:
            b = runs[0]
            view = byte_view(buffers[b.buffer])
            return view[b.offset : b.offset + b.nbytes].tobytes()
        parts = []
        for b in runs:
            view = byte_view(buffers[b.buffer])
            parts.append(view[b.offset : b.offset + b.nbytes])
        return np.concatenate(parts).tobytes()

    def pack_into(self, buffers: Mapping[str, np.ndarray], out: np.ndarray) -> int:
        """Gather all blocks, in order, directly into ``out`` (a flat
        ``uint8`` array of at least :attr:`total_nbytes` elements) without
        constructing an intermediate ``bytes`` object.  Returns the number
        of bytes written."""
        pos = 0
        for b in self.coalesced_runs():
            view = byte_view(buffers[b.buffer])
            out[pos : pos + b.nbytes] = view[b.offset : b.offset + b.nbytes]
            pos += b.nbytes
        return pos

    def unpack_from(self, buffers: Mapping[str, np.ndarray], data: np.ndarray) -> None:
        """Scatter a flat ``uint8`` array into the blocks, in order (the
        array-typed core of :meth:`unpack`)."""
        if data.size != self.total_nbytes:
            raise TruncationError(
                f"payload of {data.size} bytes does not match block set of "
                f"{self.total_nbytes} bytes"
            )
        pos = 0
        for b in self.coalesced_runs():
            view = byte_view(buffers[b.buffer])
            view[b.offset : b.offset + b.nbytes] = data[pos : pos + b.nbytes]
            pos += b.nbytes

    def unpack(
        self,
        buffers: Mapping[str, np.ndarray],
        payload: "bytes | bytearray | memoryview | np.ndarray",
    ) -> None:
        """Scatter one wire payload into the blocks, in order.  Accepts
        any buffer-protocol payload (``bytes``, ``memoryview``, a flat
        array) without copying it first."""
        self.unpack_from(buffers, np.frombuffer(payload, dtype=np.uint8))


def blockset_from_datatype(
    buffer: str, dtype: Datatype, base: int = 0, count: int = 1
) -> BlockSet:
    """Convert a classic derived datatype rooted at ``base`` into a
    :class:`BlockSet` over the named buffer.  This is how the ``w``
    variants translate per-neighbor user datatypes into schedule blocks."""
    bs = BlockSet()
    for off, n in dtype.flatten(base, count):
        bs.append(BlockRef(buffer, off, n))
    return bs
