"""Shared-memory plan cache: compile once, map everywhere.

The shm backend already exploits fork's copy-on-write pages: the parent
lowers the plan and takes every rank's
:class:`~repro.core.plan.RankPlan` view *before* forking, so each
worker starts with a warm plan cache for free.  That
trick only covers plans that exist at fork time.  This module extends
it to the daemon's steady state: a bounded append-only **plan store**
in one ``multiprocessing.shared_memory`` segment, created by the
master before forking, into which any worker can publish a plan it
compiled — and from which every *other* worker (and same-machine
clients holding the segment name) maps that plan **zero-copy and
read-only**: the reconstructed kernels' index arrays are
``np.frombuffer`` views of the shared pages, never copies.

Store layout (little-endian)::

    [magic "RPLS"][u32 version][u64 capacity][u64 write_offset]
    entry*: [u32 klen][u32 vlen][u32 crc32(payload)][key utf-8][payload]

Writers append under an inter-process lock and publish the new
``write_offset`` *last*, so readers — who scan without any lock — never
observe a partial entry.  Each payload carries its own CRC32, checked
on first read, so a torn or corrupted mapping surfaces as a typed
:class:`~repro.core.serialize.CorruptFrameError`.

Plans are serialized as a **plan image**: a JSON skeleton (structure,
slices, byte counts, and the lane — bytes per index, which may exceed
8 B: a whole block — each selector op counts in) plus a blob region
holding the ``int64`` gather/scatter index arrays 8-byte aligned, which
is what makes the read-side zero-copy.  Store version 2 added the
lanes, version 3 lanes wider than 8 B; a reader refuses a segment of
another version with a typed error rather than misread its selectors.
Reduction plans are refused — an image carries
data movement only, and a combine operator may be a process-local
callable; the store serves the data-movement family.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from multiprocessing import Lock as MpLock
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Optional

import numpy as np

from repro.core.plan import (
    CompiledBlockSet,
    CompiledCopyProgram,
    PlanRound,
    RankPlan,
)
from repro.core.serialize import CorruptFrameError
from repro.mpisim.exceptions import ScheduleError

STORE_MAGIC = b"RPLS"
STORE_VERSION = 3
_STORE_HEADER = struct.Struct("<4sIQQ")
_ENTRY_HEADER = struct.Struct("<III")
#: default segment capacity: generous for thousands of stencil plans
DEFAULT_CAPACITY = 8 << 20


def key_digest(key: Any) -> str:
    """A stable string identity for any canonical plan/schedule key
    (tuples containing byte strings included)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# plan image (de)serialization
# ---------------------------------------------------------------------------


def _align8(n: int) -> int:
    return (n + 7) & ~7


class _BlobWriter:
    def __init__(self) -> None:
        self.blobs: list[bytes] = []
        self.table: list[tuple[int, int]] = []
        self._offset = 0

    def add(self, arr: np.ndarray) -> int:
        data = np.ascontiguousarray(arr, dtype=np.int64).tobytes()
        index = len(self.table)
        self.table.append((self._offset, len(data) // 8))
        padded = _align8(len(data))
        self.blobs.append(data + b"\0" * (padded - len(data)))
        self._offset += padded
        return index


def _sel_to_wire(sel: Any, blobs: _BlobWriter) -> Any:
    if isinstance(sel, slice):
        return {"s": [int(sel.start or 0), int(sel.stop or 0)]}
    return {"b": blobs.add(sel)}


def _sel_from_wire(data: Any, blob_region: memoryview, table: list) -> Any:
    if "s" in data:
        start, stop = data["s"]
        return slice(int(start), int(stop))
    offset, count = table[int(data["b"])]
    return np.frombuffer(
        blob_region, dtype=np.int64, count=count, offset=offset
    )


def _cbs_to_wire(cbs: Optional[CompiledBlockSet], blobs: _BlobWriter) -> Any:
    if cbs is None:
        return None
    return {
        "total": cbs.total_nbytes,
        "sel": [
            [name, _sel_to_wire(w, blobs), _sel_to_wire(b, blobs), lane]
            for name, w, b, lane in cbs._sel_ops
        ],
        "run": [list(op) for op in cbs._run_ops],
    }


def _cbs_from_wire(
    data: Any, blob_region: memoryview, table: list
) -> Optional[CompiledBlockSet]:
    if data is None:
        return None
    return CompiledBlockSet(
        int(data["total"]),
        [
            (
                str(name),
                _sel_from_wire(w, blob_region, table),
                _sel_from_wire(b, blob_region, table),
                int(lane),
            )
            for name, w, b, lane in data["sel"]
        ],
        [
            (str(name), int(w), int(o), int(n))
            for name, w, o, n in data["run"]
        ],
    )


def plan_to_image(plan: RankPlan) -> bytes:
    """Serialize a data-movement :class:`RankPlan` into one shareable
    image (JSON skeleton + aligned ``int64`` blob region)."""
    if plan.pre_program is not None or any(
        p is not None for p in plan.combine_programs
    ):
        raise ScheduleError(
            f"cannot publish reduction plan {plan!r} to the shm store: "
            f"an image carries data movement only, and combine "
            f"operators may be process-local callables"
        )
    blobs = _BlobWriter()
    cp = plan.copy_program
    meta = {
        "kind": plan.kind,
        "rank": plan.rank,
        "temp_nbytes": plan.temp_nbytes,
        "wire_bytes": plan.wire_bytes,
        "phases": [
            [
                {
                    "src": rnd.source,
                    "tgt": rnd.target,
                    "send": _cbs_to_wire(rnd.send, blobs),
                    "recv": _cbs_to_wire(rnd.recv, blobs),
                }
                for rnd in phase
            ]
            for phase in plan.phases
        ],
        "copy": {
            "nbytes": cp.nbytes,
            "fused": cp.fused,
            "sel": [
                [src, dst, _sel_to_wire(s, blobs), _sel_to_wire(d, blobs), lane]
                for src, dst, s, d, lane in cp._sel_ops
            ],
            "run": [list(op) for op in cp._run_ops],
        },
    }
    meta["blobs"] = [list(entry) for entry in blobs.table]
    meta_bytes = json.dumps(meta).encode("utf-8")
    pad = _align8(4 + len(meta_bytes)) - (4 + len(meta_bytes))
    return b"".join(
        [
            struct.pack("<I", len(meta_bytes)),
            meta_bytes,
            b"\0" * pad,
            *blobs.blobs,
        ]
    )


def plan_from_image(buf: memoryview) -> RankPlan:
    """Rebuild a :class:`RankPlan` from a plan image.  Index arrays are
    read-only views of ``buf`` — pass a shared-memory mapping and the
    plan's kernels execute straight off the shared pages."""
    view = memoryview(buf).toreadonly()
    if len(view) < 4:
        raise CorruptFrameError("plan image shorter than its length field")
    (meta_len,) = struct.unpack_from("<I", view, 0)
    if 4 + meta_len > len(view):
        raise CorruptFrameError(
            f"plan image declares {meta_len} meta bytes, "
            f"only {len(view) - 4} present"
        )
    try:
        meta = json.loads(bytes(view[4 : 4 + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFrameError(
            f"plan image meta is not valid JSON: {exc}"
        ) from exc
    blob_region = view[_align8(4 + meta_len) :]
    table = [(int(o), int(c)) for o, c in meta["blobs"]]
    phases = [
        [
            PlanRound(
                None if rnd["src"] is None else int(rnd["src"]),
                None if rnd["tgt"] is None else int(rnd["tgt"]),
                _cbs_from_wire(rnd["send"], blob_region, table),
                _cbs_from_wire(rnd["recv"], blob_region, table),
            )
            for rnd in phase
        ]
        for phase in meta["phases"]
    ]
    cp = meta["copy"]
    copy_program = CompiledCopyProgram(
        int(cp["nbytes"]),
        bool(cp["fused"]),
        [
            (
                str(src),
                str(dst),
                _sel_from_wire(s, blob_region, table),
                _sel_from_wire(d, blob_region, table),
                int(lane),
            )
            for src, dst, s, d, lane in cp["sel"]
        ],
        [
            (str(src), str(dst), int(so), int(do), int(n))
            for src, dst, so, do, n in cp["run"]
        ],
    )
    return RankPlan(
        str(meta["kind"]),
        int(meta["rank"]),
        phases,
        copy_program,
        int(meta["temp_nbytes"]),
        int(meta["wire_bytes"]),
    )


# ---------------------------------------------------------------------------
# the shared store
# ---------------------------------------------------------------------------


class ShmPlanStore:
    """Bounded append-only key/blob store in one shared segment.

    Create it in the master **before forking** (the inter-process write
    lock travels through the fork); workers publish with :meth:`put`
    and resolve with :meth:`get`.  Out-of-process readers (clients that
    only know the segment name) use :meth:`attach` for a read-only
    mapping.
    """

    def __init__(
        self,
        shm: SharedMemory,
        lock: Optional[Any],
        owner: bool,
    ) -> None:
        self._shm = shm
        self._lock = lock
        self._owner = owner
        self._index: dict[str, tuple[int, int]] = {}
        self._verified: set[str] = set()
        self._scanned = _STORE_HEADER.size

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls, capacity: int = DEFAULT_CAPACITY, name: Optional[str] = None
    ) -> "ShmPlanStore":
        if capacity <= _STORE_HEADER.size:
            raise ValueError(f"capacity {capacity} below header size")
        shm = SharedMemory(create=True, size=capacity, name=name)
        _STORE_HEADER.pack_into(
            shm.buf,
            0,
            STORE_MAGIC,
            STORE_VERSION,
            capacity,
            _STORE_HEADER.size,
        )
        return cls(shm, MpLock(), owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmPlanStore":
        """Read-only mapping of an existing store (same-machine client
        or a worker that did not inherit the segment by fork)."""
        shm = SharedMemory(name=name)
        # only the creating process owns the segment's lifetime; a
        # reader must not enroll it for unlink-at-exit (3.11 registers
        # unconditionally, 3.13 grew track=False for this)
        resource_tracker.unregister(getattr(shm, "_name", shm.name),
                                    "shared_memory")
        magic, version, _capacity, _offset = _STORE_HEADER.unpack_from(
            shm.buf, 0
        )
        if magic != STORE_MAGIC:
            shm.close()
            raise CorruptFrameError(
                f"segment {name!r} is not a plan store "
                f"(magic {magic!r})"
            )
        if version != STORE_VERSION:
            shm.close()
            raise CorruptFrameError(
                f"plan store {name!r} speaks version {version}, "
                f"this reader {STORE_VERSION}"
            )
        return cls(shm, None, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return _STORE_HEADER.unpack_from(self._shm.buf, 0)[2]

    @property
    def used(self) -> int:
        return self._write_offset()

    def _write_offset(self) -> int:
        return _STORE_HEADER.unpack_from(self._shm.buf, 0)[3]

    def close(self) -> None:
        self._index.clear()
        try:
            self._shm.close()
        except BufferError:
            # zero-copy views handed out by get()/payload_at() are still
            # alive; the mapping stays until they are collected
            pass

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()

    # -- access --------------------------------------------------------
    def _rescan(self) -> None:
        """Fold entries published since the last scan into the local
        index (lock-free: ``write_offset`` is published after the entry
        bytes, so everything below it is complete)."""
        end = self._write_offset()
        buf = self._shm.buf
        pos = self._scanned
        while pos < end:
            klen, vlen, _crc = _ENTRY_HEADER.unpack_from(buf, pos)
            key_start = pos + _ENTRY_HEADER.size
            key = bytes(buf[key_start : key_start + klen]).decode("utf-8")
            payload_start = key_start + klen
            self._index[key] = (payload_start, vlen)
            pos = _align8(payload_start + vlen)
        self._scanned = end

    def get(self, key: str) -> Optional[memoryview]:
        """Zero-copy read-only view of ``key``'s payload, or ``None``.
        The payload CRC is checked on this key's first read."""
        if key not in self._index:
            self._rescan()
        entry = self._index.get(key)
        if entry is None:
            return None
        offset, nbytes = entry
        view = memoryview(self._shm.buf)[offset : offset + nbytes]
        if key not in self._verified:
            header_at = offset - _ENTRY_HEADER.size - len(key.encode("utf-8"))
            crc = _ENTRY_HEADER.unpack_from(self._shm.buf, header_at)[2]
            actual = zlib.crc32(view)
            if actual != crc:
                raise CorruptFrameError(
                    f"plan-store entry {key!r}: payload CRC32 "
                    f"{actual:#010x} does not match stored {crc:#010x}"
                )
            self._verified.add(key)
        return view.toreadonly()

    def locate(self, key: str) -> Optional[tuple[int, int]]:
        """``(offset, nbytes)`` of ``key``'s payload, or ``None`` —
        the reference the daemon hands to same-machine clients."""
        if key not in self._index:
            self._rescan()
        return self._index.get(key)

    def payload_at(self, offset: int, nbytes: int) -> memoryview:
        """Read-only view by direct reference (what the daemon hands to
        same-machine clients: ``(segment, offset, nbytes)``)."""
        end = offset + nbytes
        if offset < _STORE_HEADER.size or end > self._write_offset():
            raise CorruptFrameError(
                f"plan reference [{offset}, {end}) outside the "
                f"published region"
            )
        return memoryview(self._shm.buf)[offset:end].toreadonly()

    def put(self, key: str, payload: bytes) -> tuple[int, int]:
        """Publish ``payload`` under ``key``; returns ``(offset,
        nbytes)``.  Idempotent: if another worker published the key
        first, its entry wins and is returned."""
        if self._lock is None:
            raise ScheduleError(
                f"plan store {self.name!r} was attached read-only"
            )
        kbytes = key.encode("utf-8")
        with self._lock:
            self._rescan()
            existing = self._index.get(key)
            if existing is not None:
                return existing
            start = self._write_offset()
            payload_start = start + _ENTRY_HEADER.size + len(kbytes)
            end = _align8(payload_start + len(payload))
            if end > self.capacity:
                raise ScheduleError(
                    f"plan store full: entry of {len(payload)} B does "
                    f"not fit ({self.used}/{self.capacity} B used)"
                )
            buf = self._shm.buf
            _ENTRY_HEADER.pack_into(
                buf, start, len(kbytes), len(payload), zlib.crc32(payload)
            )
            buf[start + _ENTRY_HEADER.size : payload_start] = kbytes
            buf[payload_start : payload_start + len(payload)] = payload
            # publish last: readers scanning without the lock only ever
            # see complete entries below write_offset
            _STORE_HEADER.pack_into(
                buf,
                0,
                STORE_MAGIC,
                STORE_VERSION,
                self.capacity,
                end,
            )
            self._index[key] = (payload_start, len(payload))
            self._scanned = end
            return payload_start, len(payload)

    def keys(self) -> list[str]:
        self._rescan()
        return sorted(self._index)

    def __len__(self) -> int:
        self._rescan()
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None
