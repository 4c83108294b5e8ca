"""Wire protocol of the schedule service.

Every message — request or response, either direction — is one hardened
frame from :mod:`repro.core.serialize`: a 16-byte header carrying magic,
envelope version and payload length, the JSON payload, and a CRC32 the
receiver checks before parsing.  The header's length field makes the
stream self-delimiting (length-prefixed), and the CRC turns truncation
or corruption into a typed
:class:`~repro.core.serialize.FrameError` instead of a misparse.

Requests are JSON objects with an ``op`` field:

``ping``
    liveness probe; answered with ``{"status": "ok", "pong": true}``.
``schedule``
    build-or-fetch one certified schedule.  The request carries the
    schedule *kind* and *algorithm*, the neighborhood (offsets,
    weights), the Cartesian layout (dims/periods), and the byte layout:
    explicit per-neighbor block sets for the data-movement collectives,
    ``(m_bytes, dtype, reduce_op)`` for the reduction family.  The
    response embeds the schedule in its serialized dictionary form.
``plan``
    same as ``schedule`` plus ``rank`` and buffer ``sizes``; for
    same-machine clients the server compiles the per-rank execution
    plan and publishes it in the shared-memory plan store, answering
    with a ``(segment, offset, nbytes)`` reference the client maps
    zero-copy.
``stats``
    telemetry snapshot: server counters, schedule-cache counters,
    plan-cache counters, and the
    server's :class:`~repro.core.opstats.OpStats` in its
    :meth:`~repro.core.opstats.OpStats.to_json` form.
``shutdown``
    orderly stop (the response is sent before the server exits).

The request model below maps a schedule request onto the *canonical
cache fingerprint* (:func:`repro.core.schedule_cache.schedule_key`), so
the daemon's cross-connection dedup and the in-process schedule cache
agree about identity.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core import schedule_cache
from repro.core.builders import SCHEDULE_BUILDERS, schedule_kind
from repro.core.neighborhood import Neighborhood
from repro.core.reduce_schedule import op_token
from repro.core.schedule import Schedule
from repro.core.serialize import (
    FRAME_HEADER_SIZE,
    TruncatedFrameError,
    frame_payload_length,
    pack_frame,
    unpack_frame,
)
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import NeighborhoodError, ScheduleError

#: bump when a request/response field changes incompatibly
PROTOCOL_VERSION = 1


class ServeError(ScheduleError):
    """Service-level failure (server answered ``status: error``)."""


class ProtocolError(ServeError):
    """Malformed request or response payload (missing/invalid fields)."""


# ---------------------------------------------------------------------------
# frame transport helpers (shared by server, async client, sync client)
# ---------------------------------------------------------------------------


def encode_message(payload: dict) -> bytes:
    """One JSON message as a CRC-guarded, length-prefixed frame."""
    return pack_frame(json.dumps(payload).encode("utf-8"))


def decode_message(frame: bytes) -> dict:
    """Unwrap and parse one frame; typed errors on corruption."""
    raw = unpack_frame(frame)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            f"message payload must be a JSON object, got {type(data).__name__}"
        )
    return data


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame's raw bytes; a stream that ends inside a frame is a
    ``TruncatedFrameError``, one that ends between frames is not."""
    header = b""
    try:
        header = await reader.readexactly(FRAME_HEADER_SIZE)
        payload = await reader.readexactly(frame_payload_length(header))
    except asyncio.IncompleteReadError as exc:
        if not header and not exc.partial:
            raise
        raise TruncatedFrameError(
            f"stream ended inside a frame ({len(header + exc.partial)} "
            f"bytes of it arrived)"
        ) from exc
    return header + payload


def read_message_sync(sock: Any) -> dict:
    """Read exactly one framed message from a blocking socket."""
    header = _recv_exact(sock, FRAME_HEADER_SIZE)
    length = frame_payload_length(header)
    payload = _recv_exact(sock, length)
    return decode_message(header + payload)


def _recv_exact(sock: Any, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# schedule-request model
# ---------------------------------------------------------------------------

#: the wire's request kinds; a (kind, algorithm) pair is servable when
#: :func:`_builder_key` names an entry of the one builder table
SCHEDULE_KINDS = ["allgather", "allreduce", "alltoall", "reduce", "reduce_scatter"]
_REDUCE_KINDS = frozenset({"allreduce", "reduce", "reduce_scatter"})


def _builder_key(kind: str, algorithm: str) -> str:
    """The ``Schedule.kind`` a request builds (the wire spells
    ``reduce-scatter`` with an underscore)."""
    return schedule_kind(kind.replace("_", "-"), algorithm)


@dataclass(frozen=True)
class ScheduleRequest:
    """One parsed ``schedule``/``plan`` request.

    The request is self-contained pure data — everything the canonical
    cache key and the builder need — so identical requests from any
    number of connections map onto one cache entry and one build.
    """

    kind: str
    algorithm: str
    offsets: tuple[tuple[int, ...], ...]
    weights: Optional[tuple[int, ...]] = None
    dims: Optional[tuple[int, ...]] = None
    periods: Optional[tuple[bool, ...]] = None
    #: data-movement layout (per-neighbor block sets); empty for reduce
    send: tuple = ()
    recv: tuple = ()
    #: reduction layout
    m_bytes: int = 8
    dtype: str = "float64"
    reduce_op: str = "sum"
    #: plan requests only
    rank: Optional[int] = None
    sizes: Optional[tuple[tuple[str, int], ...]] = None
    #: cached derived state (not part of identity)
    _nbh: list = field(
        default_factory=list, compare=False, repr=False, hash=False
    )

    @property
    def is_reduction(self) -> bool:
        return self.kind in _REDUCE_KINDS

    # -- parsing -------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleRequest":
        try:
            kind = str(data["kind"])
            algorithm = str(data.get("algorithm", "combining"))
            offsets = tuple(
                tuple(int(x) for x in row) for row in data["offsets"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(
                f"schedule request needs 'kind' and 'offsets': {exc}"
            ) from exc
        if not offsets:
            raise ProtocolError("empty neighborhood offset list")
        widths = {len(row) for row in offsets}
        if len(widths) != 1:
            raise ProtocolError(
                f"ragged neighborhood offsets (row widths {sorted(widths)})"
            )
        if (
            kind not in SCHEDULE_KINDS
            or _builder_key(kind, algorithm) not in SCHEDULE_BUILDERS
        ):
            raise ProtocolError(
                f"unknown schedule request ({kind!r}, {algorithm!r}); "
                f"kinds: {SCHEDULE_KINDS}"
            )
        raw_weights = data.get("weights")
        raw_dims = data.get("dims")
        raw_periods = data.get("periods")
        raw_rank = data.get("rank")
        raw_sizes = data.get("sizes")
        try:
            req = cls(
                kind=kind,
                algorithm=algorithm,
                offsets=offsets,
                weights=(
                    tuple(int(w) for w in raw_weights)
                    if raw_weights is not None
                    else None
                ),
                dims=(
                    tuple(int(n) for n in raw_dims)
                    if raw_dims is not None
                    else None
                ),
                periods=(
                    tuple(bool(p) for p in raw_periods)
                    if raw_periods is not None
                    else None
                ),
                send=tuple(
                    tuple((str(b), int(o), int(n)) for b, o, n in bs)
                    for bs in data.get("send", [])
                ),
                recv=tuple(
                    tuple((str(b), int(o), int(n)) for b, o, n in bs)
                    for bs in data.get("recv", [])
                ),
                m_bytes=int(data.get("m_bytes", 8)),
                dtype=str(data.get("dtype", "float64")),
                reduce_op=str(data.get("reduce_op", "sum")),
                rank=int(raw_rank) if raw_rank is not None else None,
                sizes=(
                    tuple(sorted((str(k), int(v)) for k, v in raw_sizes.items()))
                    if raw_sizes is not None
                    else None
                ),
            )
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(
                f"malformed schedule request field: {exc} (layouts are "
                f"lists of [buffer, offset, nbytes] triples; dims, weights, "
                f"m_bytes, rank and sizes values are integers)"
            ) from exc
        if not req.is_reduction and (not req.send or not req.recv):
            raise ProtocolError(
                f"({kind!r}, {algorithm!r}) needs explicit 'send' and "
                f"'recv' block layouts"
            )
        width = len(offsets[0])
        if any(v is not None and len(v) != width for v in (req.dims, req.periods)):
            raise ProtocolError(f"'dims' and 'periods' need {width} entries, one per axis")
        try:
            req.neighborhood()  # keying needs it; refuse it here if invalid
        except (NeighborhoodError, OverflowError) as exc:
            raise ProtocolError(f"invalid neighborhood: {exc}") from exc
        return req

    def to_dict(self, op: str = "schedule") -> dict:
        """The wire form (what a client sends)."""
        out: dict[str, Any] = {
            "op": op,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "offsets": [list(row) for row in self.offsets],
        }
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.dims is not None:
            out["dims"] = list(self.dims)
        if self.periods is not None:
            out["periods"] = [bool(p) for p in self.periods]
        if self.is_reduction:
            out["m_bytes"] = self.m_bytes
            out["dtype"] = self.dtype
            out["reduce_op"] = self.reduce_op
        else:
            out["send"] = [
                [[b, o, n] for b, o, n in bs] for bs in self.send
            ]
            out["recv"] = [
                [[b, o, n] for b, o, n in bs] for bs in self.recv
            ]
        if self.rank is not None:
            out["rank"] = self.rank
        if self.sizes is not None:
            out["sizes"] = dict(self.sizes)
        return out

    # -- derived -------------------------------------------------------
    def neighborhood(self) -> Neighborhood:
        if not self._nbh:
            self._nbh.append(
                Neighborhood(
                    np.asarray(self.offsets, dtype=np.int64),
                    list(self.weights) if self.weights is not None else None,
                )
            )
        return self._nbh[0]

    def layout_signature(self) -> tuple:
        """The layout component of the canonical cache fingerprint:
        block-layout signatures for data movement, the
        ``(m, dtype, op)`` triple for reductions (mirroring the
        communicator's reduce keying)."""
        if self.is_reduction:
            return ((self.m_bytes, self.dtype, op_token(self.reduce_op)),)
        return tuple(self.send) + tuple(self.recv)

    def canonical_key(self) -> tuple:
        """The process-wide schedule-cache fingerprint of this request —
        the identity under which the daemon dedups across connections."""
        return schedule_cache.schedule_key(
            f"{self.kind}/{self.algorithm}",
            self.neighborhood(),
            self.layout_signature(),
            self.dims,
            self.periods,
        )

    def build(self) -> Schedule:
        """Construct the requested schedule (runs on a worker thread)."""
        nbh = self.neighborhood()
        builder = SCHEDULE_BUILDERS[_builder_key(self.kind, self.algorithm)]
        if self.is_reduction:
            return builder(
                nbh,
                m_bytes=self.m_bytes,
                dtype=self.dtype,
                op=self.reduce_op,
            )
        send = [
            BlockSet([BlockRef(b, o, n) for b, o, n in bs])
            for bs in self.send
        ]
        recv = [
            BlockSet([BlockRef(b, o, n) for b, o, n in bs])
            for bs in self.recv
        ]
        if self.kind == "allgather":
            if len(send) != 1:
                raise ProtocolError(
                    f"allgather takes exactly one send block set, "
                    f"got {len(send)}"
                )
            return builder(nbh, send[0], recv)
        return builder(nbh, send, recv)
