"""Schedule (de)serialization.

Schedules are pure data (Proposition 3.1: computed locally, no
communication), so they can be cached on disk and shared between runs —
the natural continuation of the persistent-handle design.  This module
round-trips every schedule shape through plain JSON-compatible
dictionaries:

* block sets become lists of ``[buffer, offset, nbytes]``;
* rounds/phases/local copies keep their structure;
* the neighborhood rides along so a loaded schedule can re-validate
  against the communicator it is used with.

On top of the dictionary form sits a hardened **frame** format — the
wire unit of the schedule service (:mod:`repro.serve`) and the on-disk
artifact format: a fixed 16-byte header (magic, format version, payload
length) followed by the JSON payload and guarded by a CRC32.  A
truncated, corrupted, or hand-edited frame is rejected with a typed
error (:class:`TruncatedFrameError` / :class:`CorruptFrameError` /
:class:`FrameError`) instead of being silently misparsed; that
includes a bare JSON file, which is not an artifact.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Union

import numpy as np

from repro.core.neighborhood import Neighborhood
from repro.core.schedule import LocalCombine, LocalCopy, Phase, Round, Schedule
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError

FORMAT_VERSION = 1

# ---------------------------------------------------------------------------
# framed wire format
# ---------------------------------------------------------------------------

#: First bytes of every frame; doubles as the artifact file signature.
FRAME_MAGIC = b"RPRO"
#: Version of the *frame envelope* (header layout), independent of the
#: schedule payload's ``FORMAT_VERSION``.
FRAME_VERSION = 1
#: magic ``4s`` + version ``u16`` + flags ``u16`` + payload length
#: ``u32`` + payload CRC32 ``u32`` — fixed 16 bytes, little endian.
_FRAME_HEADER = struct.Struct("<4sHHII")
FRAME_HEADER_SIZE = _FRAME_HEADER.size
#: refuse absurd declared lengths before allocating (a corrupted length
#: field must not become a multi-GB allocation)
MAX_FRAME_PAYLOAD = 1 << 28


class FrameError(ScheduleError):
    """A frame violated the wire format (bad magic, bad version, bad
    declared length)."""


class TruncatedFrameError(FrameError):
    """The buffer ended before the declared frame did."""


class CorruptFrameError(FrameError):
    """The payload does not match its CRC32 (bit rot, hand edits,
    mid-write truncation that preserved the length)."""


def pack_frame(payload: Union[bytes, bytearray, memoryview]) -> bytes:
    """Wrap ``payload`` in the versioned, CRC-guarded frame envelope."""
    data = bytes(payload)
    if len(data) > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"payload of {len(data)} bytes exceeds the frame bound "
            f"{MAX_FRAME_PAYLOAD}"
        )
    header = _FRAME_HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, 0, len(data), zlib.crc32(data)
    )
    return header + data


def frame_payload_length(header: Union[bytes, bytearray, memoryview]) -> int:
    """Validate a frame header and return the declared payload length
    (how many more bytes a stream reader must consume)."""
    raw = bytes(header)
    if len(raw) < FRAME_HEADER_SIZE:
        raise TruncatedFrameError(
            f"frame header needs {FRAME_HEADER_SIZE} bytes, got {len(raw)}"
        )
    magic, version, _flags, length, _crc = _FRAME_HEADER.unpack_from(raw)
    if magic != FRAME_MAGIC:
        raise FrameError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})"
        )
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} "
            f"(this reader speaks {FRAME_VERSION})"
        )
    if length > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"declared payload of {length} bytes exceeds the frame "
            f"bound {MAX_FRAME_PAYLOAD}"
        )
    return int(length)


def unpack_frame(buf: Union[bytes, bytearray, memoryview]) -> bytes:
    """Unwrap one frame; rejects truncation and CRC mismatches with the
    typed errors above.  Trailing bytes after the frame are refused
    (a frame is a complete artifact, not a stream)."""
    raw = bytes(buf)
    length = frame_payload_length(raw)
    end = FRAME_HEADER_SIZE + length
    if len(raw) < end:
        raise TruncatedFrameError(
            f"frame declares {length} payload bytes but only "
            f"{len(raw) - FRAME_HEADER_SIZE} follow the header"
        )
    if len(raw) > end:
        raise FrameError(
            f"{len(raw) - end} trailing bytes after the frame"
        )
    _magic, _version, _flags, _length, crc = _FRAME_HEADER.unpack_from(raw)
    payload = raw[FRAME_HEADER_SIZE:end]
    actual = zlib.crc32(payload)
    if actual != crc:
        raise CorruptFrameError(
            f"payload CRC32 {actual:#010x} does not match the header's "
            f"{crc:#010x}: frame is corrupted"
        )
    return payload


def _combine_to_dict(step: LocalCombine) -> dict[str, Any]:
    d: dict[str, Any] = {
        "src": [step.src.buffer, step.src.offset, step.src.nbytes],
        "dst": [step.dst.buffer, step.dst.offset, step.dst.nbytes],
    }
    if step.when_round is not None:
        d["when_round"] = step.when_round
    return d


def _combine_from_dict(d: dict[str, Any]) -> LocalCombine:
    raw_when = d.get("when_round")
    return LocalCombine(
        src=BlockRef(str(d["src"][0]), int(d["src"][1]), int(d["src"][2])),
        dst=BlockRef(str(d["dst"][0]), int(d["dst"][1]), int(d["dst"][2])),
        when_round=int(raw_when) if raw_when is not None else None,
    )


def _blockset_to_list(bs: BlockSet) -> list[list]:
    return [[r.buffer, r.offset, r.nbytes] for r in bs]


def _blockset_from_list(data: list) -> BlockSet:
    return BlockSet([BlockRef(str(b), int(o), int(n)) for b, o, n in data])


def schedule_to_dict(sched: Schedule) -> dict[str, Any]:
    """A JSON-compatible representation of a schedule.

    Reduction schedules carrying a ``custom-N`` operator token are
    refused: the token is a process-local handle to a live callable and
    cannot mean anything in another process or a later run.
    """
    from repro.core.reduce_schedule import is_custom_op_token

    if sched.combine_op is not None and is_custom_op_token(sched.combine_op):
        raise ScheduleError(
            f"cannot serialize a reduction schedule with custom operator "
            f"token {sched.combine_op!r}: custom callables are "
            f"process-local; use a named op or rebuild the schedule "
            f"in the loading process"
        )
    return {
        "format": FORMAT_VERSION,
        "kind": sched.kind,
        "offsets": sched.neighborhood.offsets.tolist(),
        "weights": (
            list(sched.neighborhood.weights)
            if sched.neighborhood.weights is not None
            else None
        ),
        "temp_nbytes": sched.temp_nbytes,
        "phases": [
            {
                "dim": ph.dim,
                "rounds": [
                    {
                        "offset": list(r.offset),
                        "send": _blockset_to_list(r.send_blocks),
                        "recv": _blockset_to_list(r.recv_blocks),
                        "logical_blocks": r.logical_blocks,
                        **(
                            {"recv_offset": list(r.recv_offset)}
                            if r.recv_offset is not None
                            else {}
                        ),
                    }
                    for r in ph.rounds
                ],
                **(
                    {
                        "combine_steps": [
                            _combine_to_dict(cs) for cs in ph.combine_steps
                        ]
                    }
                    if ph.combine_steps
                    else {}
                ),
            }
            for ph in sched.phases
        ],
        "local_copies": [
            {
                "src": [lc.src.buffer, lc.src.offset, lc.src.nbytes],
                "dst": [lc.dst.buffer, lc.dst.offset, lc.dst.nbytes],
            }
            for lc in sched.local_copies
        ],
        # per-neighbor user-buffer layouts: without them a loaded
        # schedule loses the verifier's definition check (V404), which
        # it skips when it cannot reconstruct the expected slots
        **(
            {"send_layout": [_blockset_to_list(bs) for bs in sched.send_layout]}
            if sched.send_layout is not None
            else {}
        ),
        **(
            {"recv_layout": [_blockset_to_list(bs) for bs in sched.recv_layout]}
            if sched.recv_layout is not None
            else {}
        ),
        # reduction metadata (combining/trivial reduce family); absent
        # for pure data-movement schedules, so their wire format is
        # byte-identical to what earlier writers produced
        **(
            {"combine_op": sched.combine_op}
            if sched.combine_op is not None
            else {}
        ),
        **(
            {"combine_dtype": sched.combine_dtype}
            if sched.combine_dtype is not None
            else {}
        ),
        **(
            {"pre_steps": [_combine_to_dict(s) for s in sched.pre_steps]}
            if sched.pre_steps
            else {}
        ),
        **(
            {
                "required_outputs": [
                    [r.buffer, r.offset, r.nbytes]
                    for r in sched.required_outputs
                ]
            }
            if sched.required_outputs
            else {}
        ),
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Rebuild a schedule; validates structure and internal invariants."""
    if not isinstance(data, dict) or data.get("format") != FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported schedule format {data.get('format')!r}"
        )
    nbh = Neighborhood(
        np.asarray(data["offsets"], dtype=np.int64),
        data.get("weights"),
    )
    phases = []
    for ph in data["phases"]:
        rounds = []
        for r in ph["rounds"]:
            raw_recv_offset = r.get("recv_offset")
            rounds.append(
                Round(
                    offset=tuple(int(x) for x in r["offset"]),
                    send_blocks=_blockset_from_list(r["send"]),
                    recv_blocks=_blockset_from_list(r["recv"]),
                    logical_blocks=int(r.get("logical_blocks", 0)),
                    recv_offset=(
                        tuple(int(x) for x in raw_recv_offset)
                        if raw_recv_offset is not None
                        else None
                    ),
                )
            )
        phases.append(
            Phase(
                dim=ph["dim"],
                rounds=rounds,
                combine_steps=[
                    _combine_from_dict(cs)
                    for cs in ph.get("combine_steps", [])
                ],
            )
        )
    copies = [
        LocalCopy(
            src=BlockRef(str(lc["src"][0]), int(lc["src"][1]), int(lc["src"][2])),
            dst=BlockRef(str(lc["dst"][0]), int(lc["dst"][1]), int(lc["dst"][2])),
        )
        for lc in data["local_copies"]
    ]
    # layouts are optional in the wire format: files written before
    # they were serialized (same FORMAT_VERSION) load fine, they just
    # skip the layout-dependent verifier passes
    raw_send_layout = data.get("send_layout")
    raw_recv_layout = data.get("recv_layout")
    raw_combine_op = data.get("combine_op")
    if raw_combine_op is not None:
        from repro.core.reduce_schedule import (
            is_custom_op_token,
            resolve_op_token,
        )

        if is_custom_op_token(str(raw_combine_op)):
            raise ScheduleError(
                f"refusing to load a reduction schedule with custom "
                f"operator token {raw_combine_op!r}: custom callables "
                f"are process-local and do not survive serialization"
            )
        resolve_op_token(str(raw_combine_op))  # reject unknown names now
    sched = Schedule(
        kind=str(data["kind"]),
        neighborhood=nbh,
        phases=phases,
        local_copies=copies,
        temp_nbytes=int(data["temp_nbytes"]),
        send_layout=(
            [_blockset_from_list(bs) for bs in raw_send_layout]
            if raw_send_layout is not None
            else None
        ),
        recv_layout=(
            [_blockset_from_list(bs) for bs in raw_recv_layout]
            if raw_recv_layout is not None
            else None
        ),
        combine_op=(
            str(raw_combine_op) if raw_combine_op is not None else None
        ),
        combine_dtype=(
            str(data["combine_dtype"])
            if data.get("combine_dtype") is not None
            else None
        ),
        pre_steps=[
            _combine_from_dict(s) for s in data.get("pre_steps", [])
        ],
        required_outputs=tuple(
            BlockRef(str(b), int(o), int(n))
            for b, o, n in data.get("required_outputs", [])
        ),
    )
    sched.validate()
    return sched


def schedule_to_json(sched: Schedule) -> str:
    return json.dumps(schedule_to_dict(sched))


def schedule_from_json(text: str) -> Schedule:
    return schedule_from_dict(json.loads(text))


def schedule_to_frame(sched: Schedule) -> bytes:
    """Serialize a schedule as one hardened frame (header + CRC32 over
    the JSON payload) — the unit the schedule service sends and the
    on-disk artifact format."""
    return pack_frame(schedule_to_json(sched).encode("utf-8"))


def schedule_from_frame(buf: Union[bytes, bytearray, memoryview]) -> Schedule:
    """Rebuild a schedule from one frame, rejecting truncated or
    corrupted input with a typed :class:`FrameError`."""
    payload = unpack_frame(buf)
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # CRC passed but the payload is not the JSON we wrote: a writer
        # bug or a framing mismatch, still a typed frame error
        raise CorruptFrameError(
            f"frame payload is not valid schedule JSON: {exc}"
        ) from exc
    return schedule_from_dict(data)


def save_schedule(sched: Schedule, path: str) -> None:
    """Write a schedule artifact (framed: header + CRC32 payload), so a
    later load detects truncation and hand edits instead of misparsing."""
    with open(path, "wb") as fh:
        fh.write(schedule_to_frame(sched))


def load_schedule(path: str) -> Schedule:
    """Load a schedule artifact written by :func:`save_schedule`;
    anything else (bare JSON included) raises a :class:`FrameError`."""
    with open(path, "rb") as fh:
        return schedule_from_frame(fh.read())
