"""Schedule serialization round-trips."""

import numpy as np
import pytest

from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import get_backend
from repro.core.schedule import uniform_block_layout
from repro.core.serialize import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
    CorruptFrameError,
    FrameError,
    TruncatedFrameError,
    frame_payload_length,
    load_schedule,
    pack_frame,
    save_schedule,
    schedule_from_dict,
    schedule_from_frame,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_frame,
    schedule_to_json,
    unpack_frame,
)
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError


def build(kind="combining", d=2, n=3, m=4):
    nbh = parameterized_stencil(d, n, -1)
    sizes = [m] * nbh.t
    layouts = (
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )
    if kind == "combining":
        return build_alltoall_schedule(nbh, *layouts)
    if kind == "trivial":
        return build_trivial_alltoall_schedule(nbh, *layouts)
    return build_allgather_schedule(
        nbh,
        BlockSet([BlockRef("send", 0, m)]),
        uniform_block_layout([m] * nbh.t, "recv"),
    )


@pytest.mark.parametrize("kind", ["combining", "trivial", "allgather"])
class TestRoundTrip:
    def test_dict_roundtrip_preserves_metrics(self, kind):
        orig = build(kind)
        back = schedule_from_dict(schedule_to_dict(orig))
        assert back.kind == orig.kind
        assert back.num_rounds == orig.num_rounds
        assert back.num_phases == orig.num_phases
        assert back.volume_blocks == orig.volume_blocks
        assert back.volume_bytes == orig.volume_bytes
        assert back.temp_nbytes == orig.temp_nbytes
        assert len(back.local_copies) == len(orig.local_copies)
        assert back.neighborhood == orig.neighborhood

    def test_json_roundtrip_block_identity(self, kind):
        orig = build(kind)
        back = schedule_from_json(schedule_to_json(orig))
        for po, pb in zip(orig.phases, back.phases):
            assert po.dim == pb.dim
            for ro, rb in zip(po.rounds, pb.rounds):
                assert ro.offset == rb.offset
                assert ro.send_blocks == rb.send_blocks
                assert ro.recv_blocks == rb.recv_blocks

    def test_loaded_schedule_executes_correctly(self, kind):
        if kind == "allgather":
            pytest.skip("executed in dedicated test below")
        orig = build(kind)
        back = schedule_from_json(schedule_to_json(orig))
        topo = CartTopology((3, 3))
        nbh = orig.neighborhood
        m = 4

        def bufs():
            out = []
            for r in range(topo.size):
                send = np.empty(nbh.t * m, np.uint8)
                for i in range(nbh.t):
                    send[i * m : (i + 1) * m] = (r + 2 * i) % 251
                out.append(
                    {"send": send, "recv": np.zeros(nbh.t * m, np.uint8)}
                )
            return out

        a, b = bufs(), bufs()
        get_backend("lockstep").execute_all(topo, orig, a)
        get_backend("lockstep").execute_all(topo, back, b)
        for x, y in zip(a, b):
            assert np.array_equal(x["recv"], y["recv"])


class TestFileAndErrors:
    def test_save_load(self, tmp_path):
        orig = build()
        path = str(tmp_path / "sched.json")
        save_schedule(orig, path)
        back = load_schedule(path)
        assert back.volume_blocks == orig.volume_blocks

    def test_weights_preserved(self):
        from repro.core.neighborhood import Neighborhood
        from repro.core.trivial import build_trivial_alltoall_schedule

        nbh = Neighborhood([(1, 0), (0, 1)], weights=[5, 7])
        sched = build_trivial_alltoall_schedule(
            nbh,
            uniform_block_layout([4, 4], "send"),
            uniform_block_layout([4, 4], "recv"),
        )
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.neighborhood.weights == (5, 7)

    def test_bad_format_rejected(self):
        with pytest.raises(ScheduleError, match="format"):
            schedule_from_dict({"format": 99})

    def test_corrupted_round_rejected(self):
        data = schedule_to_dict(build())
        # corrupt a receive block's size: round byte-balance breaks
        data["phases"][0]["rounds"][0]["recv"][0][2] += 1
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)


class TestLayoutRoundTrip:
    """`Round.recv_offset` and the builder-recorded send/recv layouts
    must survive the wire format: without the layouts a loaded schedule
    loses the definition check (V404) of the verifier's sentinel
    execution."""

    def test_recv_offset_roundtrip(self):
        orig = build("trivial")
        # decouple one round's receive source from its send target (the
        # general MPI-sendrecv form); the explicit value equals the
        # default so the schedule stays certified
        target = orig.phases[0].rounds[0]
        target.recv_offset = target.offset
        back = schedule_from_dict(schedule_to_dict(orig))
        got = back.phases[0].rounds[0]
        assert got.recv_offset == target.offset
        assert got.recv_source_offset == target.recv_source_offset
        # untouched rounds keep the isomorphic None default
        assert back.phases[1].rounds[0].recv_offset is None

    @pytest.mark.parametrize("kind", ["combining", "trivial", "allgather"])
    def test_layouts_roundtrip(self, kind):
        orig = build(kind)
        assert orig.send_layout is not None  # builders record layouts
        back = schedule_from_json(schedule_to_json(orig))
        assert back.send_layout is not None
        assert back.recv_layout is not None
        assert [list(bs) for bs in back.send_layout] == [
            list(bs) for bs in orig.send_layout
        ]
        assert [list(bs) for bs in back.recv_layout] == [
            list(bs) for bs in orig.recv_layout
        ]

    def test_layouts_enable_content_verification(self):
        from repro.analyze import verify_schedule

        back = schedule_from_json(schedule_to_json(build("combining")))
        report = verify_schedule(back, (3, 3), True)
        assert report.ok, report.summary()
        assert "definition" in report.checks_run

    def test_loader_tolerates_missing_layouts(self):
        """Files written before layouts were serialized (same format
        version) must still load; the verifier then skips what it cannot
        reconstruct instead of failing."""
        from repro.analyze import verify_schedule

        data = schedule_to_dict(build("combining"))
        data.pop("send_layout")
        data.pop("recv_layout")
        back = schedule_from_dict(data)
        assert back.send_layout is None and back.recv_layout is None
        report = verify_schedule(back, (3, 3), True)
        assert report.ok, report.summary()
        assert "definition" not in report.checks_run

    def test_hand_built_schedule_omits_layout_keys(self):
        orig = build("combining")
        orig.send_layout = None
        orig.recv_layout = None
        data = schedule_to_dict(orig)
        assert "send_layout" not in data
        assert "recv_layout" not in data
        assert schedule_from_dict(data).send_layout is None


# ----------------------------------------------------------------------
# reduction schedules: combine metadata round-trips, customs refused
# ----------------------------------------------------------------------


REDUCE_KINDS_ALL = [
    "reduce",
    "reduce-scatter",
    "allreduce",
    "trivial-reduce",
    "trivial-reduce-scatter",
]


def build_reduce(kind="reduce", op="sum"):
    from repro.core.builders import SCHEDULE_BUILDERS

    return SCHEDULE_BUILDERS[kind](
        moore_neighborhood(2, 1), m_bytes=16, dtype="int64", op=op
    )


@pytest.mark.parametrize("kind", REDUCE_KINDS_ALL)
class TestReduceRoundTrip:
    def test_combine_metadata_round_trips(self, kind):
        orig = build_reduce(kind)
        back = schedule_from_json(schedule_to_json(orig))
        assert back.kind == orig.kind and back.is_reduction
        assert back.combine_op == orig.combine_op
        assert back.combine_dtype == orig.combine_dtype
        assert back.pre_steps == orig.pre_steps
        assert back.required_outputs == orig.required_outputs
        for po, pb in zip(orig.phases, back.phases):
            assert po.combine_steps == pb.combine_steps
        # a second round trip is byte-stable
        assert schedule_to_json(back) == schedule_to_json(orig)

    def test_loaded_reduce_executes_identically(self, kind):
        from repro.core.backend import LockstepBackend

        orig = build_reduce(kind)
        back = schedule_from_json(schedule_to_json(orig))
        topo = CartTopology((3, 3))
        t, m = orig.neighborhood.t, 16
        ssize = t * m if kind.endswith("reduce-scatter") else m
        rsize = t * m if kind == "allreduce" else m

        def bufs():
            out = []
            for r in range(topo.size):
                rng = np.random.default_rng(900 + r)
                out.append(
                    {
                        "send": rng.integers(-9, 9, ssize // 8)
                        .astype(np.int64)
                        .view(np.uint8),
                        "recv": np.zeros(rsize, np.uint8),
                    }
                )
            return out

        a, b = bufs(), bufs()
        LockstepBackend().execute_all(topo, orig, a)
        LockstepBackend().execute_all(topo, back, b)
        for x, y in zip(a, b):
            assert np.array_equal(x["recv"], y["recv"])

    def test_loaded_reduce_verifies_clean(self, kind):
        from repro.analyze import verify_schedule

        back = schedule_from_json(schedule_to_json(build_reduce(kind)))
        report = verify_schedule(back, (3, 3), True)
        assert report.ok, report.summary()
        assert "reduce-structure" in report.checks_run


class TestReduceSerializationRefusals:
    def test_custom_op_refused_on_save(self):
        orig = build_reduce(op=lambda a, b: np.maximum(a, b))
        with pytest.raises(ScheduleError, match="process-local"):
            schedule_to_dict(orig)

    def test_custom_token_refused_on_load(self):
        data = schedule_to_dict(build_reduce())
        data["combine_op"] = "custom-12345"
        with pytest.raises(ScheduleError, match="process-local"):
            schedule_from_dict(data)

    def test_unknown_named_token_refused_on_load(self):
        data = schedule_to_dict(build_reduce())
        data["combine_op"] = "frobnicate"
        with pytest.raises(ValueError, match="unknown reduction op token"):
            schedule_from_dict(data)

    def test_plain_schedules_keep_old_wire_format(self):
        """Pure data-movement schedules gain no new keys — files written
        by earlier versions load and new files stay byte-compatible."""
        data = schedule_to_dict(build())
        for key in (
            "combine_op",
            "combine_dtype",
            "pre_steps",
            "required_outputs",
        ):
            assert key not in data
        for ph in data["phases"]:
            assert "combine_steps" not in ph


class TestFrames:
    """The hardened wire envelope: versioned header + CRC32 payload."""

    def test_round_trip(self):
        payload = b'{"hello": 1}'
        frame = pack_frame(payload)
        assert frame[:4] == FRAME_MAGIC
        assert len(frame) == FRAME_HEADER_SIZE + len(payload)
        assert unpack_frame(frame) == payload
        assert frame_payload_length(frame[:FRAME_HEADER_SIZE]) == len(payload)

    def test_empty_payload(self):
        assert unpack_frame(pack_frame(b"")) == b""

    def test_truncated_header(self):
        frame = pack_frame(b"abc")
        with pytest.raises(TruncatedFrameError, match="header"):
            frame_payload_length(frame[: FRAME_HEADER_SIZE - 1])
        with pytest.raises(TruncatedFrameError):
            unpack_frame(frame[:4])

    def test_truncated_payload(self):
        frame = pack_frame(b"0123456789")
        with pytest.raises(TruncatedFrameError, match="declares"):
            unpack_frame(frame[:-3])

    def test_trailing_bytes_refused(self):
        frame = pack_frame(b"abc")
        with pytest.raises(FrameError, match="trailing"):
            unpack_frame(frame + b"x")

    def test_bad_magic(self):
        frame = bytearray(pack_frame(b"abc"))
        frame[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            unpack_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(pack_frame(b"abc"))
        frame[4] = 99
        with pytest.raises(FrameError, match="version"):
            unpack_frame(bytes(frame))

    def test_corrupt_payload_crc(self):
        frame = bytearray(pack_frame(b'{"k": 12345}'))
        frame[-3] ^= 0x40  # flip one payload bit
        with pytest.raises(CorruptFrameError, match="CRC32"):
            unpack_frame(bytes(frame))

    def test_absurd_declared_length_rejected(self):
        header = bytearray(pack_frame(b"abc")[:FRAME_HEADER_SIZE])
        # overwrite the length field (offset 8, little-endian u32)
        header[8:12] = (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "little")
        with pytest.raises(FrameError, match="bound"):
            frame_payload_length(bytes(header))

    def test_schedule_frame_round_trip(self):
        orig = build()
        frame = schedule_to_frame(orig)
        back = schedule_from_frame(frame)
        assert schedule_to_json(back) == schedule_to_json(orig)

    def test_valid_crc_bad_json_is_corrupt(self):
        frame = pack_frame(b"this is not json")
        with pytest.raises(CorruptFrameError, match="JSON"):
            schedule_from_frame(frame)

    def test_save_writes_framed_binary(self, tmp_path):
        path = str(tmp_path / "sched.rpro")
        orig = build()
        save_schedule(orig, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:4] == FRAME_MAGIC
        back = load_schedule(path)
        assert schedule_to_json(back) == schedule_to_json(orig)

    def test_load_accepts_legacy_plain_json(self, tmp_path):
        """Flipped with the loader (the id is kept so the suite's history
        lines up): an unframed, un-CRC'd JSON file is no longer accepted
        as an artifact."""
        path = str(tmp_path / "sched.json")
        with open(path, "w") as fh:
            fh.write(schedule_to_json(build()))
        with pytest.raises(FrameError):
            load_schedule(path)

    def test_load_rejects_corrupted_file(self, tmp_path):
        path = str(tmp_path / "sched.rpro")
        save_schedule(build(), path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CorruptFrameError):
            load_schedule(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = str(tmp_path / "sched.rpro")
        save_schedule(build(), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFrameError):
            load_schedule(path)
