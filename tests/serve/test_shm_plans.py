"""Shared-memory plan store: image fidelity, zero-copy mapping,
publish/attach protocol, corruption detection."""

import multiprocessing

import numpy as np
import pytest

from repro.core import plan as plan_mod
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.reduce_schedule import build_reduce_schedule
from repro.core.schedule import uniform_block_layout
from repro.core.serialize import CorruptFrameError
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import ScheduleError
from repro.serve.shm_plans import (
    STORE_VERSION,
    ShmPlanStore,
    key_digest,
    plan_from_image,
    plan_to_image,
)

NBH = moore_neighborhood(2, 1, include_self=False)


def compiled_plan(rank=0, m=8, dims=(3, 3)):
    sizes = [m] * NBH.t
    sched = build_alltoall_schedule(
        NBH,
        list(uniform_block_layout(sizes, "send")),
        list(uniform_block_layout(sizes, "recv")),
    )
    sched.prepare()
    topo = CartTopology(dims, (True,) * len(dims))
    byte_sizes = {
        "send": sum(sizes),
        "recv": sum(sizes),
        "temp": max(1, sched.temp_nbytes),
    }
    return plan_mod.compile_plan(sched, topo, rank, byte_sizes), byte_sizes


def fresh_buffers(byte_sizes, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 256, n, dtype=np.uint8).copy()
        for name, n in byte_sizes.items()
    }


def run_plan(plan, byte_sizes):
    """Drive every kernel of a plan deterministically; returns the final
    recv buffer (pack → loopback-deliver → local copies)."""
    buffers = fresh_buffers(byte_sizes)
    for phase in plan.phases:
        payloads = [
            rnd.send.pack(buffers) if rnd.send is not None else None
            for rnd in phase
        ]
        for rnd, payload in zip(phase, payloads):
            if rnd.recv is not None and payload is not None:
                rnd.recv.unpack(buffers, payload)
    plan.run_local_copies(buffers)
    return buffers["recv"].copy()


class TestPlanImage:
    def test_round_trip_is_byte_stable(self):
        plan, _ = compiled_plan()
        image = plan_to_image(plan)
        back = plan_from_image(memoryview(image))
        # a second serialization of the reconstruction is byte-identical
        assert plan_to_image(back) == image

    def test_round_trip_preserves_execution(self):
        plan, byte_sizes = compiled_plan()
        back = plan_from_image(memoryview(plan_to_image(plan)))
        assert back.kind == plan.kind
        assert back.rank == plan.rank
        assert back.wire_bytes == plan.wire_bytes
        assert back.temp_nbytes == plan.temp_nbytes
        assert back.num_rounds == plan.num_rounds
        np.testing.assert_array_equal(
            run_plan(back, byte_sizes), run_plan(plan, byte_sizes)
        )

    def test_reconstructed_selectors_are_read_only_views(self):
        plan, _ = compiled_plan()
        image = plan_to_image(plan)
        back = plan_from_image(memoryview(image))
        arrays = [
            sel
            for phase in back.phases
            for rnd in phase
            for cbs in (rnd.send, rnd.recv)
            if cbs is not None
            for _, w, b, _lane in cbs._sel_ops
            for sel in (w, b)
            if isinstance(sel, np.ndarray)
        ]
        for arr in arrays:
            assert not arr.flags.writeable
            assert arr.base is not None  # a view, not a copy

    def test_image_carries_each_selector_lane(self):
        """A lane may be a whole block: at m = 24 every index moves 24
        bytes, and the mapped kernels move the same ones."""
        plan, byte_sizes = compiled_plan(m=24)
        back = plan_from_image(memoryview(plan_to_image(plan)))
        lanes = [
            [None if k is None else k.lanes for k in (rnd.send, rnd.recv)]
            for phase in plan.phases
            for rnd in phase
        ]
        assert {lane for pair in lanes for k in pair for lane in k} == {24}
        np.testing.assert_array_equal(
            run_plan(back, byte_sizes), run_plan(plan, byte_sizes)
        )
        assert lanes == [
            [None if k is None else k.lanes for k in (rnd.send, rnd.recv)]
            for phase in back.phases
            for rnd in phase
        ]

    def test_reduction_plans_refused(self):
        sched = build_reduce_schedule(NBH, m_bytes=8)
        sched.prepare()
        topo = CartTopology((3, 3), (True, True))
        sizes = plan_mod.effective_sizes(
            sched, {"send": np.zeros(8, np.uint8),
                    "recv": np.zeros(8 * (NBH.t + 1), np.uint8)}
        )
        plan = plan_mod.compile_plan(sched, topo, 0, sizes)
        with pytest.raises(ScheduleError, match="process-local"):
            plan_to_image(plan)

    def test_truncated_image_is_typed(self):
        plan, _ = compiled_plan()
        image = plan_to_image(plan)
        with pytest.raises(CorruptFrameError):
            plan_from_image(memoryview(image[:3]))
        with pytest.raises(CorruptFrameError):
            plan_from_image(memoryview(image[:20]))


class TestStore:
    def test_put_get_locate(self):
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            offset, nbytes = store.put("k1", b"payload-one")
            assert store.locate("k1") == (offset, nbytes)
            assert bytes(store.get("k1")) == b"payload-one"
            assert bytes(store.payload_at(offset, nbytes)) == b"payload-one"
            assert store.get("missing") is None
            assert "k1" in store and len(store) == 1
        finally:
            store.close()
            store.unlink()

    def test_put_is_idempotent(self):
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            first = store.put("k", b"aaaa")
            again = store.put("k", b"bbbb")  # first writer wins
            assert again == first
            assert bytes(store.get("k")) == b"aaaa"
        finally:
            store.close()
            store.unlink()

    def test_attach_sees_later_entries(self):
        """Readers rescan: entries published after attach are visible
        (write_offset is published last)."""
        store = ShmPlanStore.create(capacity=1 << 16)
        reader = ShmPlanStore.attach(store.name)
        try:
            assert reader.get("k") is None
            store.put("k", b"late entry")
            assert bytes(reader.get("k")) == b"late entry"
        finally:
            reader.close()
            store.close()
            store.unlink()

    def test_attach_is_read_only(self):
        store = ShmPlanStore.create(capacity=1 << 16)
        reader = ShmPlanStore.attach(store.name)
        try:
            with pytest.raises(ScheduleError, match="read-only"):
                reader.put("k", b"nope")
            store.put("k", b"data")
            view = reader.get("k")
            assert memoryview(view).readonly
            arr = np.frombuffer(view, dtype=np.uint8)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
            del arr, view  # release the exported views before close
        finally:
            reader.close()
            store.close()
            store.unlink()

    def test_corruption_detected_on_first_read(self):
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            offset, nbytes = store.put("k", b"precious bytes")
            # flip a payload bit behind the index's back
            store._shm.buf[offset] ^= 0xFF
            reader = ShmPlanStore.attach(store.name)
            try:
                with pytest.raises(CorruptFrameError, match="CRC32"):
                    reader.get("k")
            finally:
                reader.close()
        finally:
            store.close()
            store.unlink()

    def test_version_1_segment_is_refused(self):
        """A version-1 store holds byte-granular selectors without
        lanes; reading it as version 3 would gather the wrong words."""
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            header = bytearray(store._shm.buf[:8])
            assert int.from_bytes(header[4:8], "little") == STORE_VERSION == 3
            store._shm.buf[4:8] = (1).to_bytes(4, "little")
            with pytest.raises(CorruptFrameError, match="speaks version 1"):
                ShmPlanStore.attach(store.name)
        finally:
            store.close()
            store.unlink()

    def test_version_2_segment_is_refused(self):
        """A version-2 reader knows lanes of 1, 2, 4 and 8 bytes only;
        the two versions refuse each other's segments instead of
        misreading a block lane."""
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            store._shm.buf[4:8] = (2).to_bytes(4, "little")
            with pytest.raises(CorruptFrameError, match="speaks version 2"):
                ShmPlanStore.attach(store.name)
        finally:
            store.close()
            store.unlink()

    def test_capacity_exhaustion_is_typed(self):
        store = ShmPlanStore.create(capacity=256)
        try:
            with pytest.raises(ScheduleError, match="full"):
                store.put("k", b"x" * 512)
        finally:
            store.close()
            store.unlink()

    def test_payload_at_bounds_checked(self):
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            store.put("k", b"abc")
            with pytest.raises(CorruptFrameError, match="outside"):
                store.payload_at(0, 8)  # inside the header
            with pytest.raises(CorruptFrameError, match="outside"):
                store.payload_at(1 << 15, 64)  # past write_offset
        finally:
            store.close()
            store.unlink()

    def test_plan_round_trip_through_store(self):
        plan, byte_sizes = compiled_plan(rank=4)
        store = ShmPlanStore.create()
        try:
            digest = key_digest(("plan", plan.kind, plan.rank))
            offset, nbytes = store.put(digest, plan_to_image(plan))
            reader = ShmPlanStore.attach(store.name)
            try:
                back = plan_from_image(reader.payload_at(offset, nbytes))
                np.testing.assert_array_equal(
                    run_plan(back, byte_sizes), run_plan(plan, byte_sizes)
                )
                del back  # release the zero-copy views before close
            finally:
                reader.close()
        finally:
            store.close()
            store.unlink()


def _child_publish(name, key, payload):
    reader = ShmPlanStore.attach(name)
    try:
        # attach is read-only; the child only checks visibility
        data = reader.get(key)
        assert data is not None and bytes(data) == payload
    finally:
        reader.close()


class TestCrossProcess:
    def test_forked_worker_inherits_store(self):
        """The pre-fork COW trick extended: a store created before fork
        is writable by the child through the inherited lock, and the
        parent sees the child's entry without copying."""
        ctx = multiprocessing.get_context("fork")
        store = ShmPlanStore.create(capacity=1 << 16)
        try:

            def child(store=store):
                store.put("from-child", b"published by the fork")

            proc = ctx.Process(target=child)
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            assert bytes(store.get("from-child")) == b"published by the fork"
        finally:
            store.close()
            store.unlink()

    def test_attached_process_sees_parent_entries(self):
        ctx = multiprocessing.get_context("fork")
        store = ShmPlanStore.create(capacity=1 << 16)
        try:
            store.put("k", b"parent payload")
            proc = ctx.Process(
                target=_child_publish, args=(store.name, "k", b"parent payload")
            )
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
        finally:
            store.close()
            store.unlink()
