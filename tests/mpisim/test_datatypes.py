"""Derived datatypes: layout math and pack/unpack roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    BlockRef,
    BlockSet,
    Contiguous,
    Hindexed,
    Hvector,
    Indexed,
    Resized,
    Struct,
    Vector,
    blockset_from_datatype,
    byte_view,
)
from repro.mpisim.exceptions import TruncationError


class TestPrimitive:
    def test_int_size(self):
        assert INT.size == 4
        assert INT.extent == 4

    def test_double_size(self):
        assert DOUBLE.size == 8

    def test_regions(self):
        assert list(INT.regions(12)) == [(12, 4)]

    def test_pack_unpack(self):
        buf = np.arange(5, dtype=np.int32)
        payload = INT.pack(buf, base=8)  # element 2
        assert np.frombuffer(payload, np.int32)[0] == 2
        INT.unpack(buf, np.int32(77).tobytes(), base=0)
        assert buf[0] == 77


class TestContiguous:
    def test_size_extent(self):
        t = Contiguous(5, INT)
        assert t.size == 20 and t.extent == 20

    def test_nested(self):
        t = Contiguous(2, Contiguous(3, BYTE))
        assert t.size == 6

    def test_flatten_coalesces(self):
        t = Contiguous(4, INT)
        assert t.flatten() == [(0, 16)]

    def test_pack(self):
        buf = np.arange(6, dtype=np.int32)
        got = np.frombuffer(Contiguous(3, INT).pack(buf, base=4), np.int32)
        assert got.tolist() == [1, 2, 3]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Contiguous(-1, INT)


class TestVector:
    def test_column_type(self):
        # COL of Listing 3: n elements, stride n+2 doubles
        n = 4
        col = Vector(n, 1, n + 2, DOUBLE)
        assert col.size == n * 8
        regions = col.flatten()
        assert regions == [((n + 2) * 8 * i, 8) for i in range(n)]

    def test_extent(self):
        v = Vector(3, 2, 5, INT)
        assert v.extent == ((3 - 1) * 5 + 2) * 4

    def test_pack_strided(self):
        mat = np.arange(16, dtype=np.float64).reshape(4, 4)
        col = Vector(4, 1, 4, DOUBLE)
        got = np.frombuffer(col.pack(mat, base=8), np.float64)
        assert got.tolist() == [1.0, 5.0, 9.0, 13.0]

    def test_unpack_strided(self):
        mat = np.zeros((3, 3))
        col = Vector(3, 1, 3, DOUBLE)
        col.unpack(mat, np.asarray([7.0, 8.0, 9.0]).tobytes(), base=0)
        assert mat[:, 0].tolist() == [7.0, 8.0, 9.0]

    def test_zero_count(self):
        v = Vector(0, 1, 3, INT)
        assert v.size == 0 and v.extent == 0 and v.flatten() == []


class TestHvector:
    def test_matches_vector_in_bytes(self):
        v = Vector(3, 2, 7, INT)
        h = Hvector(3, 2, 28, INT)
        assert v.flatten() == h.flatten()


class TestIndexed:
    def test_layout(self):
        t = Indexed((2, 1), (0, 5), INT)
        assert t.size == 12
        assert t.flatten() == [(0, 8), (20, 4)]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Indexed((1,), (0, 1), INT)

    def test_hindexed_byte_displacements(self):
        t = Hindexed((2, 1), (0, 20), INT)
        assert t.flatten() == [(0, 8), (20, 4)]


class TestStruct:
    def test_heterogeneous(self):
        t = Struct(((0, 2, INT), (16, 1, DOUBLE)))
        assert t.size == 16
        assert t.flatten() == [(0, 8), (16, 8)]

    def test_extent(self):
        t = Struct(((4, 1, INT),))
        assert t.extent == 8


class TestResized:
    def test_extent_override(self):
        t = Resized(INT, 0, 16)
        assert t.extent == 16 and t.size == 4

    def test_repetition_uses_new_extent(self):
        t = Resized(INT, 0, 12)
        assert t.flatten(count=3) == [(0, 4), (12, 4), (24, 4)]

    def test_sugar(self):
        assert INT.resized(0, 16).extent == 16
        assert INT.contiguous(3).size == 12
        assert INT.vector(2, 1, 3).size == 8


class TestByteView:
    def test_requires_contiguous(self):
        a = np.zeros((4, 4))
        with pytest.raises(ValueError):
            byte_view(a[:, 0])

    def test_requires_ndarray(self):
        with pytest.raises(TypeError):
            byte_view([1, 2, 3])

    def test_view_is_shared_memory(self):
        a = np.zeros(2, dtype=np.int32)
        byte_view(a)[0] = 7
        assert a[0] == 7


class TestBlockSet:
    def test_append_and_total(self):
        bs = BlockSet()
        bs.append(BlockRef("send", 0, 8))
        bs.append(BlockRef("recv", 16, 4))
        assert len(bs) == 2
        assert bs.total_nbytes == 12
        assert bs.buffers_used() == {"send", "recv"}

    def test_total_is_summed_once_and_append_invalidates_it(self):
        bs = BlockSet([BlockRef("send", 0, 8)])
        assert bs.total_nbytes == 8
        bs.blocks[0] = BlockRef("send", 0, 99)  # behind the memo's back
        assert bs.total_nbytes == 8  # memoised, not re-summed
        bs.append(BlockRef("recv", 0, 4))
        assert bs.total_nbytes == 103  # append dropped the memo

    def test_pack_unpack_multi_buffer(self):
        send = np.arange(4, dtype=np.int32)
        recv = np.zeros(4, dtype=np.int32)
        bs = BlockSet([BlockRef("send", 4, 8)])
        payload = bs.pack({"send": send, "recv": recv})
        bs2 = BlockSet([BlockRef("recv", 0, 8)])
        bs2.unpack({"send": send, "recv": recv}, payload)
        assert recv.tolist() == [1, 2, 0, 0]

    def test_unpack_wrong_size(self):
        bs = BlockSet([BlockRef("b", 0, 8)])
        with pytest.raises(TruncationError):
            bs.unpack({"b": np.zeros(4, np.int32)}, b"xx")

    def test_validate_against_unknown_buffer(self):
        bs = BlockSet([BlockRef("nope", 0, 4)])
        with pytest.raises(KeyError):
            bs.validate_against({"b": np.zeros(4, np.uint8)})

    def test_validate_against_overflow(self):
        bs = BlockSet([BlockRef("b", 2, 4)])
        with pytest.raises(TruncationError):
            bs.validate_against({"b": np.zeros(4, np.uint8)})

    def test_check_disjoint_accepts_touching(self):
        BlockSet([BlockRef("b", 0, 4), BlockRef("b", 4, 4)]).check_disjoint()

    def test_check_disjoint_rejects_overlap(self):
        bs = BlockSet([BlockRef("b", 0, 5), BlockRef("b", 4, 4)])
        with pytest.raises(ValueError, match="overlap"):
            bs.check_disjoint()

    def test_negative_ref_rejected(self):
        with pytest.raises(ValueError):
            BlockRef("b", -1, 4)

    def test_equality(self):
        a = BlockSet([BlockRef("b", 0, 4)])
        b = BlockSet([BlockRef("b", 0, 4)])
        assert a == b

    def test_from_datatype(self):
        bs = blockset_from_datatype("grid", Vector(3, 1, 4, DOUBLE), base=8)
        assert [(r.offset, r.nbytes) for r in bs] == [(8, 8), (40, 8), (72, 8)]

    def test_empty_pack(self):
        assert BlockSet().pack({}) == b""


class TestCoalescedRuns:
    """The pack/unpack fast path: runs of exactly-consecutive blocks
    collapse to single slice copies without changing the wire format."""

    def test_adjacent_blocks_merge(self):
        bs = BlockSet(
            [BlockRef("b", 0, 4), BlockRef("b", 4, 4), BlockRef("b", 8, 2)]
        )
        assert bs.coalesced_runs() == [BlockRef("b", 0, 10)]

    def test_gap_and_buffer_boundaries_preserved(self):
        bs = BlockSet(
            [
                BlockRef("b", 0, 4),
                BlockRef("b", 8, 4),   # gap: no merge
                BlockRef("c", 12, 4),  # other buffer: no merge
            ]
        )
        assert bs.coalesced_runs() == bs.blocks

    def test_out_of_order_and_overlap_not_merged(self):
        # the send side may revisit bytes; order defines the wire format
        bs = BlockSet([BlockRef("b", 4, 4), BlockRef("b", 0, 4)])
        assert bs.coalesced_runs() == bs.blocks
        bs2 = BlockSet([BlockRef("b", 0, 6), BlockRef("b", 4, 4)])
        assert bs2.coalesced_runs() == bs2.blocks

    def test_zero_size_blocks_dropped(self):
        bs = BlockSet(
            [BlockRef("b", 0, 4), BlockRef("b", 4, 0), BlockRef("b", 4, 4)]
        )
        assert bs.coalesced_runs() == [BlockRef("b", 0, 8)]

    def test_append_invalidates_cached_runs(self):
        bs = BlockSet([BlockRef("b", 0, 4)])
        assert bs.coalesced_runs() == [BlockRef("b", 0, 4)]
        bs.append(BlockRef("b", 4, 4))
        assert bs.coalesced_runs() == [BlockRef("b", 0, 8)]

    def _naive_pack(self, bs, buffers):
        return b"".join(
            byte_view(buffers[b.buffer])[b.offset : b.offset + b.nbytes].tobytes()
            for b in bs
        )

    def test_pack_matches_per_block_reference(self):
        src = np.arange(64, dtype=np.uint8)
        other = np.arange(64, 128, dtype=np.uint8)
        bufs = {"b": src, "c": other}
        cases = [
            BlockSet([BlockRef("b", 0, 8)]),  # single-run fast path
            BlockSet([BlockRef("b", 0, 8), BlockRef("b", 8, 8)]),
            BlockSet(
                [
                    BlockRef("b", 8, 8),
                    BlockRef("b", 0, 8),   # out of order
                    BlockRef("c", 0, 4),
                    BlockRef("c", 4, 4),   # merges
                    BlockRef("b", 4, 8),   # overlaps earlier bytes
                ]
            ),
        ]
        for bs in cases:
            assert bs.pack(bufs) == self._naive_pack(bs, bufs)

    def test_unpack_matches_per_block_reference(self):
        rng = np.random.default_rng(7)
        payload_src = rng.integers(0, 255, 32).astype(np.uint8)
        bs = BlockSet(
            [
                BlockRef("x", 0, 8),
                BlockRef("x", 8, 8),   # merges with previous
                BlockRef("y", 4, 8),
                BlockRef("x", 24, 8),  # gap
            ]
        )
        payload = payload_src.tobytes()
        out = {"x": np.zeros(32, np.uint8), "y": np.zeros(16, np.uint8)}
        bs.unpack(out, payload)
        ref = {"x": np.zeros(32, np.uint8), "y": np.zeros(16, np.uint8)}
        pos = 0
        for b in bs:
            byte_view(ref[b.buffer])[b.offset : b.offset + b.nbytes] = (
                payload_src[pos : pos + b.nbytes]
            )
            pos += b.nbytes
        assert np.array_equal(out["x"], ref["x"])
        assert np.array_equal(out["y"], ref["y"])


# ---------------------------------------------------------------------------
# property-based roundtrips
# ---------------------------------------------------------------------------

@st.composite
def indexed_types(draw):
    nblocks = draw(st.integers(1, 6))
    lengths = draw(
        st.lists(st.integers(0, 4), min_size=nblocks, max_size=nblocks)
    )
    # non-overlapping, increasing displacements
    displs = []
    pos = 0
    for ln in lengths:
        pos += draw(st.integers(0, 3))
        displs.append(pos)
        pos += ln
    return Indexed(tuple(lengths), tuple(displs), INT), pos


@settings(max_examples=40, deadline=None)
@given(indexed_types(), st.integers(0, 1_000_000))
def test_indexed_pack_unpack_roundtrip(ti, seed):
    t, min_elems = ti
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 100, size=max(min_elems, 1)).astype(np.int32)
    dst = np.full_like(src, -1)
    payload = t.pack(src)
    assert len(payload) == t.size
    t.unpack(dst, payload)
    # every described element equal, all others untouched
    described = np.zeros(src.size, dtype=bool)
    for off, n in t.flatten():
        lo, hi = off // 4, (off + n) // 4
        described[lo:hi] = True
    assert np.array_equal(dst[described], src[described])
    assert (dst[~described] == -1).all()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 16)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 10**6),
)
def test_blockset_roundtrip_random(refs, seed):
    # lay blocks out disjointly in one buffer
    bs = BlockSet()
    pos = 0
    for gap, n in refs:
        pos += gap
        bs.append(BlockRef("buf", pos, n))
        pos += n
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 255, size=pos + 1).astype(np.uint8)
    dst = np.zeros_like(src)
    payload = bs.pack({"buf": src})
    assert len(payload) == bs.total_nbytes
    bs.unpack({"buf": dst}, payload)
    mask = np.zeros(src.size, dtype=bool)
    for r in bs:
        mask[r.offset : r.offset + r.nbytes] = True
    assert np.array_equal(dst[mask], src[mask])
    assert (dst[~mask] == 0).all()


class TestSubarray:
    def test_matches_numpy_slab(self):
        from repro.mpisim.datatypes import Subarray

        rng = np.random.default_rng(3)
        arr = rng.integers(0, 100, (5, 6, 4)).astype(np.int32)
        t = Subarray((5, 6, 4), (2, 3, 2), (1, 2, 1), INT)
        got = np.frombuffer(t.pack(arr), np.int32).reshape(2, 3, 2)
        assert np.array_equal(got, arr[1:3, 2:5, 1:3])

    def test_unpack_scatters(self):
        from repro.mpisim.datatypes import Subarray

        arr = np.zeros((4, 4), np.int32)
        t = Subarray((4, 4), (2, 2), (1, 1), INT)
        t.unpack(arr, np.asarray([1, 2, 3, 4], np.int32).tobytes())
        assert np.array_equal(arr[1:3, 1:3], [[1, 2], [3, 4]])
        assert arr.sum() == 10

    def test_size_and_extent(self):
        from repro.mpisim.datatypes import Subarray

        t = Subarray((4, 4), (2, 3), (0, 1), INT)
        assert t.size == 6 * 4
        assert t.extent == 16 * 4

    def test_column_equals_vector(self):
        """A one-column subarray flattens like the COL vector type."""
        from repro.mpisim.datatypes import Subarray

        n = 4
        col_sub = Subarray((n, n + 2), (n, 1), (0, 1), DOUBLE)
        col_vec = Vector(n, 1, n + 2, DOUBLE)
        assert col_sub.flatten() == col_vec.flatten(base=8)

    def test_bounds_checked(self):
        from repro.mpisim.datatypes import Subarray

        with pytest.raises(ValueError, match="out of bounds"):
            Subarray((4, 4), (3, 3), (2, 0), INT)

    def test_arity_checked(self):
        from repro.mpisim.datatypes import Subarray

        with pytest.raises(ValueError, match="align"):
            Subarray((4, 4), (2,), (0, 0), INT)

    def test_empty_subarray(self):
        from repro.mpisim.datatypes import Subarray

        t = Subarray((4, 4), (0, 2), (0, 0), INT)
        assert t.size == 0 and t.flatten() == []

    def test_matches_halo_region_builder(self):
        """Subarray and region_from_slices produce the same block list
        for the same slab."""
        from repro.mpisim.datatypes import Subarray, blockset_from_datatype
        from repro.stencil.halo import region_from_slices

        shape = (6, 7)
        t = Subarray(shape, (2, 3), (1, 2), DOUBLE)
        via_type = blockset_from_datatype("g", t)
        via_slices = region_from_slices(
            shape, (slice(1, 3), slice(2, 5)), 8, "g"
        )
        assert via_type == via_slices
