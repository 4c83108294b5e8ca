"""Grid decomposition."""

import numpy as np
import pytest

from repro.core.topology import CartTopology
from repro.mpisim.exceptions import TopologyError
from repro.stencil.decomp import GridDecomposition


class TestDecomposition:
    def test_even_split(self):
        d = GridDecomposition(CartTopology((2, 2)), (8, 8))
        assert all(d.local_shape(r) == (4, 4) for r in range(4))

    def test_remainder_to_first_parts(self):
        d = GridDecomposition(CartTopology((3,)), (10,))
        assert [d.local_shape(r) for r in range(3)] == [(4,), (3,), (3,)]

    def test_slices_partition_grid(self):
        for dims, shape in [((2, 3), (7, 11)), ((4, 4), (65, 63)), ((3, 2), (65, 63))]:
            topo = CartTopology(dims)
            d = GridDecomposition(topo, shape)
            covered = np.zeros(shape, dtype=int)
            for r in range(topo.size):
                covered[d.local_slices(r)] += 1
                # the slabs held since construction are the ones split afresh
                fresh = tuple(
                    slice(*d._split(g, n)[c]) for g, n, c in zip(shape, dims, topo.coords(r))
                )
                assert d.local_slices(r) == fresh
                assert d.local_shape(r) == tuple(s.stop - s.start for s in fresh)
            assert (covered == 1).all()

    def test_rank_out_of_range(self):
        d = GridDecomposition(CartTopology((2, 2)), (8, 8))
        for rank in (-1, 4):
            with pytest.raises(TopologyError, match="out of range"):
                d.local_slices(rank)
            with pytest.raises(TopologyError, match="out of range"):
                d.local_shape(rank)

    def test_min_local_extent(self):
        d = GridDecomposition(CartTopology((3, 2)), (10, 9))
        assert d.min_local_extent() == 3

    def test_dimension_mismatch(self):
        with pytest.raises(TopologyError):
            GridDecomposition(CartTopology((2, 2)), (8,))

    def test_bad_extent(self):
        with pytest.raises(TopologyError):
            GridDecomposition(CartTopology((2,)), (0,))


class TestScatterGather:
    def test_roundtrip(self, rng):
        topo = CartTopology((2, 3))
        d = GridDecomposition(topo, (9, 8))
        g = rng.random((9, 8))
        blocks = d.scatter(g)
        assert len(blocks) == 6
        back = d.gather(blocks)
        assert np.array_equal(back, g)

    def test_blocks_are_copies(self, rng):
        d = GridDecomposition(CartTopology((2,)), (4,))
        g = np.zeros(4)
        blocks = d.scatter(g)
        blocks[0][:] = 9
        assert (g == 0).all()

    def test_scatter_shape_check(self):
        d = GridDecomposition(CartTopology((2,)), (4,))
        with pytest.raises(ValueError):
            d.scatter(np.zeros(5))

    def test_gather_count_check(self):
        d = GridDecomposition(CartTopology((2,)), (4,))
        with pytest.raises(ValueError):
            d.gather([np.zeros(2)])

    def test_gather_block_shape_check(self):
        d = GridDecomposition(CartTopology((2,)), (4,))
        with pytest.raises(ValueError):
            d.gather([np.zeros(2), np.zeros(3)])
