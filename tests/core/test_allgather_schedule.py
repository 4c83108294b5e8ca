"""Algorithm 2: allgather tree and schedule invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allgather_schedule import (
    AllgatherTree,
    build_allgather_schedule,
    increasing_ck_order,
)
from repro.core.backend import allocate_buffers, get_backend
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil, random_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError

FIGURE2_NBH = Neighborhood([(-2, 1, 1), (-1, 1, 1), (1, 1, 1), (2, 1, 1)])


def build(nbh, m=4, dim_order=None):
    return build_allgather_schedule(
        nbh,
        BlockSet([BlockRef("send", 0, m)]),
        uniform_block_layout([m] * nbh.t, "recv"),
        dim_order=dim_order,
    )


class TestTree:
    def test_figure2_increasing_order_volume(self):
        """The paper's Figure 2 left tree: dimension order (0,1,2) gives
        V = 12."""
        tree = AllgatherTree.build(FIGURE2_NBH, dim_order=(0, 1, 2))
        assert tree.edge_count == 12

    def test_figure2_decreasing_order_volume(self):
        """Figure 2 right tree, dimension order (2,1,0): one shared hop
        along dim 2, one along dim 1, then the four leaves — 6 edges.
        (The paper prints V = 7 for this tree; the count of
        prefix-sharing hops for these four vectors is 1 + 1 + 4 = 6, and
        6 is consistent with Proposition 3.3's Moore-neighborhood closed
        form, so we assert 6 — see EXPERIMENTS.md.)"""
        tree = AllgatherTree.build(FIGURE2_NBH, dim_order=(2, 1, 0))
        assert tree.edge_count == 6

    def test_default_order_is_increasing_ck(self):
        # C = (4, 1, 1): increasing order must start with dims 1, 2
        assert increasing_ck_order(FIGURE2_NBH) == (1, 2, 0)
        tree = AllgatherTree.build(FIGURE2_NBH)
        assert tree.edge_count == 6

    def test_moore_closed_form(self):
        for d, n in [(2, 3), (3, 3), (2, 5), (3, 4), (4, 3)]:
            nbh = parameterized_stencil(d, n, -1)
            tree = AllgatherTree.build(nbh)
            assert tree.edge_count == n**d - 1

    def test_moore_volume_order_invariant(self):
        """For symmetric Moore neighborhoods every dimension order gives
        the same tree volume."""
        import itertools

        nbh = parameterized_stencil(3, 3, -1)
        vols = {
            AllgatherTree.build(nbh, dim_order=p).edge_count
            for p in itertools.permutations(range(3))
        }
        assert vols == {26}

    def test_zero_coordinate_contraction(self):
        # (0, 1): no movement along dim 0
        nbh = Neighborhood([(0, 1)])
        assert AllgatherTree.build(nbh, dim_order=(0, 1)).edge_count == 1

    def test_terminal_bookkeeping(self):
        nbh = Neighborhood([(1, 0), (1, 1)])
        tree = AllgatherTree.build(nbh, dim_order=(0, 1))
        terms = {i for node in tree.root.walk() for i in node.terminal}
        assert terms == {0, 1}

    def test_depth_of_first_representative(self):
        nbh = Neighborhood([(1, 0), (1, 1)])
        tree = AllgatherTree.build(nbh, dim_order=(0, 1))
        assert tree.depth_of_first_representative(0) == 1
        assert tree.depth_of_first_representative(1) == 2

    def test_bad_dim_order(self):
        with pytest.raises(ScheduleError):
            AllgatherTree.build(FIGURE2_NBH, dim_order=(0, 0, 1))


class TestSchedule:
    def test_rounds_equal_c(self):
        for d, n in [(2, 3), (3, 3), (2, 5)]:
            nbh = parameterized_stencil(d, n, -1)
            assert build(nbh).num_rounds == nbh.combining_rounds

    def test_volume_equals_tree_edges(self):
        nbh = parameterized_stencil(3, 4, -1)
        sched = build(nbh)
        assert sched.volume_blocks == AllgatherTree.build(nbh).edge_count

    def test_self_block_local_copy(self):
        nbh = Neighborhood([(0, 0), (1, 0)])
        sched = build(nbh, m=8)
        assert len(sched.local_copies) == 1
        assert sched.local_copies[0].src.buffer == "send"

    def test_duplicate_vectors_copied_locally(self):
        nbh = Neighborhood([(1, 0), (1, 0)])
        sched = build(nbh, m=8)
        # one communication, one duplicate fan-out copy
        assert sched.volume_blocks == 1
        assert len(sched.local_copies) == 1
        assert sched.local_copies[0].src.buffer == "recv"

    def test_recv_size_mismatch_rejected(self):
        nbh = Neighborhood([(1, 0)])
        with pytest.raises(ScheduleError, match="uniform"):
            build_allgather_schedule(
                nbh,
                BlockSet([BlockRef("send", 0, 4)]),
                [BlockSet([BlockRef("recv", 0, 8)])],
            )

    def test_wrong_recv_count_rejected(self):
        nbh = Neighborhood([(1, 0), (0, 1)])
        with pytest.raises(ScheduleError):
            build_allgather_schedule(
                nbh,
                BlockSet([BlockRef("send", 0, 4)]),
                [BlockSet([BlockRef("recv", 0, 4)])],
            )

    def test_temp_only_for_nonterminal_nodes(self):
        # pure one-hop neighborhood: every tree node terminal, no temp
        nbh = Neighborhood([(1, 0), (-1, 0), (0, 1)])
        assert build(nbh).temp_nbytes == 0
        # (2,1) passes through intermediate (2,0)... in increasing-Ck
        # order: node for prefix with no terminal index -> temp slot
        nbh2 = Neighborhood([(2, 1)])
        assert build(nbh2, m=16).temp_nbytes == 16


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lockstep_correctness_random(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(2, 4)) for _ in range(d))
    t = data.draw(st.integers(1, 8))
    nbh = random_neighborhood(d, t, 3, rng)
    topo = CartTopology(dims)
    m = 4
    sched = build(nbh, m=m)
    bufs = []
    for r in range(topo.size):
        bufs.append(
            {
                "send": np.full(m, (r * 13 + 5) % 251, np.uint8),
                "recv": np.zeros(nbh.t * m, np.uint8),
            }
        )
    sched.validate(allocate_buffers(sched, bufs[0]))
    get_backend("lockstep").execute_all(topo, sched, bufs)
    for r in range(topo.size):
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            expect = (src * 13 + 5) % 251
            got = bufs[r]["recv"][i * m : (i + 1) * m]
            assert (got == expect).all(), (r, i, off)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_all_dim_orders_correct(data):
    """Any dimension order yields a correct (if differently sized)
    schedule."""
    import itertools

    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    nbh = random_neighborhood(2, data.draw(st.integers(1, 5)), 2, rng)
    topo = CartTopology((3, 3))
    m = 2
    for order in itertools.permutations(range(2)):
        sched = build(nbh, m=m, dim_order=order)
        bufs = [
            {
                "send": np.full(m, r + 1, np.uint8),
                "recv": np.zeros(nbh.t * m, np.uint8),
            }
            for r in range(topo.size)
        ]
        sched.validate(allocate_buffers(sched, bufs[0]))
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            for i, off in enumerate(nbh):
                src = topo.translate(r, tuple(-o for o in off))
                assert (bufs[r]["recv"][i * m : (i + 1) * m] == src + 1).all()
