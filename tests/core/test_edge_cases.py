"""Edge-case coverage across modules: type-spec forms, contracted-tree
rendering, trace annotations, random w-layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_cartesian, run_ranks
from repro.core.cartcomm import _as_blockset
from repro.core.neighborhood import Neighborhood
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.core.visualize import render_tree
from repro.mpisim.datatypes import DOUBLE, BlockRef, BlockSet, Vector
from repro.mpisim.engine import Engine


class TestTypeSpecForms:
    def test_blockset_passthrough(self):
        bs = BlockSet([BlockRef("b", 0, 8)])
        assert _as_blockset(bs) is bs

    def test_tuple_spec(self):
        bs = _as_blockset(("grid", Vector(3, 1, 4, DOUBLE), 16, 1))
        assert [(r.offset, r.nbytes) for r in bs] == [
            (16, 8), (48, 8), (80, 8),
        ]

    def test_tuple_spec_bad_datatype(self):
        with pytest.raises(TypeError, match="expected Datatype"):
            _as_blockset(("grid", "not-a-type", 0, 1))

    def test_alltoallw_with_tuple_specs(self):
        """The MPI-flavoured (buffer, type, displ, count) form through a
        real collective."""
        nbh = Neighborhood([(0, 1), (0, -1)])
        topo = CartTopology((1, 3))

        def fn(cart):
            t = 2
            src = np.arange(t * 2, dtype=np.float64) + cart.rank * 10
            dst = np.zeros(t * 2)
            from repro.mpisim.datatypes import Contiguous

            block = Contiguous(2, DOUBLE)
            cart.alltoallw(
                {"a": src, "b": dst},
                [("a", block, 0, 1), ("a", block, 16, 1)],
                [("b", block, 0, 1), ("b", block, 16, 1)],
                algorithm="trivial",
            )
            for i, off in enumerate(cart.nbh):
                s = topo.translate(cart.rank, tuple(-o for o in off))
                expect = np.arange(2) + 2 * i + s * 10
                assert np.array_equal(dst[2 * i : 2 * i + 2], expect)
            return True

        assert all(run_cartesian((1, 3), nbh, fn, timeout=60))


class TestTreeRenderingContraction:
    def test_zero_coordinate_child_contracted(self):
        """A (0, 1) offset contracts through dim 0: the rendered tree
        shows one dim-1 edge hanging directly off the root."""
        from repro.core.allgather_schedule import AllgatherTree

        nbh = Neighborhood([(0, 1), (1, 1)])
        tree = AllgatherTree.build(nbh, dim_order=(0, 1))
        text = render_tree(tree)
        assert "dim 1 +1 -> (0, 1)" in text
        assert "terminates [0]" in text

    def test_root_terminal_shown(self):
        from repro.core.allgather_schedule import AllgatherTree

        nbh = Neighborhood([(0, 0), (1, 0)])
        tree = AllgatherTree.build(nbh)
        text = render_tree(tree)
        assert "r [terminates [0]]" in text


class TestTraceAnnotations:
    def test_mark_and_record_local(self):
        eng = Engine(1, timeout=20, tracing=True)

        def fn(comm):
            comm.mark("checkpoint")
            comm.record_local(1024, note="halo copy")

        eng.run(fn)
        events = eng.trace.for_rank(0)
        assert events[0].kind == "mark" and events[0].note == "checkpoint"
        assert events[1].kind == "local" and events[1].nbytes == 1024

    def test_annotations_noop_without_tracing(self):
        def fn(comm):
            comm.mark("x")
            comm.record_local(10)
            return True

        assert run_ranks(1, fn, timeout=20) == [True]


class TestSendrecvTagSplit:
    def test_different_send_and_recv_tags(self):
        def fn(comm):
            peer = 1 - comm.rank
            # rank 0 sends tag 1 / receives tag 2; rank 1 the reverse
            sendtag = 1 if comm.rank == 0 else 2
            recvtag = 2 if comm.rank == 0 else 1
            return comm.sendrecv(
                f"from{comm.rank}", peer, peer, sendtag=sendtag,
                recvtag=recvtag,
            )

        assert run_ranks(2, fn, timeout=20) == ["from1", "from0"]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_random_w_layouts_threaded(data):
    """Random disjoint per-neighbor regions in a shared buffer, through
    the threaded combining path."""
    nbh = moore_neighborhood(2, 1, include_self=False)
    topo = CartTopology((3, 3))
    t = nbh.t
    m = 4
    # random disjoint slot permutation for the receive side
    perm = data.draw(st.permutations(list(range(t))))

    def fn(cart):
        src = np.empty(t * m, np.uint8)
        for i in range(t):
            src[i * m : (i + 1) * m] = (cart.rank * 7 + i) % 251
        dst = np.zeros(t * m, np.uint8)
        sends = [BlockSet([BlockRef("a", i * m, m)]) for i in range(t)]
        recvs = [BlockSet([BlockRef("b", perm[i] * m, m)]) for i in range(t)]
        cart.alltoallw({"a": src, "b": dst}, sends, recvs,
                       algorithm="combining")
        for i, off in enumerate(nbh):
            s = topo.translate(cart.rank, tuple(-o for o in off))
            got = dst[perm[i] * m : perm[i] * m + m]
            assert (got == (s * 7 + i) % 251).all()
        return True

    assert all(run_cartesian((3, 3), nbh, fn, timeout=120))
