"""The Listing 1/2 C-style façade, including a full Listing 3 port."""

import numpy as np
import pytest

from repro.core.mpi_like import (
    MPI_UNWEIGHTED,
    Cart_allgather,
    Cart_allgatherv,
    Cart_allgatherw,
    Cart_alltoall,
    Cart_alltoall_init,
    Cart_alltoallv,
    Cart_alltoallw_init,
    Cart_neighbor_count,
    Cart_neighbor_get,
    Cart_neighborhood_create,
    Cart_relative_coord,
    Cart_relative_rank,
    Cart_relative_shift,
)
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import DOUBLE, Contiguous, Vector
from repro.mpisim.engine import run_ranks

#: Listing 3's neighborhood: rows, columns, then corners
LISTING3_TARGET = [0, 1, 0, -1, -1, 0, 1, 0, -1, 1, 1, 1, 1, -1, -1, -1]


def make_cart(comm, dims=(3, 3)):
    return Cart_neighborhood_create(
        comm, 2, list(dims), [1, 1], 8, LISTING3_TARGET, MPI_UNWEIGHTED,
        None, 0,
    )


class TestCreateAndHelpers:
    def test_create_and_count(self):
        def fn(comm):
            cart = make_cart(comm)
            return Cart_neighbor_count(cart)

        assert run_ranks(9, fn, timeout=60) == [8] * 9

    def test_argument_validation(self):
        def fn(comm):
            Cart_neighborhood_create(
                comm, 2, [3, 3], [1, 1], 8, [0, 1, 2], MPI_UNWEIGHTED, None, 0
            )

        with pytest.raises(Exception, match="expected t\\*d"):
            run_ranks(9, fn, timeout=30)

    def test_dims_arity_validation(self):
        def fn(comm):
            Cart_neighborhood_create(
                comm, 3, [3, 3], [1, 1, 1], 1, [0, 0, 0],
            )

        with pytest.raises(Exception, match="dimension sizes"):
            run_ranks(9, fn, timeout=30)

    def test_helpers(self):
        def fn(comm):
            cart = make_cart(comm)
            right = Cart_relative_rank(cart, (0, 1))
            inr, outr = Cart_relative_shift(cart, (0, 1))
            assert outr == right
            assert Cart_relative_coord(cart, right) == (0, 1)
            src, sw, tgt, tw = Cart_neighbor_get(cart, 8, 8)
            assert len(src) == len(tgt) == 8
            assert sw == [1] * 8
            return True

        assert all(run_ranks(9, fn, timeout=60))

    def test_neighbor_get_truncation(self):
        def fn(comm):
            cart = make_cart(comm)
            src, sw, tgt, tw = Cart_neighbor_get(cart, 3, 5)
            return (len(src), len(sw), len(tgt), len(tw))

        assert run_ranks(9, fn, timeout=60)[0] == (3, 3, 5, 5)


class TestCollectives:
    def test_alltoall_and_allgather(self):
        topo = CartTopology((3, 3))

        def fn(comm):
            cart = make_cart(comm)
            t = 8
            send = np.arange(t, dtype=np.int64) + comm.rank * 100
            recv = np.zeros(t, dtype=np.int64)
            Cart_alltoall(send, recv, cart)
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert recv[i] == src * 100 + i
            own = np.full(2, comm.rank, dtype=np.int64)
            gout = np.zeros(2 * t, dtype=np.int64)
            Cart_allgather(own, gout, cart)
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert (gout[2 * i : 2 * i + 2] == src).all()
            return True

        assert all(run_ranks(9, fn, timeout=60))

    def test_alltoallv_with_displacements(self):
        topo = CartTopology((3, 3))

        def fn(comm):
            cart = make_cart(comm)
            t = 8
            counts = [1] * t
            displs = list(range(0, 2 * t, 2))  # every other element
            send = np.zeros(2 * t, dtype=np.int64)
            for i in range(t):
                send[2 * i] = comm.rank * 10 + i
            recv = np.zeros(2 * t, dtype=np.int64)
            Cart_alltoallv(send, counts, displs, recv, counts, displs, cart)
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert recv[2 * i] == src * 10 + i
            return True

        assert all(run_ranks(9, fn, timeout=60))

    def test_allgatherv(self):
        topo = CartTopology((3, 3))

        def fn(comm):
            cart = make_cart(comm)
            t = 8
            send = np.full(2, float(comm.rank))
            recv = np.zeros(2 * t)
            rdispls = [2 * (t - 1 - i) for i in range(t)]
            Cart_allgatherv(send, recv, [2] * t, rdispls, cart)
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                lo = rdispls[i]
                assert (recv[lo : lo + 2] == src).all()
            return True

        assert all(run_ranks(9, fn, timeout=60))


class TestListing3Port:
    """A direct port of the paper's Listing 3: 9-point halo exchange
    with ROW / COL / COR datatypes at byte displacements, in place in
    the (n+2)×(n+2) matrix, via a persistent Cart_alltoallw_init."""

    N = 4

    def _setup_types(self):
        n = self.N
        ROW = Contiguous(n, DOUBLE)
        COL = Vector(n, 1, n + 2, DOUBLE)
        COR = DOUBLE
        # Neighborhood order of LISTING3_TARGET:
        # (0,1)=right col, (0,-1)=left col, (-1,0)=up row, (1,0)=down row,
        # (-1,1), (1,1), (1,-1), (-1,-1)
        sendtypes = [COL, COL, ROW, ROW, COR, COR, COR, COR]
        senddisp = [
            1 * (n + 2) + n,        # -> (0, 1): rightmost interior col
            1 * (n + 2) + 1,        # -> (0,-1): leftmost interior col
            1 * (n + 2) + 1,        # -> (-1,0): top interior row
            n * (n + 2) + 1,        # -> (1, 0): bottom interior row
            1 * (n + 2) + n,        # -> (-1,1): top-right corner
            n * (n + 2) + n,        # -> (1, 1): bottom-right corner
            n * (n + 2) + 1,        # -> (1,-1): bottom-left corner
            1 * (n + 2) + 1,        # -> (-1,-1): top-left corner
        ]
        recvtypes = list(sendtypes)
        recvdisp = [
            1 * (n + 2) + 0,        # from (0,-1) side: left ghost col
            1 * (n + 2) + (n + 1),  # right ghost col
            (n + 1) * (n + 2) + 1,  # bottom ghost row
            0 * (n + 2) + 1,        # top ghost row
            (n + 1) * (n + 2) + 0,  # bottom-left ghost corner
            0 * (n + 2) + 0,        # top-left ghost corner
            0 * (n + 2) + (n + 1),  # top-right ghost corner
            (n + 1) * (n + 2) + (n + 1),  # bottom-right ghost corner
        ]
        to_bytes = DOUBLE.size
        return (
            sendtypes,
            [d * to_bytes for d in senddisp],
            recvtypes,
            [d * to_bytes for d in recvdisp],
        )

    def test_halo_exchange_in_place(self):
        n = self.N
        topo = CartTopology((3, 3))
        sendtypes, senddisp, recvtypes, recvdisp = self._setup_types()

        def fn(comm):
            cart = make_cart(comm)
            matrix = np.zeros((n + 2, n + 2))
            matrix[1 : n + 1, 1 : n + 1] = comm.rank
            counts = [1] * 8
            op = Cart_alltoallw_init(
                matrix, counts, senddisp, sendtypes,
                matrix, counts, recvdisp, recvtypes, cart,
            )
            op.execute()
            # every ghost cell holds the owning neighbor's id — i.e. the
            # matrix now equals the periodic extension of the global grid
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                lo = recvdisp[i] // 8
                rt = recvtypes[i]
                flat = matrix.reshape(-1)
                for off_b, nb in rt.flatten(recvdisp[i]):
                    seg = flat[off_b // 8 : (off_b + nb) // 8]
                    assert (seg == src).all(), (comm.rank, i, seg, src)
            return True

        assert all(run_ranks(9, fn, timeout=60))

    def test_allgatherw(self):
        """Same halo pattern, allgather flavour: every neighbor receives
        the same 1-element block into its matching ghost corner."""
        topo = CartTopology((3, 3))

        def fn(comm):
            cart = make_cart(comm)
            send = np.asarray([float(comm.rank)])
            recv = np.zeros(8)
            Cart_allgatherw(
                send, 1, 0, DOUBLE,
                recv, [1] * 8, [8 * i for i in range(8)], [DOUBLE] * 8,
                cart,
            )
            for i, off in enumerate(cart.nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert recv[i] == src
            return True

        assert all(run_ranks(9, fn, timeout=60))

    def test_persistent_alltoall_init(self):
        def fn(comm):
            cart = make_cart(comm)
            send = np.zeros(8)
            recv = np.zeros(8)
            op = Cart_alltoall_init(send, recv, cart)
            op.execute()
            op.execute()
            return op.executions

        assert run_ranks(9, fn, timeout=60) == [2] * 9
