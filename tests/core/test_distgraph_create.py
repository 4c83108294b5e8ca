"""The general (non-adjacent) MPI_Dist_graph_create equivalent."""

import numpy as np
import pytest

from repro.core.cartcomm import cart_neighborhood_create
from repro.core.distgraph import dist_graph_create
from repro.core.stencils import moore_neighborhood
from repro.mpisim.engine import run_ranks


class TestEdgeRedistribution:
    def test_each_process_declares_own_edges(self):
        """Degenerate case equal to the adjacent variant: each process
        contributes exactly its own out-edges."""

        def fn(comm):
            p = comm.size
            dg = dist_graph_create(
                comm,
                edge_sources=[comm.rank],
                degrees=[2],
                destinations=[(comm.rank + 1) % p, (comm.rank + 2) % p],
            )
            sources, targets = dg.neighbors()
            assert sorted(targets) == sorted(
                [(comm.rank + 1) % p, (comm.rank + 2) % p]
            )
            assert sorted(sources) == sorted(
                [(comm.rank - 1) % p, (comm.rank - 2) % p]
            )
            return True

        assert all(run_ranks(6, fn, timeout=60))

    def test_one_process_declares_everything(self):
        """The fully centralized case: rank 0 knows the whole ring."""

        def fn(comm):
            p = comm.size
            if comm.rank == 0:
                edge_sources = list(range(p))
                degrees = [1] * p
                destinations = [(r + 1) % p for r in range(p)]
            else:
                edge_sources, degrees, destinations = [], [], []
            dg = dist_graph_create(
                comm, edge_sources, degrees, destinations
            )
            sources, targets = dg.neighbors()
            assert targets == [(comm.rank + 1) % p]
            assert sources == [(comm.rank - 1) % p]
            # and the collective works
            send = np.asarray([comm.rank], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            dg.neighbor_alltoall(send, recv)
            assert recv[0] == (comm.rank - 1) % p
            return True

        assert all(run_ranks(5, fn, timeout=60))

    def test_split_knowledge(self):
        """Edges scattered arbitrarily over the processes."""

        def fn(comm):
            p = comm.size
            # process r declares the out-edges of process (r+1) % p
            owner = (comm.rank + 1) % p
            dg = dist_graph_create(
                comm,
                edge_sources=[owner],
                degrees=[1],
                destinations=[(owner + 3) % p],
            )
            sources, targets = dg.neighbors()
            assert targets == [(comm.rank + 3) % p]
            assert sources == [(comm.rank - 3) % p]
            return True

        assert all(run_ranks(7, fn, timeout=60))

    def test_weights_travel_with_edges(self):
        def fn(comm):
            p = comm.size
            dg = dist_graph_create(
                comm,
                edge_sources=[comm.rank],
                degrees=[1],
                destinations=[(comm.rank + 1) % p],
                weights=[comm.rank * 10],
            )
            # my in-edge comes from rank-1 with weight (rank-1)*10
            assert dg.source_weights == (((comm.rank - 1) % p) * 10,)
            assert dg.target_weights == (comm.rank * 10,)
            return True

        assert all(run_ranks(4, fn, timeout=60))

    def test_neighbor_rank_order_sorted(self):
        def fn(comm):
            p = comm.size
            dg = dist_graph_create(
                comm,
                edge_sources=[comm.rank, comm.rank],
                degrees=[1, 1],
                destinations=[(comm.rank + 3) % p, (comm.rank + 1) % p],
            )
            _, targets = dg.neighbors()
            assert targets == sorted(targets)
            return True

        assert all(run_ranks(5, fn, timeout=60))


class TestValidation:
    def test_degree_sum_checked(self):
        def fn(comm):
            dist_graph_create(comm, [0], [2], [1])

        with pytest.raises(Exception, match="degrees sum"):
            run_ranks(2, fn, timeout=30)

    def test_source_range_checked(self):
        def fn(comm):
            dist_graph_create(comm, [99], [1], [0])

        with pytest.raises(Exception, match="out of range"):
            run_ranks(2, fn, timeout=30)

    def test_destination_range_checked(self):
        def fn(comm):
            dist_graph_create(comm, [0], [1], [99])

        with pytest.raises(Exception, match="out of range"):
            run_ranks(2, fn, timeout=30)

    def test_weights_arity_checked(self):
        def fn(comm):
            dist_graph_create(comm, [0], [1], [1], weights=[1, 2])

        with pytest.raises(Exception, match="one weight per edge"):
            run_ranks(2, fn, timeout=30)


class TestCartesianDetectionViaGeneralCreate:
    def test_detection_through_redistribution(self):
        """Root declares the full Moore-neighborhood graph; every process
        ends up with the combining fast path."""
        nbh = moore_neighborhood(2, 1, include_self=False)
        dims = (4, 4)

        def fn(comm):
            cart = cart_neighborhood_create(comm, dims, None, nbh)
            topo = cart.topo
            if comm.rank == 0:
                edge_sources, degrees, destinations = [], [], []
                for r in range(comm.size):
                    tgts = [topo.translate(r, off) for off in nbh]
                    edge_sources.append(r)
                    degrees.append(len(tgts))
                    destinations.extend(tgts)
            else:
                edge_sources, degrees, destinations = [], [], []
            dg = dist_graph_create(
                comm, edge_sources, degrees, destinations,
                cart_topology=topo,
            )
            assert dg.is_cartesian, dg.detection_result
            t = len(dg.targets)
            send = np.arange(t, dtype=np.int64) + comm.rank * 100
            recv = np.zeros(t, dtype=np.int64)
            dg.neighbor_alltoall(send, recv)
            # neighbor order here is sorted-by-rank; verify per offset
            for i, src in enumerate(dg.sources):
                # the block I get from src is the one src addressed to me:
                # src's target list is sorted by rank too
                src_targets = sorted(
                    topo.translate(src, off) for off in nbh
                )
                j = src_targets.index(comm.rank)
                assert recv[i] == src * 100 + j
            return True

        assert all(run_ranks(16, fn, timeout=120))
