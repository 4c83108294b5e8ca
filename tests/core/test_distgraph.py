"""Distributed graph topologies and Section 2.2 auto-detection."""

import numpy as np

from repro.core.cartcomm import cart_neighborhood_create
from repro.core.distgraph import dist_graph_create_adjacent
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.engine import Engine, run_ranks

NBH = moore_neighborhood(2, 1, include_self=False)
DIMS = (4, 4)


def make_cart(comm):
    return cart_neighborhood_create(comm, DIMS, None, NBH)


class TestDetection:
    def test_isomorphic_detected(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            return (dg.is_cartesian, dg.detection_result)

        res = run_ranks(16, fn, timeout=60)
        assert all(r == (True, "cartesian") for r in res)

    def test_detection_sends_no_message(self):
        """The ranks of one engine compare with the root by reference:
        one meeting, like ``cart_neighborhood_create``'s."""
        engine = Engine(16, timeout=60, tracing=True)

        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            return dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            ).detection_result

        assert set(engine.run(fn)) == {"cartesian"}
        assert [engine.trace.message_count(r) for r in range(16)] == [0] * 16

    def test_no_topology_no_detection(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(comm, sources, targets)
            return (dg.is_cartesian, dg.detection_result)

        res = run_ranks(16, fn, timeout=60)
        assert all(r == (False, "not-attempted") for r in res)

    def test_detect_flag_off(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo, detect=False
            )
            return dg.detection_result

        assert set(run_ranks(16, fn, timeout=60)) == {"not-attempted"}

    def test_degree_mismatch(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            if comm.rank == 3:
                sources, targets = sources[:4], targets[:4]
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            return dg.detection_result

        assert set(run_ranks(16, fn, timeout=60)) == {"degree-mismatch"}

    def test_offset_mismatch(self):
        def fn(comm):
            cart = make_cart(comm)
            # rank-space ring: consistent graph, rank-dependent offsets
            p = comm.size
            targets = [(comm.rank + 1) % p]
            sources = [(comm.rank - 1) % p]
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            return dg.detection_result

        assert set(run_ranks(16, fn, timeout=60)) == {"offset-mismatch"}

    def test_permuted_lists_still_cartesian(self):
        """Reordering identical offsets consistently is still Cartesian:
        the sorted-order check accepts it and the collectives stay
        correct with the process's own order."""

        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            if comm.rank % 2:
                sources = list(reversed(sources))
                targets = list(reversed(targets))
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            # correctness with the process's own neighbor order: slot i
            # receives the block the source addressed to the offset of
            # slot i — at the *source's* index for that offset
            t = len(targets)
            send = np.arange(t, dtype=np.int64) + comm.rank * 100
            recv = np.zeros(t, dtype=np.int64)
            dg.neighbor_alltoall(send, recv)
            base = list(NBH)
            my_offsets = base if comm.rank % 2 == 0 else list(reversed(base))
            for i, src in enumerate(sources):
                off = my_offsets[i]
                j = base.index(off)
                src_index = j if src % 2 == 0 else t - 1 - j
                assert recv[i] == src * 100 + src_index, (i, off)
            return dg.detection_result

        assert set(run_ranks(16, fn, timeout=60)) == {"cartesian"}


class TestQueries:
    def test_counts_and_neighbors(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(
                comm, sources, targets,
                source_weights=[1] * len(sources),
                target_weights=[2] * len(targets),
                cart_topology=cart.topo,
            )
            assert dg.neighbor_counts() == (8, 8)
            s2, t2 = dg.neighbors()
            assert s2 == sources and t2 == targets
            assert dg.source_weights == tuple([1] * 8)
            assert dg.target_weights == tuple([2] * 8)
            return True

        assert all(run_ranks(16, fn, timeout=60))


class TestCollectiveDispatch:
    def _roundtrip(self, force_direct):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            t = len(targets)
            send = np.arange(t, dtype=np.int64) + comm.rank * 1000
            recv = np.zeros(t, dtype=np.int64)
            dg.neighbor_alltoall(send, recv, force_direct=force_direct)
            topo = CartTopology(DIMS)
            for i, off in enumerate(NBH):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert recv[i] == src * 1000 + i

            own = np.full(2, comm.rank, dtype=np.int64)
            gout = np.zeros(2 * t, dtype=np.int64)
            dg.neighbor_allgather(own, gout, force_direct=force_direct)
            for i, off in enumerate(NBH):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert (gout[2 * i : 2 * i + 2] == src).all()
            return True

        assert all(run_ranks(16, fn, timeout=60))

    def test_cartesian_fast_path(self):
        self._roundtrip(force_direct=False)

    def test_forced_direct_path(self):
        self._roundtrip(force_direct=True)

    def test_v_variants_both_paths(self):
        def fn(comm):
            cart = make_cart(comm)
            sources, targets = cart.neighbor_get()
            dg = dist_graph_create_adjacent(
                comm, sources, targets, cart_topology=cart.topo
            )
            topo = CartTopology(DIMS)
            t = len(targets)
            counts = [((i % 3) + 1) for i in range(t)]
            total = sum(counts)
            for force in (False, True):
                send = np.empty(total, np.int64)
                pos = 0
                for i, c in enumerate(counts):
                    send[pos : pos + c] = comm.rank * 10 + i
                    pos += c
                recv = np.zeros(total, np.int64)
                dg.neighbor_alltoallv(
                    send, counts, recv, counts, force_direct=force
                )
                pos = 0
                for i, (off, c) in enumerate(zip(NBH, counts)):
                    src = topo.translate(comm.rank, tuple(-o for o in off))
                    assert (recv[pos : pos + c] == src * 10 + i).all()
                    pos += c

                own = np.full(3, comm.rank, np.int64)
                gout = np.zeros(3 * t, np.int64)
                dg.neighbor_allgatherv(
                    own, gout, [3] * t, force_direct=force
                )
                for i, off in enumerate(NBH):
                    src = topo.translate(comm.rank, tuple(-o for o in off))
                    assert (gout[3 * i : 3 * i + 3] == src).all()
            return True

        assert all(run_ranks(16, fn, timeout=60))
