"""Communicator splitting (MPI_Comm_split) and sub-communicators."""

import numpy as np

from repro.core.cartcomm import cart_neighborhood_create
from repro.core.neighborhood import Neighborhood
from repro.mpisim.engine import run_ranks


class TestSplitBasics:
    def test_even_odd_split(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.group)

        res = run_ranks(6, fn, timeout=30)
        # evens: ranks 0,2,4 -> local 0,1,2
        assert res[0] == (0, 3, [0, 2, 4])
        assert res[2] == (1, 3, [0, 2, 4])
        assert res[1] == (0, 3, [1, 3, 5])
        assert res[5] == (2, 3, [1, 3, 5])

    def test_key_orders_ranks(self):
        def fn(comm):
            # reversed keys: highest old rank becomes local 0
            sub = comm.split(color=0, key=-comm.rank)
            return (sub.rank, sub.group)

        res = run_ranks(4, fn, timeout=30)
        assert res[3] == (0, [3, 2, 1, 0])
        assert res[0] == (3, [3, 2, 1, 0])

    def test_undefined_color_gets_none(self):
        def fn(comm):
            sub = comm.split(color=None if comm.rank == 1 else 0)
            return sub if sub is None else sub.size

        res = run_ranks(3, fn, timeout=30)
        assert res == [2, None, 2]

    def test_single_member_groups(self):
        def fn(comm):
            sub = comm.split(color=comm.rank)
            return (sub.rank, sub.size)

        assert run_ranks(3, fn, timeout=30) == [(0, 1)] * 3


class TestSubCommunication:
    def test_p2p_within_group(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            # ring within the sub-communicator
            nxt = (sub.rank + 1) % sub.size
            prv = (sub.rank - 1) % sub.size
            got = sub.sendrecv(("world", comm.rank), nxt, prv)
            # the message came from the group's previous member
            assert got == ("world", sub.group[prv])
            return True

        assert all(run_ranks(6, fn, timeout=30))

    def test_collectives_within_group(self):
        def fn(comm):
            sub = comm.split(color=comm.rank // 2)
            gathered = sub.allgather(comm.rank)
            assert gathered == sub.group
            s = sub.allreduce(1, lambda a, b: a + b)
            assert s == sub.size
            sub.barrier()
            return True

        assert all(run_ranks(8, fn, timeout=60))

    def test_isolation_from_parent(self):
        """Messages on the sub-communicator never match parent receives
        and vice versa."""

        def fn(comm):
            sub = comm.split(color=0)
            if comm.rank == 0:
                comm.send("parent", dest=1, tag=5)
                sub.send("child", dest=1, tag=5)
                return None
            if comm.rank == 1:
                child = sub.recv(source=0, tag=5)
                parent = comm.recv(source=0, tag=5)
                return (parent, child)
            return None

        res = run_ranks(3, fn, timeout=30)
        assert res[1] == ("parent", "child")

    def test_dup_of_sub(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            dup = sub.dup()
            assert dup.group == sub.group
            got = dup.allgather(comm.rank)
            return got == sub.group

        assert all(run_ranks(4, fn, timeout=30))

    def test_nested_split(self):
        def fn(comm):
            half = comm.split(color=comm.rank // 4)
            quarter = half.split(color=half.rank // 2)
            return (quarter.size, sorted(quarter.allgather(comm.rank)))

        res = run_ranks(8, fn, timeout=60)
        assert res[0] == (2, [0, 1])
        assert res[7] == (2, [6, 7])

    def test_translate_rank(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return [sub.translate_rank(i) for i in range(sub.size)]

        res = run_ranks(4, fn, timeout=30)
        assert res[0] == [0, 2]


class TestNodeCommunicatorUseCase:
    def test_per_node_cartesian_subgrids(self):
        """The remap use case: split a 4x4 torus job into 'nodes' of 4
        consecutive ranks, then run a collective within each node."""

        def fn(comm):
            node = comm.split(color=comm.rank // 4)
            assert node.size == 4
            # per-node 2x2 Cartesian collective
            cart = cart_neighborhood_create(
                node, (2, 2), None, Neighborhood([(0, 1), (1, 0)]),
            )
            send = np.asarray([float(comm.rank), float(comm.rank)])
            recv = np.zeros(2)
            cart.alltoall(send, recv, algorithm="trivial")
            # sources are node-local ranks translated back to world
            s0 = node.translate_rank(cart.topo.translate(node.rank, (0, -1)))
            s1 = node.translate_rank(cart.topo.translate(node.rank, (-1, 0)))
            assert recv[0] == s0 and recv[1] == s1
            return True

        assert all(run_ranks(16, fn, timeout=120))
