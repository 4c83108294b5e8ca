"""Trivial (Listing 4) and direct-delivery schedule shapes."""

import numpy as np
import pytest

from repro.core.backend import get_backend
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError


def layouts(nbh, m=4):
    sizes = [m] * nbh.t
    return (
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


class TestTrivialAlltoall:
    def test_one_round_per_phase(self):
        nbh = parameterized_stencil(2, 3, -1)
        sched = build_trivial_alltoall_schedule(nbh, *layouts(nbh))
        assert all(len(ph) == 1 for ph in sched.phases)
        assert sched.num_phases == nbh.trivial_rounds

    def test_volume_is_t(self):
        nbh = parameterized_stencil(2, 3, -1)
        sched = build_trivial_alltoall_schedule(nbh, *layouts(nbh))
        assert sched.volume_blocks == nbh.trivial_rounds

    def test_self_block_copied(self):
        nbh = Neighborhood([(0, 0), (1, 0)])
        sched = build_trivial_alltoall_schedule(nbh, *layouts(nbh))
        assert len(sched.local_copies) == 1
        assert sched.num_rounds == 1

    def test_round_offsets_are_full_vectors(self):
        nbh = Neighborhood([(1, 2), (-1, 0)])
        sched = build_trivial_alltoall_schedule(nbh, *layouts(nbh))
        assert [r.offset for r in sched.all_rounds()] == [(1, 2), (-1, 0)]

    def test_no_temp_needed(self):
        nbh = parameterized_stencil(3, 3, -1)
        sched = build_trivial_alltoall_schedule(nbh, *layouts(nbh))
        assert sched.temp_nbytes == 0

    def test_size_mismatch_rejected(self):
        nbh = Neighborhood([(1, 0)])
        with pytest.raises(ScheduleError):
            build_trivial_alltoall_schedule(
                nbh,
                [BlockSet([BlockRef("send", 0, 4)])],
                [BlockSet([BlockRef("recv", 0, 8)])],
            )

    def test_wrong_count_rejected(self):
        nbh = Neighborhood([(1, 0), (0, 1)])
        with pytest.raises(ScheduleError):
            build_trivial_alltoall_schedule(
                nbh, *layouts(Neighborhood([(1, 0)]))
            )


class TestDirectAlltoall:
    def test_single_phase(self):
        nbh = parameterized_stencil(2, 3, -1)
        sched = build_direct_alltoall_schedule(nbh, *layouts(nbh))
        assert sched.num_phases == 1
        assert sched.num_rounds == nbh.trivial_rounds

    def test_correct_lockstep(self):
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((3, 3))
        m = 4
        sched = build_direct_alltoall_schedule(nbh, *layouts(nbh, m))
        bufs = []
        for r in range(topo.size):
            send = np.empty(nbh.t * m, np.uint8)
            for i in range(nbh.t):
                send[i * m : (i + 1) * m] = (r * 17 + i) % 251
            bufs.append({"send": send, "recv": np.zeros(nbh.t * m, np.uint8)})
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            for i, off in enumerate(nbh):
                src = topo.translate(r, tuple(-o for o in off))
                assert (
                    bufs[r]["recv"][i * m : (i + 1) * m] == (src * 17 + i) % 251
                ).all()


class TestAllgatherShapes:
    def test_trivial_allgather_sends_same_block(self):
        nbh = parameterized_stencil(2, 3, -1)
        send = BlockSet([BlockRef("send", 0, 4)])
        recv = uniform_block_layout([4] * nbh.t, "recv")
        sched = build_trivial_allgather_schedule(nbh, send, recv)
        assert sched.num_rounds == nbh.trivial_rounds
        for rnd in sched.all_rounds():
            assert list(rnd.send_blocks) == [BlockRef("send", 0, 4)]

    def test_direct_allgather_single_phase(self):
        nbh = parameterized_stencil(2, 3, -1)
        send = BlockSet([BlockRef("send", 0, 4)])
        recv = uniform_block_layout([4] * nbh.t, "recv")
        sched = build_direct_allgather_schedule(nbh, send, recv)
        assert sched.num_phases == 1

    def test_trivial_allgather_lockstep(self):
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((3, 4))
        m = 4
        send = BlockSet([BlockRef("send", 0, m)])
        recv = uniform_block_layout([m] * nbh.t, "recv")
        sched = build_trivial_allgather_schedule(nbh, send, recv)
        bufs = [
            {
                "send": np.full(m, r + 1, np.uint8),
                "recv": np.zeros(nbh.t * m, np.uint8),
            }
            for r in range(topo.size)
        ]
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            for i, off in enumerate(nbh):
                src = topo.translate(r, tuple(-o for o in off))
                assert (bufs[r]["recv"][i * m : (i + 1) * m] == src + 1).all()


class TestNonPeriodicTrivial:
    def test_boundary_rounds_skipped(self):
        """On a non-periodic mesh the lockstep executor skips missing
        partners; the corresponding receive blocks stay untouched."""
        nbh = Neighborhood([(1,), (-1,)])
        topo = CartTopology((3,), (False,))
        m = 4
        sends, recvs = layouts(nbh, m)
        sched = build_trivial_alltoall_schedule(nbh, sends, recvs)
        bufs = [
            {
                "send": np.full(nbh.t * m, r + 1, np.uint8),
                "recv": np.full(nbh.t * m, 255, np.uint8),
            }
            for r in range(topo.size)
        ]
        get_backend("lockstep").execute_all(topo, sched, bufs)
        # middle rank gets both neighbors
        assert (bufs[1]["recv"][:m] == 1).all()  # from rank 0 (offset +1)
        assert (bufs[1]["recv"][m:] == 3).all()  # from rank 2 (offset -1)
        # rank 0 has no -1-side source for block 0: untouched
        assert (bufs[0]["recv"][:m] == 255).all()
        assert (bufs[0]["recv"][m:] == 2).all()
