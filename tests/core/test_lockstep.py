"""The per-rank walk (all ranks, no threads): the reference executor.

``LockstepBackend`` is not a registry entry — the name ``"lockstep"``
resolves to ``"batched"`` — so these tests hold the instance (``WALK``).
"""

import numpy as np
import pytest

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import allocate_buffers
from repro.core.backend.lockstep import WALK
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.exceptions import ScheduleError


def make_sched(nbh, m=4, builder=build_alltoall_schedule):
    sizes = [m] * nbh.t
    return builder(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


def make_bufs(p, t, m):
    out = []
    for r in range(p):
        send = np.empty(t * m, np.uint8)
        for i in range(t):
            send[i * m : (i + 1) * m] = (r * 11 + i) % 251
        out.append({"send": send, "recv": np.zeros(t * m, np.uint8)})
    return out


class TestLockstep:
    def test_matches_definition(self):
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((4, 4))
        m = 4
        bufs = make_bufs(topo.size, nbh.t, m)
        WALK.execute_all(topo, make_sched(nbh, m), bufs)
        for r in range(topo.size):
            for i, off in enumerate(nbh):
                src = topo.translate(r, tuple(-o for o in off))
                assert (
                    bufs[r]["recv"][i * m : (i + 1) * m] == (src * 11 + i) % 251
                ).all()

    def test_large_p(self):
        """Correctness at a scale no thread pool could host (p=1000)."""
        nbh = parameterized_stencil(3, 3, -1)
        topo = CartTopology((10, 10, 10))
        m = 2
        bufs = make_bufs(topo.size, nbh.t, m)
        WALK.execute_all(topo, make_sched(nbh, m), bufs)
        checks = np.random.default_rng(0).integers(0, topo.size, 20)
        for r in checks:
            for i, off in enumerate(nbh):
                src = topo.translate(int(r), tuple(-o for o in off))
                assert (
                    bufs[r]["recv"][i * m : (i + 1) * m] == (src * 11 + i) % 251
                ).all()

    def test_wrong_buffer_count(self):
        nbh = Neighborhood([(1,)])
        topo = CartTopology((4,))
        with pytest.raises(ScheduleError, match="one buffer set per rank"):
            WALK.execute_all(topo, make_sched(nbh), [{}])

    def test_allocate_rank_buffers(self):
        nbh = Neighborhood([(1, 1)])
        sched = make_sched(nbh, m=8)
        bufs = [allocate_buffers(sched, user) for user in ({}, {})]
        assert all("temp" in b for b in bufs)
        # distinct scratch per rank
        assert bufs[0]["temp"] is not bufs[1]["temp"]

    def test_trivial_equals_combining(self):
        nbh = parameterized_stencil(2, 4, -1)
        topo = CartTopology((4, 5))
        m = 4
        a = make_bufs(topo.size, nbh.t, m)
        b = make_bufs(topo.size, nbh.t, m)
        WALK.execute_all(topo, make_sched(nbh, m), a)
        WALK.execute_all(
            topo, make_sched(nbh, m, build_trivial_alltoall_schedule), b
        )
        for x, y in zip(a, b):
            assert np.array_equal(x["recv"], y["recv"])

    def test_idempotent_reuse_of_schedule(self):
        """A schedule is pure data: executing it twice with fresh buffers
        gives identical results."""
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((3, 3))
        sched = make_sched(nbh, 4)
        a = make_bufs(topo.size, nbh.t, 4)
        b = make_bufs(topo.size, nbh.t, 4)
        WALK.execute_all(topo, sched, a)
        WALK.execute_all(topo, sched, b)
        for x, y in zip(a, b):
            assert np.array_equal(x["recv"], y["recv"])
