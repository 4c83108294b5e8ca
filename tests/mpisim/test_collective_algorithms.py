"""The base collectives' direct algorithms against their definitions.

``Communicator.alltoall`` (pairwise: p−1 shifted sendrecv rounds) and
``Communicator.allgather`` (ring: p−1 neighbour exchanges) must deliver
exactly what the collective defines at every process count (powers of
two and not).  The Bruck variants these tests also compared against
went with the ``algorithm=`` keyword; the test ids are kept."""

import pytest

from repro.mpisim.engine import run_ranks

SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17]


@pytest.mark.parametrize("p", SIZES)
def test_bruck_alltoall_matches_pairwise(p):
    def fn(comm):
        objs = [f"{comm.rank}->{d}" for d in range(comm.size)]
        return comm.alltoall(objs) == [
            f"{s}->{comm.rank}" for s in range(comm.size)
        ]

    assert all(run_ranks(p, fn, timeout=60))


@pytest.mark.parametrize("p", SIZES)
def test_bruck_allgather_matches_ring(p):
    def fn(comm):
        return comm.allgather(comm.rank * 3) == [r * 3 for r in range(comm.size)]

    assert all(run_ranks(p, fn, timeout=60))


def test_bruck_with_heterogeneous_objects():
    def fn(comm):
        objs = [{"from": comm.rank, "to": d, "data": [d] * d} for d in range(comm.size)]
        out = comm.alltoall(objs)
        for s in range(comm.size):
            assert out[s] == {"from": s, "to": comm.rank, "data": [comm.rank] * comm.rank}
        return True

    assert all(run_ranks(6, fn, timeout=60))
