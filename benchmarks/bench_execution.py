"""Wall-clock benchmarks of the library itself (not the network model):
schedule execution on the threaded engine, the lockstep executor, the
datatype engine, and the base collectives.  These guard against
performance regressions in the substrate the experiments run on.
"""

import numpy as np
import pytest

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import LockstepBackend
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.engine import Engine, run_ranks
from repro.stencil.halo import halo_specs


@pytest.mark.parametrize("p", [4, 16, 64])
def test_engine_spawn_and_barrier(benchmark, p):
    def job():
        run_ranks(p, lambda comm: comm.barrier(), timeout=60)

    benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)


def test_base_allgather_throughput(benchmark):
    def job():
        run_ranks(16, lambda comm: comm.allgather(comm.rank), timeout=60)

    benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("p_side", [8, 16])
def test_lockstep_alltoall_scaling(benchmark, p_side):
    """Lockstep execution cost per rank must stay near-linear in p."""
    topo = CartTopology((p_side, p_side))
    nbh = moore_neighborhood(2, 1)
    m = 8
    sizes = [m] * nbh.t
    sched = build_alltoall_schedule(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )
    bufs = [
        {
            "send": np.zeros(nbh.t * m, np.uint8),
            "recv": np.zeros(nbh.t * m, np.uint8),
        }
        for _ in range(topo.size)
    ]

    benchmark.pedantic(
        lambda: LockstepBackend().execute_all(topo, sched, bufs),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_blockset_pack_throughput(benchmark):
    """Packing a 1000-block set from a 1 MB buffer."""
    buf = np.zeros(1 << 20, np.uint8)
    bs = BlockSet([BlockRef("b", i * 1000, 512) for i in range(1000)])
    buffers = {"b": buf}
    payload = benchmark(bs.pack, buffers)
    assert len(payload) == 512_000


def test_blockset_unpack_throughput(benchmark):
    buf = np.zeros(1 << 20, np.uint8)
    bs = BlockSet([BlockRef("b", i * 1000, 512) for i in range(1000)])
    payload = bytes(512_000)
    benchmark(bs.unpack, {"b": buf}, payload)


def test_halo_spec_construction(benchmark):
    """Listing 3 datatype setup for a large 3-D block."""
    nbh = moore_neighborhood(3, 1, include_self=False)

    def build():
        return halo_specs((64, 64, 64), 1, nbh, 8)

    sends, recvs = benchmark(build)
    assert len(sends) == 26


def test_schedule_cache_hit(benchmark):
    """Cached schedule lookup must be trivially cheap."""
    from repro.core.cartcomm import CartComm
    from repro.mpisim.comm import Communicator

    engine = Engine(1)
    comm = Communicator(engine, 0, 1)
    topo = CartTopology((1, 1))
    cart = CartComm(comm, topo, parameterized_stencil(2, 3, -1), validate=False)
    buf = np.zeros(cart.nbh.t * 4, np.uint8)
    cart._bind_alltoall(buf, buf, "combining")  # warm the cache

    benchmark(cart._bind_alltoall, buf, buf, "combining")
