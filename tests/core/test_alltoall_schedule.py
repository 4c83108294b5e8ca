"""Algorithm 1: message-combining alltoall schedule invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil, random_neighborhood
from repro.core.topology import CartTopology
from repro.core.backend import allocate_buffers, get_backend
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError


def build(nbh, m=4, sizes=None):
    sizes = sizes if sizes is not None else [m] * nbh.t
    return build_alltoall_schedule(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


class TestStructure:
    def test_phases_equal_dimensions(self):
        nbh = parameterized_stencil(3, 3, -1)
        assert build(nbh).num_phases == 3

    def test_rounds_per_phase_are_ck(self):
        nbh = parameterized_stencil(2, 4, -1)
        sched = build(nbh)
        assert sched.rounds_per_phase == nbh.distinct_nonzero_per_dim

    def test_volume_is_sum_of_hops(self):
        for d, n in [(2, 3), (3, 3), (3, 5), (4, 3)]:
            nbh = parameterized_stencil(d, n, -1)
            assert build(nbh).volume_blocks == nbh.alltoall_volume

    def test_round_offsets_single_dimension(self):
        nbh = parameterized_stencil(3, 4, -1)
        sched = build(nbh)
        for phase in sched.phases:
            for rnd in phase.rounds:
                nz = [j for j, o in enumerate(rnd.offset) if o]
                assert len(nz) == 1
                assert nz[0] == phase.dim

    def test_round_send_recv_bytes_match(self):
        nbh = parameterized_stencil(3, 3, -1)
        sched = build(nbh, m=12)
        for rnd in sched.all_rounds():
            assert rnd.send_blocks.total_nbytes == rnd.recv_blocks.total_nbytes

    def test_recv_blocks_disjoint_per_round(self):
        nbh = parameterized_stencil(2, 5, -1)
        sched = build(nbh)
        sched.validate()  # includes disjointness

    def test_self_block_becomes_local_copy(self):
        nbh = Neighborhood([(0, 0), (1, 0)])
        sched = build(nbh, m=8)
        assert len(sched.local_copies) == 1
        assert sched.local_copies[0].src.buffer == "send"
        assert sched.local_copies[0].dst.buffer == "recv"
        assert sched.num_rounds == 1

    def test_temp_only_for_multi_hop_blocks(self):
        # single-hop neighborhood needs no scratch space
        nbh = Neighborhood([(1, 0), (0, 1), (-1, 0)])
        assert build(nbh).temp_nbytes == 0
        # two-hop blocks need one slot each
        nbh2 = Neighborhood([(1, 1), (1, -1)])
        assert build(nbh2, m=16).temp_nbytes == 32

    def test_first_hop_reads_send_buffer(self):
        nbh = Neighborhood([(1, 1)])
        sched = build(nbh, m=4)
        first_round = sched.phases[0].rounds[0]
        assert list(first_round.send_blocks)[0].buffer == "send"

    def test_last_hop_lands_in_recv_buffer(self):
        nbh = Neighborhood([(1, 1, 1)])
        sched = build(nbh, m=4)
        last_round = sched.phases[-1].rounds[0]
        assert list(last_round.recv_blocks)[0].buffer == "recv"

    def test_alternation_parity_three_hops(self):
        """z=3 trajectory: send -> recv -> temp -> recv."""
        nbh = Neighborhood([(1, 1, 1)])
        sched = build(nbh, m=4)
        rounds = sched.all_rounds()
        recv_buffers = [list(r.recv_blocks)[0].buffer for r in rounds]
        send_buffers = [list(r.send_blocks)[0].buffer for r in rounds]
        assert send_buffers == ["send", "recv", "temp"]
        assert recv_buffers == ["recv", "temp", "recv"]

    def test_rounds_grouped_by_coordinate(self):
        nbh = Neighborhood([(1, 0), (1, 1), (2, 0), (1, -1)])
        sched = build(nbh)
        phase0 = sched.phases[0]
        # coords along dim 0: 1 (x3) and 2 (x1) -> two rounds
        assert len(phase0) == 2
        sizes = sorted(r.block_count for r in phase0.rounds)
        assert sizes == [1, 3]

    def test_kind_and_describe(self):
        sched = build(parameterized_stencil(2, 3, -1))
        assert sched.kind == "alltoall"
        text = sched.describe()
        assert "alltoall schedule" in text and "phase 0" in text


class TestErrors:
    def test_wrong_block_count(self):
        nbh = parameterized_stencil(2, 3, -1)
        with pytest.raises(ScheduleError):
            build_alltoall_schedule(
                nbh,
                uniform_block_layout([4] * 3, "send"),
                uniform_block_layout([4] * nbh.t, "recv"),
            )

    def test_size_mismatch(self):
        nbh = Neighborhood([(1, 0)])
        with pytest.raises(ScheduleError, match="B"):
            build_alltoall_schedule(
                nbh,
                [BlockSet([BlockRef("send", 0, 4)])],
                [BlockSet([BlockRef("recv", 0, 8)])],
            )


class TestIrregularSizes:
    def test_v_style_sizes(self):
        nbh = parameterized_stencil(2, 3, -1)
        sizes = [4 * (2 - z) for z in nbh.hops]  # paper's m(d-z) rule
        sched = build(nbh, sizes=sizes)
        assert sched.volume_bytes == sum(
            s for s, z in zip(sizes, nbh.hops) for _ in range(z)
        )

    def test_zero_size_blocks_allowed(self):
        nbh = Neighborhood([(0, 0), (1, 0)])
        sched = build(nbh, sizes=[0, 8])
        assert sched.volume_bytes == 8


# full data-flow check against the brute-force expectation
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lockstep_correctness_random(data):
    rng_seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(rng_seed)
    d = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(2, 4)) for _ in range(d))
    t = data.draw(st.integers(1, 8))
    nbh = random_neighborhood(d, t, 3, rng)
    topo = CartTopology(dims)
    m = 4
    sched = build(nbh, m=m)
    bufs = []
    for r in range(topo.size):
        send = np.empty(nbh.t * m, np.uint8)
        for i in range(nbh.t):
            send[i * m : (i + 1) * m] = (r * 31 + i * 7) % 251
        bufs.append({"send": send, "recv": np.zeros(nbh.t * m, np.uint8)})
    sched.validate(allocate_buffers(sched, bufs[0]))
    get_backend("lockstep").execute_all(topo, sched, bufs)
    for r in range(topo.size):
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            expect = (src * 31 + i * 7) % 251
            got = bufs[r]["recv"][i * m : (i + 1) * m]
            assert (got == expect).all(), (r, i, off)
