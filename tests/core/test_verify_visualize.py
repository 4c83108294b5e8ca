"""Schedule verification utilities and ASCII visualization."""

import pytest

from repro.core.allgather_schedule import AllgatherTree, build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.serialize import schedule_from_json, schedule_to_json
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.core.verify import verify_allgather, verify_alltoall, verify_halo
from repro.core.visualize import render_schedule, render_tree
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError
from repro.stencil.optimized_halo import (
    build_combined_halo_schedule,
    plain_halo_schedule,
)

FIGURE2 = Neighborhood([(-2, 1, 1), (-1, 1, 1), (1, 1, 1), (2, 1, 1)])


def a2a_schedule(nbh, m=4, builder=build_alltoall_schedule):
    sizes = [m] * nbh.t
    return builder(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


def test_default_certification_executes_per_rank(monkeypatch):
    """The ``verify_*`` defaults are the walk itself, not a registry
    name: certifying by execution must not run the matrix kernels whose
    schedules it certifies."""
    from repro.core.backend.batched import BatchedBackend
    from repro.core.backend.interpreter import ScheduleInterpreter

    def refuse(*args, **kwargs):
        raise AssertionError("certified on the batched executor")

    ranks = []
    begin = ScheduleInterpreter.begin

    def counting(self):
        ranks.append(self.transport.rank)
        begin(self)

    monkeypatch.setattr(BatchedBackend, "execute_all", refuse)
    monkeypatch.setattr(ScheduleInterpreter, "begin", counting)
    nbh = moore_neighborhood(2, 1, include_self=False)
    topo = CartTopology((3, 3))
    verify_alltoall(a2a_schedule(nbh), topo)
    verify_allgather(
        build_allgather_schedule(
            nbh,
            BlockSet([BlockRef("send", 0, 4)]),
            uniform_block_layout([4] * nbh.t, "recv"),
        ),
        topo,
    )
    interior = (4, 4)
    verify_halo(plain_halo_schedule(interior, 1, 1), topo, interior, 1)
    assert ranks == list(range(9)) * 3
    # a registry name still selects what the registry says
    with pytest.raises(AssertionError, match="batched executor"):
        verify_alltoall(a2a_schedule(nbh), topo, backend="lockstep")


class TestVerifyAlltoall:
    @pytest.mark.parametrize(
        "builder", [build_alltoall_schedule, build_trivial_alltoall_schedule]
    )
    def test_valid_schedules_certify(self, builder):
        nbh = parameterized_stencil(2, 3, -1)
        verify_alltoall(a2a_schedule(nbh, builder=builder), CartTopology((3, 4)))

    def test_deserialized_schedule_certifies(self):
        nbh = parameterized_stencil(2, 3, -1)
        sched = schedule_from_json(schedule_to_json(a2a_schedule(nbh)))
        verify_alltoall(sched, CartTopology((3, 3)))

    def test_corrupted_schedule_detected(self):
        nbh = Neighborhood([(1, 0), (0, 1)])
        sched = a2a_schedule(nbh)
        # swap two rounds' offsets: data goes the wrong way
        r0 = sched.phases[0].rounds[0]
        r1 = sched.phases[1].rounds[0]
        r0.offset, r1.offset = r1.offset, r0.offset
        with pytest.raises(ScheduleError, match="verification failed"):
            verify_alltoall(sched, CartTopology((3, 3)))

    def test_irregular_sizes(self):
        nbh = moore_neighborhood(2, 1)
        sizes = [3 * (2 - z) for z in nbh.hops]
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout(sizes, "send"),
            uniform_block_layout(sizes, "recv"),
        )
        verify_alltoall(sched, CartTopology((3, 3)), block_sizes=sizes)

    def test_size_arity_check(self):
        nbh = Neighborhood([(1, 0)])
        with pytest.raises(ScheduleError, match="block sizes"):
            verify_alltoall(a2a_schedule(nbh), CartTopology((2, 2)),
                            block_sizes=[4, 4])


class TestVerifyAllgather:
    def test_valid(self):
        nbh = parameterized_stencil(2, 3, -1)
        sched = build_allgather_schedule(
            nbh,
            BlockSet([BlockRef("send", 0, 4)]),
            uniform_block_layout([4] * nbh.t, "recv"),
        )
        verify_allgather(sched, CartTopology((3, 3)))

    def test_corrupted_detected(self):
        nbh = Neighborhood([(1, 0), (-1, 0)])
        sched = build_allgather_schedule(
            nbh,
            BlockSet([BlockRef("send", 0, 4)]),
            uniform_block_layout([4, 4], "recv"),
        )
        sched.all_rounds()[0].offset = (2, 0)  # wrong direction
        with pytest.raises(ScheduleError, match="verification failed"):
            verify_allgather(sched, CartTopology((4, 4)))


class TestVerifyHalo:
    def test_combined_halo_certifies(self):
        sched = build_combined_halo_schedule((3, 3), 1, 1)
        verify_halo(sched, CartTopology((3, 3)), (3, 3), 1)

    def test_plain_halo_certifies(self):
        sched = plain_halo_schedule((3, 3), 1, 1, algorithm="direct")
        verify_halo(sched, CartTopology((2, 2)), (3, 3), 1)

    def test_broken_halo_detected(self):
        sched = build_combined_halo_schedule((3, 3), 1, 1)
        # drop a round: one face never arrives
        del sched.phases[1].rounds[1]
        with pytest.raises(ScheduleError, match="halo verification failed"):
            verify_halo(sched, CartTopology((3, 3)), (3, 3), 1)


class TestVisualize:
    def test_render_tree_figure2(self):
        tree = AllgatherTree.build(FIGURE2, dim_order=(2, 1, 0))
        text = render_tree(tree)
        assert "allgather tree" in text
        assert "6 edges" in text
        # the shared first hop along dim 2
        assert "dim 2 +1" in text
        # the four leaves carry their terminal indices
        assert text.count("terminates") >= 4

    def test_render_tree_increasing_order(self):
        tree = AllgatherTree.build(FIGURE2, dim_order=(0, 1, 2))
        assert "12 edges" in render_tree(tree)

    def test_render_schedule_structure(self):
        nbh = parameterized_stencil(2, 3, -1)
        text = render_schedule(a2a_schedule(nbh))
        assert "phase 0 (dim 0)" in text
        assert "send[" in text and "recv[" in text
        assert "local copies" in text  # the self block

    def test_render_schedule_truncates_blocks(self):
        nbh = parameterized_stencil(2, 5, -1)
        text = render_schedule(a2a_schedule(nbh), max_blocks=2)
        assert "…+" in text

    def test_render_empty_blockset(self):
        from repro.core.schedule import Phase, Round, Schedule

        sched = Schedule(
            kind="custom",
            neighborhood=Neighborhood([(1,)]),
            phases=[
                Phase(dim=0, rounds=[
                    Round(offset=(1,), send_blocks=BlockSet(),
                          recv_blocks=BlockSet())
                ])
            ],
        )
        assert "(empty)" in render_schedule(sched)
