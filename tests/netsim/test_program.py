"""Program synthesis and its equivalence to recorded traces."""

import numpy as np
import pytest

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import ScheduleInterpreter, ThreadedTransport
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.engine import Engine
from repro.netsim.program import (
    program_from_schedule,
    program_from_trace,
    programs_from_schedule,
    validate_programs,
)


def make(d=2, n=3, m=4, builder=build_alltoall_schedule):
    nbh = parameterized_stencil(d, n, -1)
    sizes = [m] * nbh.t
    sched = builder(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )
    return nbh, sched


class TestSynthesis:
    def test_op_counts(self):
        nbh, sched = make()
        topo = CartTopology((3, 3))
        prog = program_from_schedule(sched, topo, 0)
        sends = [op for op in prog if op[0] == "isend"]
        recvs = [op for op in prog if op[0] == "irecv"]
        waits = [op for op in prog if op[0] == "waitall"]
        assert len(sends) == sched.num_rounds
        assert len(recvs) == sched.num_rounds
        assert len(waits) == sched.num_phases

    def test_local_copy_appended(self):
        nbh, sched = make()  # includes the self block
        topo = CartTopology((3, 3))
        prog = program_from_schedule(sched, topo, 0)
        assert prog[-1][0] == "local"
        assert prog[-1][1] == 4  # one m-byte self block

    def test_recv_posted_before_send(self):
        nbh, sched = make()
        topo = CartTopology((3, 3))
        prog = program_from_schedule(sched, topo, 0)
        first_comm = [op[0] for op in prog if op[0] in ("isend", "irecv")][0]
        assert first_comm == "irecv"

    def test_validate_programs_accepts_schedule(self):
        nbh, sched = make()
        topo = CartTopology((3, 3))
        validate_programs(programs_from_schedule(sched, topo))

    def test_validate_rejects_unmatched(self):
        programs = [
            [("isend", 1, 4), ("waitall",)],
            [("waitall",)],
        ]
        with pytest.raises(ValueError, match="unmatched"):
            validate_programs(programs)

    def test_validate_rejects_unfinished(self):
        programs = [[("isend", 0, 4)]]
        with pytest.raises(ValueError, match="not completed"):
            validate_programs(programs)


class TestTraceEquivalence:
    """The synthesized program must equal what a real engine execution
    records — the strongest guarantee that the modeled figures simulate
    the code that actually runs."""

    @pytest.mark.parametrize(
        "builder", [build_alltoall_schedule, build_trivial_alltoall_schedule]
    )
    def test_synthesis_matches_recorded_trace(self, builder):
        nbh, sched = make(builder=builder)
        topo = CartTopology((3, 3))
        eng = Engine(topo.size, timeout=60, tracing=True)

        def fn(comm):
            m = 4
            send = np.zeros(nbh.t * m, np.uint8)
            recv = np.zeros(nbh.t * m, np.uint8)
            ScheduleInterpreter(
                ThreadedTransport(comm), topo, sched,
                {"send": send, "recv": recv},
            ).run()

        eng.run(fn)
        for rank in range(topo.size):
            synthesized = program_from_schedule(sched, topo, rank)
            recorded = program_from_trace(eng.trace.for_rank(rank))
            assert recorded == synthesized, f"rank {rank}"
