"""Threaded schedule execution (Listing 5) — correctness on the engine."""

import numpy as np

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.backend import (
    ScheduleInterpreter,
    ThreadedTransport,
    allocate_buffers,
)
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import listing3_9point, parameterized_stencil
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.engine import Engine, run_ranks

from tests.conftest import expected_alltoall, fill_send_alltoall


def run_alltoall(dims, nbh, builder, m_elems=2, timeout=60):
    topo = CartTopology(dims)
    m = m_elems * 8  # bytes of int64
    sizes = [m] * nbh.t
    sched = builder(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )

    def fn(comm):
        send = fill_send_alltoall(comm.rank, nbh.t, m_elems)
        recv = np.zeros_like(send)
        buffers = {"send": send, "recv": recv}
        sched.validate(allocate_buffers(sched, buffers))
        ScheduleInterpreter(
            ThreadedTransport(comm), topo, sched, buffers
        ).run()
        expect = expected_alltoall(topo, nbh, comm.rank, m_elems)
        assert np.array_equal(recv, expect), (comm.rank, recv, expect)
        return True

    return run_ranks(topo.size, fn, timeout=timeout)


class TestCombiningOnThreads:
    def test_moore_2d(self):
        assert all(run_alltoall((3, 4), parameterized_stencil(2, 3, -1),
                                build_alltoall_schedule))

    def test_asymmetric_n4(self):
        assert all(run_alltoall((4, 4), parameterized_stencil(2, 4, -1),
                                build_alltoall_schedule))

    def test_moore_3d(self):
        assert all(run_alltoall((2, 3, 2), parameterized_stencil(3, 3, -1),
                                build_alltoall_schedule))

    def test_listing3_neighborhood(self):
        assert all(run_alltoall((3, 3), listing3_9point(),
                                build_alltoall_schedule))

    def test_offsets_larger_than_dims(self):
        """Offsets alias through the torus (offset 4 ≡ 0 on a dim of 4):
        self-sends through the engine must work."""
        nbh = Neighborhood([(4, 0), (1, 0), (0, 3)])
        assert all(run_alltoall((4, 3), nbh, build_alltoall_schedule))

    def test_repeated_offsets(self):
        nbh = Neighborhood([(1, 0), (1, 0), (0, 1)])
        assert all(run_alltoall((3, 3), nbh, build_alltoall_schedule))

    def test_self_neighbor(self):
        nbh = Neighborhood([(0, 0), (1, 1), (-1, -1)])
        assert all(run_alltoall((3, 3), nbh, build_alltoall_schedule))


class TestTrivialOnThreads:
    def test_moore_2d(self):
        assert all(run_alltoall((3, 3), parameterized_stencil(2, 3, -1),
                                build_trivial_alltoall_schedule))

    def test_aliasing(self):
        nbh = Neighborhood([(2, 0), (0, 2)])
        assert all(run_alltoall((2, 2), nbh, build_trivial_alltoall_schedule))


class TestAllgatherOnThreads:
    def test_moore_2d(self):
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((3, 3))
        m = 16
        sched = build_allgather_schedule(
            nbh,
            BlockSet([BlockRef("send", 0, m)]),
            uniform_block_layout([m] * nbh.t, "recv"),
        )

        def fn(comm):
            send = np.full(m, comm.rank + 1, np.uint8)
            recv = np.zeros(nbh.t * m, np.uint8)
            ScheduleInterpreter(
                ThreadedTransport(comm), topo, sched,
                {"send": send, "recv": recv},
            ).run()
            for i, off in enumerate(nbh):
                src = topo.translate(comm.rank, tuple(-o for o in off))
                assert (recv[i * m : (i + 1) * m] == src + 1).all()
            return True

        assert all(run_ranks(topo.size, fn, timeout=60))


class TestBufferPlumbing:
    def test_allocate_buffers_adds_temp(self):
        nbh = Neighborhood([(1, 1)])
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([8], "send"),
            uniform_block_layout([8], "recv"),
        )
        bufs = allocate_buffers(sched, {"send": np.zeros(8, np.uint8),
                                        "recv": np.zeros(8, np.uint8)})
        assert "temp" in bufs
        assert bufs["temp"].nbytes == sched.temp_nbytes

    def test_existing_temp_respected(self):
        nbh = Neighborhood([(1, 1)])
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([8], "send"),
            uniform_block_layout([8], "recv"),
        )
        mine = np.zeros(64, np.uint8)
        bufs = allocate_buffers(sched, {"temp": mine})
        assert bufs["temp"] is mine

    def test_trace_has_phase_structure(self):
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((3, 3))
        m = 4
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([m] * nbh.t, "send"),
            uniform_block_layout([m] * nbh.t, "recv"),
        )
        eng = Engine(topo.size, timeout=60, tracing=True)

        def fn(comm):
            send = np.zeros(nbh.t * m, np.uint8)
            recv = np.zeros(nbh.t * m, np.uint8)
            ScheduleInterpreter(
                ThreadedTransport(comm), topo, sched,
                {"send": send, "recv": recv},
            ).run()

        eng.run(fn)
        phases = eng.trace.phases(0)
        # one waitall-group per dimension phase; each group holds
        # C_k sends + C_k receives (a trailing group may carry the
        # local-copy event for the self block)
        comm_groups = [
            g for g in phases if any(e.kind in ("isend", "irecv") for e in g)
        ]
        assert len(comm_groups) == nbh.d
        for group, ck in zip(comm_groups, nbh.distinct_nonzero_per_dim):
            assert sum(1 for e in group if e.kind == "isend") == ck
            assert sum(1 for e in group if e.kind == "irecv") == ck


class TestPrepare:
    """Schedule.prepare(): the precomputed coalesced-copy plan."""

    def _schedule_with_copies(self, copies):
        from repro.core.schedule import LocalCopy, Schedule

        nbh = Neighborhood([(1,)])
        return Schedule(
            kind="test", neighborhood=nbh, phases=[],
            local_copies=[LocalCopy(BlockRef(*s), BlockRef(*d)) for s, d in copies],
        )

    def test_contiguous_copies_merge(self):
        sched = self._schedule_with_copies(
            [
                (("send", 0, 4), ("recv", 8, 4)),
                (("send", 4, 4), ("recv", 12, 4)),  # both sides contiguous
                (("send", 8, 4), ("recv", 0, 4)),   # dst jumps back: no merge
            ]
        )
        sched.prepare()
        runs = sched._copy_runs
        assert [(c.src.offset, c.src.nbytes, c.dst.offset) for c in runs] == [
            (0, 8, 8),
            (8, 4, 0),
        ]

    def test_prepare_is_idempotent(self):
        sched = self._schedule_with_copies(
            [(("send", 0, 4), ("recv", 0, 4)), (("send", 4, 4), ("recv", 4, 4))]
        )
        sched.prepare()
        first = sched._copy_runs
        sched.prepare()
        assert sched._copy_runs is first

    def test_prepare_sums_the_accounting_totals_once(self):
        """What OpStats records per call — rounds, volume in blocks and
        bytes, local-copy bytes — is summed by ``prepare`` and read, not
        recomputed by walking every block on every call."""
        nbh = parameterized_stencil(2, 3, -1)
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([4] * nbh.t, "send"),
            uniform_block_layout([4] * nbh.t, "recv"),
        )
        assert sched._totals is None
        totals = sched.totals()  # prepares on demand
        assert sched._copy_runs is not None
        assert totals == (
            sched.num_rounds,
            sched.volume_blocks,
            sched.volume_bytes,
            sum(c.src.nbytes for c in sched._copy_runs),
        )
        assert sched.totals() is totals
        assert sched.local_copy_bytes == totals[3]
        copies = self._schedule_with_copies(
            [(("send", 0, 4), ("recv", 0, 4)), (("send", 14, 0), ("recv", 2, 0))]
        )
        assert copies.prepare().totals() == (0, 0, 0, 4)

    def test_run_local_copies_equivalent(self):
        # merged plan moves exactly the bytes the per-copy plan would
        copies = [
            (("send", 0, 4), ("recv", 4, 4)),
            (("send", 4, 4), ("recv", 8, 4)),
            (("send", 12, 2), ("recv", 0, 2)),
            (("send", 14, 0), ("recv", 2, 0)),  # zero-size: dropped
        ]
        send = np.arange(16, dtype=np.uint8)
        recv_merged = np.zeros(16, np.uint8)
        sched = self._schedule_with_copies(copies)
        moved = sched.run_local_copies({"send": send, "recv": recv_merged})
        assert moved == 10
        recv_ref = np.zeros(16, np.uint8)
        for (sb, so, sn), (db, do, dn) in copies:
            recv_ref[do : do + dn] = send[so : so + sn]
        assert np.array_equal(recv_merged, recv_ref)

    def test_combining_schedule_prepares_runs(self):
        nbh = parameterized_stencil(2, 3, -1)
        m = 4
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([m] * nbh.t, "send"),
            uniform_block_layout([m] * nbh.t, "recv"),
        )
        sched.prepare()
        assert sched._copy_runs is not None
        for ph in sched.phases:
            for r in ph.rounds:
                assert len(r.send_blocks.coalesced_runs()) <= len(r.send_blocks)
                assert len(r.recv_blocks.coalesced_runs()) <= len(r.recv_blocks)
