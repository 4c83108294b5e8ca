"""Combined (transitive) halo-exchange schedules — Section 3.4."""

import numpy as np
import pytest

from repro.apps import WeightedStencil
from repro.core.api import run_cartesian
from repro.core.backend import get_backend
from repro.core.persistent import PersistentOp
from repro.core.schedule import BoundOp
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.stencil.decomp import GridDecomposition
from repro.stencil.kernels import life_step_global, life_step_local, glider
from repro.stencil.optimized_halo import (
    build_combined_halo_schedule,
    halo_volume_comparison,
    plain_halo_schedule,
)


class TestStructure:
    def test_two_rounds_per_dimension(self):
        sched = build_combined_halo_schedule((4, 4), 1, 8)
        assert sched.num_phases == 2
        assert sched.num_rounds == 4

    def test_3d_six_rounds(self):
        sched = build_combined_halo_schedule((4, 4, 4), 1, 8)
        assert sched.num_rounds == 6

    def test_no_scratch_needed(self):
        assert build_combined_halo_schedule((4, 4), 1, 8).temp_nbytes == 0

    def test_round_byte_symmetry(self):
        sched = build_combined_halo_schedule((5, 3), 2, 4)
        for rnd in sched.all_rounds():
            assert rnd.send_blocks.total_nbytes == rnd.recv_blocks.total_nbytes

    def test_later_phases_carry_ghost_extensions(self):
        """Phase-1 slabs span the extended dim-0 extent: they are
        (n0+2h)·h cells, larger than the plain n0·h face."""
        n, h = 4, 1
        sched = build_combined_halo_schedule((n, n), h, 1)
        phase0, phase1 = sched.phases
        assert phase0.rounds[0].nbytes == n * h
        assert phase1.rounds[0].nbytes == (n + 2 * h) * h

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="positive"):
            build_combined_halo_schedule((4, 4), 0, 1)
        with pytest.raises(ValueError, match="smaller"):
            build_combined_halo_schedule((1, 4), 2, 1)


class TestVolumeComparison:
    def test_fewer_bytes_than_combining_alltoallw(self):
        """The whole point: the per-neighbor combining schedule forwards
        corner blocks separately (d hops), the combined halo does not."""
        cmp = halo_volume_comparison((8, 8), 1, 8)
        assert cmp["combined-halo"]["bytes"] < cmp["combining-alltoallw"]["bytes"]

    def test_fewer_rounds_than_direct(self):
        cmp = halo_volume_comparison((8, 8), 1, 8)
        assert cmp["combined-halo"]["rounds"] == 4
        assert cmp["direct-per-neighbor"]["rounds"] == 8

    def test_3d_gap_grows(self):
        cmp2 = halo_volume_comparison((8, 8), 1, 8)
        cmp3 = halo_volume_comparison((8, 8, 8), 1, 8)
        gap2 = cmp2["combining-alltoallw"]["bytes"] / cmp2["combined-halo"]["bytes"]
        gap3 = cmp3["combining-alltoallw"]["bytes"] / cmp3["combined-halo"]["bytes"]
        assert gap3 > gap2

    def test_volume_formula_2d(self):
        """2-D, depth h, n×n interior: 2·h·n (phase 0) + 2·h·(n+2h)."""
        n, h, item = 6, 1, 4
        cmp = halo_volume_comparison((n, n), h, item)
        assert cmp["combined-halo"]["bytes"] == item * (
            2 * h * n + 2 * h * (n + 2 * h)
        )


class TestCorrectness:
    def _ghost_expectation(self, topo, decomp, global_grid, depth, rank):
        padded = np.pad(global_grid, depth, mode="wrap")
        sl = decomp.local_slices(rank)
        return padded[
            sl[0].start : sl[0].stop + 2 * depth,
            sl[1].start : sl[1].stop + 2 * depth,
        ]

    def test_lockstep_fills_ghosts_including_corners(self, rng):
        topo = CartTopology((3, 3))
        G = (9, 9)
        depth = 1
        g = rng.integers(0, 100, G).astype(np.float64)
        decomp = GridDecomposition(topo, G)
        interior = decomp.local_shape(0)
        sched = build_combined_halo_schedule(interior, depth, g.itemsize)
        bufs = []
        for r in range(topo.size):
            local = np.zeros(tuple(n + 2 * depth for n in interior))
            local[depth:-depth, depth:-depth] = decomp.scatter(g)[r]
            bufs.append({"grid": local})
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            expect = self._ghost_expectation(topo, decomp, g, depth, r)
            assert np.array_equal(bufs[r]["grid"], expect), r

    def test_depth_two_lockstep(self, rng):
        topo = CartTopology((2, 2))
        G = (8, 8)
        depth = 2
        g = rng.integers(0, 100, G).astype(np.float64)
        decomp = GridDecomposition(topo, G)
        interior = decomp.local_shape(0)
        sched = build_combined_halo_schedule(interior, depth, g.itemsize)
        bufs = []
        for r in range(topo.size):
            local = np.zeros(tuple(n + 2 * depth for n in interior))
            local[depth:-depth, depth:-depth] = decomp.scatter(g)[r]
            bufs.append({"grid": local})
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            expect = self._ghost_expectation(topo, decomp, g, depth, r)
            assert np.array_equal(bufs[r]["grid"], expect), r

    def test_3d_lockstep(self, rng):
        topo = CartTopology((2, 2, 2))
        G = (4, 4, 4)
        g = rng.integers(0, 100, G).astype(np.float64)
        decomp = GridDecomposition(topo, G)
        interior = decomp.local_shape(0)
        sched = build_combined_halo_schedule(interior, 1, g.itemsize)
        padded = np.pad(g, 1, mode="wrap")
        bufs = []
        for r in range(topo.size):
            local = np.zeros(tuple(n + 2 for n in interior))
            local[1:-1, 1:-1, 1:-1] = decomp.scatter(g)[r]
            bufs.append({"grid": local})
        get_backend("lockstep").execute_all(topo, sched, bufs)
        for r in range(topo.size):
            sl = decomp.local_slices(r)
            expect = padded[
                sl[0].start : sl[0].stop + 2,
                sl[1].start : sl[1].stop + 2,
                sl[2].start : sl[2].stop + 2,
            ]
            assert np.array_equal(bufs[r]["grid"], expect), r

    def test_equivalent_to_plain_halo(self, rng):
        """Combined and per-neighbor halos must produce identical ghost
        frames."""
        topo = CartTopology((3, 3))
        interior = (3, 3)
        depth = 1
        combined = build_combined_halo_schedule(interior, depth, 8)
        plain = plain_halo_schedule(interior, depth, 8, algorithm="direct")

        def make_bufs():
            out = []
            rngl = np.random.default_rng(9)
            for r in range(topo.size):
                local = np.zeros((5, 5))
                local[1:-1, 1:-1] = rngl.random((3, 3)) + r
                out.append({"grid": local.copy()})
            return out

        a, b = make_bufs(), make_bufs()
        get_backend("lockstep").execute_all(topo, combined, a)
        get_backend("lockstep").execute_all(topo, plain, b)
        for x, y in zip(a, b):
            assert np.allclose(x["grid"], y["grid"])


class TestDistributedStencilIntegration:
    def test_game_of_life_with_combined_halo(self):
        g = glider((12, 12), top=4, left=4)
        topo = CartTopology((2, 2))
        decomp = GridDecomposition(topo, g.shape)
        blocks = decomp.scatter(g)
        nbh = moore_neighborhood(2, 1, include_self=False)

        def fn(cart):
            grid = np.pad(blocks[cart.rank], 1)
            sched = build_combined_halo_schedule((6, 6), 1, grid.itemsize)
            handle = PersistentOp(cart, BoundOp("combined", sched, {"grid": grid}))
            for _ in range(12):
                handle.execute()
                grid[1:-1, 1:-1] = life_step_local(grid, 1)
            handle.free()
            return grid[1:-1, 1:-1]

        got = decomp.gather(run_cartesian((2, 2), nbh, fn, timeout=120))
        ref = g.copy()
        for _ in range(12):
            ref = life_step_global(ref)
        assert np.array_equal(got, ref)

    def test_combined_requires_uniform_blocks(self):
        """Uneven blocks run the combined halo per rank on threaded;
        batched runs one schedule for all ranks and refuses them."""
        app = WeightedStencil(np.zeros((9, 8)), (2, 2), {(0, 0): 1.0}, 1)
        with pytest.raises(ValueError, match="backend='threaded'"):
            app.run(backend="batched", algorithm="combined")

    def test_unknown_halo_strategy(self):
        app = WeightedStencil(np.zeros((8, 8)), (2, 2), {(0, 0): 1.0}, 1)
        with pytest.raises(Exception, match="unknown algorithm"):
            app.run(algorithm="magic")
