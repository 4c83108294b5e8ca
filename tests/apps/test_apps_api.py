"""Unit coverage of the app layer: packing, validation, the
certification harness itself, and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    APPS,
    AllToAllBroadcast,
    AppCertificationError,
    CannonMatmul,
    GameOfLife,
    WeightedStencil,
    broadcast_schedule,
    default_app,
    full_torus_neighborhood,
    life_step_reference,
    merge_stats,
    pack_rows,
    registered_backends,
    unpack_rows,
)
from repro.stencil.kernels import heat_weights, life_step_global


class TestPackedRows:
    @pytest.mark.parametrize("cols", [1, 7, 8, 9, 24])
    def test_roundtrip(self, cols, rng):
        board = (rng.random((5, cols)) < 0.5).astype(np.uint8)
        packed = pack_rows(board)
        assert packed.shape == (5, (cols + 7) // 8)
        assert np.array_equal(unpack_rows(packed, cols), board)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_rows(np.zeros(8, dtype=np.uint8))


class TestOracles:
    def test_life_reference_matches_global_kernel_on_torus(self, rng):
        board = (rng.random((9, 11)) < 0.4).astype(np.uint8)
        assert np.array_equal(
            life_step_reference(board, (True, True)), life_step_global(board)
        )

    def test_life_mesh_edges_stay_dead_beyond_boundary(self):
        board = np.zeros((4, 4), dtype=np.uint8)
        board[0, :3] = 1  # blinker on the top edge
        stepped = life_step_reference(board, (False, False))
        assert stepped[0, 1] == 1  # survives with 2 neighbors, no wrap


class TestValidation:
    def test_life_rejects_non_2d_board(self):
        with pytest.raises(ValueError, match="2-D"):
            GameOfLife(np.zeros(9, dtype=np.uint8), (1, 1), 1)

    def test_life_rejects_grid_smaller_than_dims(self):
        with pytest.raises(ValueError, match="too small"):
            GameOfLife(np.zeros((2, 8), dtype=np.uint8), (3, 1), 1)

    def test_life_combining_needs_full_torus(self):
        app = GameOfLife.random((8, 8), (2, 2), 1, periods=(False, True))
        with pytest.raises(ValueError, match="periodic"):
            app.run(backend="threaded", algorithm="combining")

    def test_weighted_rejects_offsets_of_another_arity(self):
        with pytest.raises(ValueError, match="2 components"):
            WeightedStencil(np.zeros((4, 4)), (2, 2), {(1,): 1.0}, 1)

    def test_weighted_rejects_blocks_thinner_than_the_ghost_depth(self):
        with pytest.raises(ValueError, match="ghost depth"):
            WeightedStencil(np.zeros((3, 6)), (2, 2), {(2, 0): 1.0}, 1)

    def test_weighted_rejects_a_source_of_another_shape(self):
        with pytest.raises(ValueError, match="source"):
            WeightedStencil(np.zeros((4, 4)), (2, 2), {}, 1, source=np.zeros(4))

    def test_cannon_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="2x2"):
            CannonMatmul(4, 4, 4, 1)

    def test_cannon_rejects_indivisible_extents(self):
        with pytest.raises(ValueError, match="divisible"):
            CannonMatmul(10, 12, 12, 3)

    def test_cannon_rejects_float_matrices(self):
        with pytest.raises(ValueError, match="integer"):
            CannonMatmul(4, 4, 4, 2, dtype=np.float64)

    def test_broadcast_rejects_single_process(self):
        with pytest.raises(ValueError, match="two processes"):
            AllToAllBroadcast((1,))

    def test_broadcast_rejects_zero_sweeps(self):
        with pytest.raises(ValueError, match="sweep"):
            AllToAllBroadcast((2, 2), iterations=0)


class TestFullTorusNeighborhood:
    @pytest.mark.parametrize("dims", [(2,), (3, 3), (4, 3), (2, 2, 2)])
    def test_covers_every_residue_once(self, dims):
        nbh = full_torus_neighborhood(dims)
        p = int(np.prod(dims))
        assert nbh.t == p
        assert nbh.has_self
        assert nbh.distinct_targets(dims) == p

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="positive"):
            full_torus_neighborhood((3, 0))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            broadcast_schedule((2, 2), 8, "telepathy")


class TestHarness:
    def test_tampered_output_fails_certification(self):
        app = GameOfLife.glider((8, 8), (2, 2), 2)
        run = app.run(backend="threaded", algorithm="trivial")
        run.output = run.output.copy()
        run.output[0, 0] ^= 1
        with pytest.raises(AppCertificationError, match="diverges"):
            app.check_against_oracle(run)

    def test_missing_aux_fails_certification(self):
        app = GameOfLife.glider((8, 8), (2, 2), 1)
        run = app.run(backend="threaded", algorithm="trivial")
        run.aux.clear()
        with pytest.raises(AppCertificationError, match="missing aux"):
            app.check_against_oracle(run)

    def test_wrong_dtype_fails_certification(self):
        app = AllToAllBroadcast((2, 2), block=2, iterations=1)
        run = app.run(backend="threaded", algorithm="trivial")
        run.output = run.output.astype(np.int32)
        with pytest.raises(AppCertificationError, match="dtype/shape"):
            app.check_against_oracle(run)

    def test_merge_stats_skips_missing_and_adds(self):
        app = AllToAllBroadcast((2, 2), block=2, iterations=2)
        run = app.run(backend="threaded", algorithm="trivial")
        doubled = merge_stats([run.stats, None, run.stats])
        assert doubled.total_calls == 2 * run.stats.total_calls
        assert doubled.plan_hits == 2 * run.stats.plan_hits
        assert doubled.cache_misses == 2 * run.stats.cache_misses

    def test_describe_names_the_leg(self):
        app = GameOfLife.glider((8, 8), (2, 2), 1)
        run = app.run(backend="lockstep", algorithm="trivial")
        assert "life[trivial/batched]" in run.describe()  # the alias resolved


class TestRegistry:
    def test_default_instances_are_fresh_and_certifiable(self):
        assert set(APPS) == {"life", "cannon", "broadcast", "weighted"}
        assert default_app("life") is not default_app("life")
        for name in APPS:
            app = default_app(name)
            app.check_against_oracle(
                app.run(backend="threaded", algorithm="combining")
            )

    def test_unknown_app_is_an_error(self):
        with pytest.raises(ValueError, match="unknown app"):
            default_app("tetris")

    def test_registered_backends_respect_shm_rank_bound(self):
        """The rank bound went with the forked shm backend: the list no
        longer depends on the size, and neither alias is an entry."""
        assert registered_backends() == ["batched", "threaded"]


def test_cannon_row_layouts_are_built_once_and_frozen():
    """Every rank of every run with the same panel shape shares one
    frozen row layout per buffer."""
    from repro.apps import CannonMatmul
    from repro.apps.cannon import _row_blockset
    from repro.mpisim.datatypes import BlockRef

    _row_blockset.cache_clear()
    app = CannonMatmul(8, 8, 8, 2, seed=9)
    app.check_against_oracle(app.run(backend="threaded"))
    assert _row_blockset.cache_info().currsize == 4  # A, B, An, Bn
    misses = _row_blockset.cache_info().misses
    app.check_against_oracle(app.run(backend="threaded"))
    assert _row_blockset.cache_info().misses == misses
    rows = _row_blockset("A", 4, 32, 56)
    assert _row_blockset("A", 4, 32, 56) is rows
    with pytest.raises(TypeError, match="frozen"):
        rows.append(BlockRef("A", 0, 8))


class TestDrivers:
    """Which driver runs is decided from the call, and the run says which
    and why."""

    def test_batched_runs_the_rows_driver_with_fused_phases(self):
        app = GameOfLife.random((64, 64), (4, 4), 2, seed=2)
        run = app.run(backend="batched")
        app.check_against_oracle(run)
        assert run.driver == "rows: 16 ranks, one plan, fused"
        assert run.driver in run.describe()

    def test_rows_driver_runs_planes_without_a_fused_program(self, monkeypatch):
        """Refused fused maps leave the rows driver the planes: it
        transposes the rows into them and back around every run."""
        from repro.core import plan as plan_mod
        from repro.core import schedule_cache

        schedule_cache.cache_clear()
        plan_mod.plan_cache_reset()
        monkeypatch.setattr(plan_mod, "FUSED_INDEX_PER_BLOCK_BYTE", 0)
        try:
            app = GameOfLife.random((12, 12), (3, 2), 2, seed=4)
            run = app.run(backend="batched")
        finally:
            schedule_cache.cache_clear()
            plan_mod.plan_cache_reset()
        app.check_against_oracle(run)
        assert run.driver == "rows: 6 ranks, one plan, planes"

    @pytest.mark.parametrize("env, driver", [("batched", "rows:"), ("threaded", "spmd:")])
    def test_run_without_backend_follows_repro_backend(self, env, driver, monkeypatch):
        from repro.core.backend import BACKEND_ENV

        monkeypatch.setenv(BACKEND_ENV, env)
        app = GameOfLife.random((8, 8), (2, 2), 2, seed=6)
        run = app.run()
        app.check_against_oracle(run)
        assert run.driver.startswith(driver) and run.backend == env

    def test_an_engine_runs_the_spmd_driver(self):
        from repro.mpisim.engine import Engine

        app = AllToAllBroadcast((2, 2), block=3, iterations=2, seed=1)
        run = app.run(backend="batched", engine=Engine(4, timeout=60))
        app.check_against_oracle(run)
        assert run.driver == "spmd: engine given"

    def test_threaded_runs_the_spmd_driver(self):
        app = CannonMatmul(8, 8, 8, 2, seed=3)
        run = app.run(backend="threaded")
        app.check_against_oracle(run)
        assert run.driver == "spmd: backend threaded"

    def test_a_plan_without_a_matrix_form_runs_the_spmd_driver(self, monkeypatch):
        from types import SimpleNamespace

        from repro.apps import base

        lookup = base.plan_mod.get_or_compile

        def first_has_no_matrix_form(*args):
            monkeypatch.setattr(base.plan_mod, "get_or_compile", lookup)
            return SimpleNamespace(matrix_error="no matrix form"), True

        monkeypatch.setattr(base.plan_mod, "get_or_compile", first_has_no_matrix_form)
        app = GameOfLife.random((8, 8), (2, 2), 2, seed=5)
        run = app.run(backend="batched")
        app.check_against_oracle(run)
        assert run.driver == "spmd: no matrix form"
        assert run.stats.total_calls == 4 * 2

    @pytest.mark.parametrize("name", ["life", "cannon", "broadcast", "weighted"])
    def test_rows_driver_starts_no_engine_and_leaves_the_pool_empty(self, name, monkeypatch):
        from repro.core.plan import GLOBAL_POOL
        from repro.mpisim.engine import Engine

        def no_engine(*args, **kwargs):
            raise AssertionError("the rows driver started an engine")

        monkeypatch.setattr(Engine, "run", no_engine)
        app = default_app(name)
        run = app.run(backend="batched", algorithm="combining")
        app.check_against_oracle(run)
        assert run.driver.startswith("rows: 9 ranks")
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    def test_rows_driver_books_what_the_ranks_book(self):
        """Per-rank OpStats meaning, booked once by the driver: the
        counters equal the SPMD driver's on the same problem."""
        app = AllToAllBroadcast((3, 3), block=5, iterations=3, seed=2)
        rows = app.run(backend="batched").stats
        spmd = app.run(backend="threaded").stats
        assert rows.total_calls == spmd.total_calls == 9 * 3
        assert rows.total_rounds == spmd.total_rounds
        assert rows.total_bytes == spmd.total_bytes
        assert sum(rows.bytes_packed.values()) == sum(spmd.bytes_packed.values())
        assert rows.cache_hits + rows.cache_misses == 9
        assert rows.plan_hits + rows.plan_misses == 9 * 3

    def test_ragged_board_on_batched_is_refused_before_any_rank_starts(self, monkeypatch):
        from repro.apps import base

        def no_ranks(*args, **kwargs):
            raise AssertionError("a rank thread was started")

        monkeypatch.setattr(base, "run_cartesian", no_ranks)
        app = GameOfLife.random((7, 9), (2, 2), 2)
        with pytest.raises(ValueError, match=r"rank 1's blocks .* rank 0's") as ei:
            app.run(backend="batched")
        assert "backend='threaded'" in str(ei.value)

    @pytest.mark.parametrize("algorithm", ["combining", "combined"])
    def test_weighted_stencil_on_batched_runs_the_rows_driver(self, algorithm):
        app = WeightedStencil(np.arange(96.0).reshape(8, 12), (2, 3), heat_weights(2), 3)
        run = app.run(backend="batched", algorithm=algorithm)
        app.check_against_oracle(run)
        assert run.driver == "rows: 6 ranks, one plan, fused"

    def test_uneven_weighted_grid_on_batched_is_refused_before_any_rank_starts(
        self, monkeypatch
    ):
        from repro.apps import base

        def no_ranks(*args, **kwargs):
            raise AssertionError("a rank thread was started")

        monkeypatch.setattr(base, "run_cartesian", no_ranks)
        app = WeightedStencil(np.zeros((11, 13)), (2, 3), heat_weights(2), 2)
        with pytest.raises(ValueError, match=r"rank 1's blocks .* rank 0's") as ei:
            app.run(backend="batched", algorithm="combined")
        assert "backend='threaded'" in str(ei.value)
