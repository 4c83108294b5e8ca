"""Stencil kernels: local/global agreement and physical sanity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stencil.kernels import (
    glider,
    heat_weights,
    jacobi_weights_5pt,
    jacobi_weights_9pt,
    life_step_global,
    life_step_local,
    weighted_stencil_global,
    weighted_stencil_local,
)


def ghost_wrap(grid, depth=1):
    """Surround a global periodic grid with its wrapped ghost layers, so
    the *local* kernel applied to it must equal the *global* kernel."""
    return np.pad(grid, depth, mode="wrap")


class TestWeightedStencil:
    @pytest.mark.parametrize("weights_fn", [jacobi_weights_5pt, jacobi_weights_9pt])
    def test_local_equals_global_on_wrapped(self, weights_fn, rng):
        g = rng.random((8, 9))
        w = weights_fn()
        local = weighted_stencil_local(ghost_wrap(g), w, 1)
        global_ = weighted_stencil_global(g, w)
        assert np.allclose(local, global_)

    def test_3d_heat(self, rng):
        g = rng.random((5, 6, 4))
        w = heat_weights(3, 0.05)
        local = weighted_stencil_local(ghost_wrap(g), w, 1)
        assert np.allclose(local, weighted_stencil_global(g, w))

    def test_identity_stencil(self, rng):
        g = rng.random((6, 6))
        w = {(0, 0): 1.0}
        assert np.allclose(weighted_stencil_global(g, w), g)

    def test_offset_exceeding_depth_rejected(self):
        with pytest.raises(ValueError, match="ghost depth"):
            weighted_stencil_local(np.zeros((6, 6)), {(2, 0): 1.0}, 1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            weighted_stencil_local(np.zeros((6, 6)), {(1, 0, 0): 1.0}, 1)
        with pytest.raises(ValueError, match="arity"):
            weighted_stencil_local(np.zeros((6, 6)), {(0, 0): 0.5, (1,): 1.0}, 1)

    def test_a_stack_of_grids_is_each_grid(self, rng):
        """Leading axes are stacked ranks: one call equals one per grid,
        bit for bit."""
        grids = rng.random((3, 2, 6, 5))
        w = {(0, 0): 0.5, (1, 0): 0.25, (0, -1): 0.125}
        stacked = weighted_stencil_local(grids, w, 1)
        for rank in np.ndindex(grids.shape[:2]):
            assert stacked[rank].tobytes() == weighted_stencil_local(grids[rank], w, 1).tobytes()

    def test_heat_weights_sum_to_one(self):
        for d in (1, 2, 3):
            assert sum(heat_weights(d, 0.1).values()) == pytest.approx(1.0)

    def test_heat_conserves_mass(self, rng):
        g = rng.random((10, 10))
        w = heat_weights(2, 0.2)
        g2 = weighted_stencil_global(g, w)
        assert g2.sum() == pytest.approx(g.sum())

    def test_jacobi5_weights(self):
        w = jacobi_weights_5pt()
        assert sum(w.values()) == pytest.approx(1.0)
        assert w[(0, 0)] == 0.0


class TestGameOfLife:
    def test_local_equals_global(self, rng):
        g = (rng.random((9, 11)) < 0.4).astype(np.int8)
        local = life_step_local(ghost_wrap(g))
        assert np.array_equal(local, life_step_global(g))

    def test_block_still_life(self):
        g = np.zeros((6, 6), dtype=np.int8)
        g[2:4, 2:4] = 1
        assert np.array_equal(life_step_global(g), g)

    def test_blinker_period_two(self):
        g = np.zeros((5, 5), dtype=np.int8)
        g[2, 1:4] = 1
        g2 = life_step_global(life_step_global(g))
        assert np.array_equal(g2, g)

    def test_glider_translates_with_period_four(self):
        g = glider((12, 12), top=3, left=3)
        h = g.copy()
        for _ in range(4):
            h = life_step_global(h)
        # after 4 generations the glider has moved one cell diagonally
        assert np.array_equal(h, np.roll(g, (1, 1), axis=(0, 1)))

    def test_rules_birth_and_death(self):
        # lone cell dies; cell with three neighbors is born
        g = np.zeros((5, 5), dtype=np.int8)
        g[2, 2] = 1
        assert life_step_global(g).sum() == 0
        g = np.zeros((5, 5), dtype=np.int8)
        g[1, 1] = g[1, 2] = g[2, 1] = 1
        out = life_step_global(g)
        assert out[2, 2] == 1  # birth

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            life_step_global(np.zeros((3, 3, 3), dtype=np.int8))
        # the local kernel takes stacked blocks, (..., rows, cols)
        with pytest.raises(ValueError):
            life_step_local(np.zeros(9, dtype=np.int8))

    def test_glider_cell_count(self):
        assert glider((10, 10)).sum() == 5


def _life_step_23_ops(grid: np.ndarray, depth: int = 1) -> np.ndarray:
    """The 23-operation Life formula (eight ``int64`` casts): a second
    oracle that shares nothing with the table-lookup kernel."""
    if grid.ndim != 2:
        raise ValueError("Game of Life is 2-D")
    n0 = grid.shape[0] - 2 * depth
    n1 = grid.shape[1] - 2 * depth
    neighbors = np.zeros((n0, n1), dtype=np.int64)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbors += grid[
                depth + dx : depth + dx + n0, depth + dy : depth + dy + n1
            ].astype(np.int64)
    alive = grid[depth : depth + n0, depth : depth + n1].astype(bool)
    new = (neighbors == 3) | (alive & (neighbors == 2))
    return new.astype(grid.dtype)


@st.composite
def ghosted_boards(draw):
    """1–5 0/1 boards stacked along a leading axis, each of one shape
    from 1×1 to 24×24 interior cells inside 1–3 ghost layers of
    arbitrary 0/1 content, in one of four cell dtypes."""
    depth = draw(st.integers(1, 3))
    n0, n1 = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    dtype = draw(st.sampled_from([np.uint8, np.int8, np.int64, np.bool_]))
    p = draw(st.integers(1, 5))
    cells = draw(
        arrays(
            np.uint8, (p, n0 + 2 * depth, n1 + 2 * depth), elements=st.integers(0, 1)
        )
    )
    return cells.astype(dtype), depth


@given(case=ghosted_boards())
def test_life_kernel_property(case):
    grids, depth = case
    grid = grids[0]
    before = grids.copy()
    got = life_step_local(grid, depth)
    assert np.array_equal(grid, before[0])  # the input is left untouched
    assert got.dtype == grid.dtype
    assert np.array_equal(got, _life_step_23_ops(grid, depth))

    interior = grid[depth:-depth, depth:-depth]
    wrapped = life_step_local(np.pad(interior, depth, mode="wrap"), depth)
    assert wrapped.dtype == grid.dtype
    assert np.array_equal(wrapped, life_step_global(interior))

    # over a leading rank axis: one call is the 2-D call on every block
    stacked = life_step_local(grids, depth)
    assert np.array_equal(grids, before)
    assert stacked.dtype == grids.dtype
    assert stacked.shape == (len(grids), *got.shape)
    interiors = grids[:, depth:-depth, depth:-depth]
    pad = ((0, 0), (depth, depth), (depth, depth))
    wrapped = life_step_local(np.pad(interiors, pad, mode="wrap"), depth)
    for k, block in enumerate(stacked):
        assert np.array_equal(block, life_step_local(grids[k], depth))
        assert np.array_equal(wrapped[k], life_step_global(interiors[k]))
