"""The stencil workloads as apps, against serial references: the
weighted stencil (:class:`repro.apps.WeightedStencil`) and Life."""

import numpy as np
import pytest

from repro.apps import GameOfLife, WeightedStencil
from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood
from repro.mpisim.exceptions import MpiSimError
from repro.stencil.kernels import (
    glider,
    heat_weights,
    jacobi_weights_9pt,
    life_step_global,
    weighted_stencil_global,
)

NBH = moore_neighborhood(2, 1, include_self=False)


@pytest.mark.parametrize("algorithm", ["trivial", "combining", "direct"])
def test_jacobi_matches_serial(algorithm, rng):
    g = rng.random((12, 10))
    w = jacobi_weights_9pt()
    ref = g.copy()
    for _ in range(4):
        ref = weighted_stencil_global(ref, w)
    got = WeightedStencil(g, (3, 2), w, 4).run(algorithm=algorithm).output
    assert np.array_equal(got, ref)


def test_heat_equation_uneven_blocks(rng):
    """Grid extents not divisible by the process grid: per-rank layouts,
    which only the threaded backend runs."""
    g = rng.random((11, 13))
    w = heat_weights(2, 0.15)
    ref = g.copy()
    for _ in range(6):
        ref = weighted_stencil_global(ref, w)
    got = WeightedStencil(g, (2, 3), w, 6).run(backend="threaded").output
    assert np.array_equal(got, ref)


def test_game_of_life_glider_crosses_boundaries():
    g = glider((12, 12), top=4, left=4)
    ref = g.copy()
    for _ in range(12):
        ref = life_step_global(ref)
    got = GameOfLife(g, (2, 2), 12).run(algorithm="combining").output
    assert np.array_equal(got, ref)


def test_wrong_initial_shape_rejected():
    with pytest.raises(Exception, match="grid dimension"):
        WeightedStencil(np.zeros((8, 8, 8)), (2, 2), {(0, 0): 1.0}, 1)


def _bound(app, cart, algorithm):
    """One rank's ghosted state and the app's exchange bound on it."""
    state = app._state()[cart.rank]
    return state["grid"], app._exchange(cart, state, algorithm)


def test_halo_exchange_only(rng):
    """The app's exchange fills the ghost frame correctly without
    stepping."""
    g = rng.integers(0, 100, (8, 8)).astype(np.float64)
    app = WeightedStencil(g, (2, 2), {(0, 0): 1.0}, 0)
    padded = np.pad(g, 1, mode="wrap")

    def fn(cart):
        grid, handle = _bound(app, cart, "combining")
        handle.execute()
        handle.free()
        sl = app.decomp.local_slices(cart.rank)
        expect = padded[sl[0].start : sl[0].stop + 2,
                        sl[1].start : sl[1].stop + 2]
        return np.array_equal(grid, expect)

    assert all(run_cartesian((2, 2), NBH, fn))


@pytest.mark.parametrize("halo", ["per-neighbor", "combined"])
def test_no_exchange_after_free(halo, rng):
    """``free()`` hands the halo handle's scratch back; a later
    exchange is refused instead of running on memory it no longer owns
    (the combined handle has no scratch at all and is refused alike)."""
    app = WeightedStencil(rng.random((8, 8)), (2, 2), heat_weights(2), 1)
    algorithm = "combined" if halo == "combined" else "combining"

    def fn(cart):
        _, handle = _bound(app, cart, algorithm)
        handle.execute()
        handle.free()
        handle.free()
        with pytest.raises(MpiSimError, match="after free"):
            handle.execute()
        return handle.executions

    assert run_cartesian((2, 2), NBH, fn) == [1] * 4
