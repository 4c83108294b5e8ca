"""Distributed stencil driver against serial references."""

import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.stencil.apps import DistributedStencil
from repro.stencil.decomp import GridDecomposition
from repro.stencil.kernels import (
    glider,
    heat_weights,
    jacobi_weights_9pt,
    life_step_global,
    life_step_local,
    weighted_stencil_global,
    weighted_stencil_local,
)

NBH = moore_neighborhood(2, 1, include_self=False)


def run_distributed(dims, grid, kernel_local, steps, algorithm="combining",
                    depth=1, info=None):
    topo = CartTopology(dims)
    decomp = GridDecomposition(topo, grid.shape)
    blocks = decomp.scatter(grid)

    def fn(cart):
        st = DistributedStencil(
            cart, decomp, blocks[cart.rank], kernel_local,
            depth=depth, algorithm=algorithm,
        )
        try:
            return st.run(steps)
        finally:
            st.free()

    return decomp.gather(run_cartesian(dims, NBH, fn, info=info, timeout=180))


@pytest.mark.parametrize("algorithm", ["trivial", "combining", "direct"])
def test_jacobi_matches_serial(algorithm, rng):
    g = rng.random((12, 10))
    w = jacobi_weights_9pt()
    ref = g.copy()
    for _ in range(4):
        ref = weighted_stencil_global(ref, w)
    got = run_distributed(
        (3, 2), g, lambda arr: weighted_stencil_local(arr, w, 1), 4,
        algorithm=algorithm,
    )
    assert np.allclose(got, ref)


def test_heat_equation_uneven_blocks(rng):
    """Grid extents not divisible by the process grid: per-rank layouts,
    which only the threaded backend runs."""
    g = rng.random((11, 13))
    w = heat_weights(2, 0.15)
    ref = g.copy()
    for _ in range(6):
        ref = weighted_stencil_global(ref, w)
    got = run_distributed(
        (2, 3), g, lambda arr: weighted_stencil_local(arr, w, 1), 6,
        info={"backend": "threaded"},
    )
    assert np.allclose(got, ref)


def test_game_of_life_glider_crosses_boundaries():
    g = glider((12, 12), top=4, left=4)
    ref = g.copy()
    for _ in range(12):
        ref = life_step_global(ref)
    got = run_distributed((2, 2), g, lambda arr: life_step_local(arr, 1), 12)
    assert np.array_equal(got, ref)


def test_interior_view_and_error_metric(rng):
    g = rng.random((8, 8))
    topo = CartTopology((2, 2))
    decomp = GridDecomposition(topo, g.shape)
    blocks = decomp.scatter(g)

    def fn(cart):
        st = DistributedStencil(
            cart, decomp, blocks[cart.rank],
            lambda arr: arr[1:-1, 1:-1],  # identity kernel
            depth=1,
        )
        assert np.array_equal(st.interior, blocks[cart.rank])
        assert st.local_error(g) == 0.0
        st.step()
        assert st.iterations == 1
        return st.local_error(g)

    errs = run_cartesian((2, 2), NBH, fn)
    assert all(e == 0.0 for e in errs)


def test_wrong_initial_shape_rejected():
    topo = CartTopology((2, 2))
    decomp = GridDecomposition(topo, (8, 8))

    def fn(cart):
        DistributedStencil(
            cart, decomp, np.zeros((3, 3)), lambda a: a, depth=1
        )

    with pytest.raises(Exception, match="decomposed shape"):
        run_cartesian((2, 2), NBH, fn)


def test_halo_exchange_only(rng):
    """exchange_halos fills the ghost frame correctly without stepping."""
    topo = CartTopology((2, 2))
    g = rng.integers(0, 100, (8, 8)).astype(np.float64)
    decomp = GridDecomposition(topo, g.shape)
    blocks = decomp.scatter(g)
    padded = np.pad(g, 1, mode="wrap")

    def fn(cart):
        st = DistributedStencil(
            cart, decomp, blocks[cart.rank], lambda a: a[1:-1, 1:-1], depth=1
        )
        st.exchange_halos()
        sl = decomp.local_slices(cart.rank)
        expect = padded[sl[0].start : sl[0].stop + 2,
                        sl[1].start : sl[1].stop + 2]
        return np.array_equal(st.grid, expect)

    assert all(run_cartesian((2, 2), NBH, fn))


@pytest.mark.parametrize("halo", ["per-neighbor", "combined"])
def test_no_exchange_after_free(halo, rng):
    """``free()`` hands the halo handle's scratch back; a later
    exchange is refused instead of running on memory it no longer owns
    (the combined handle has no scratch at all and is refused alike)."""
    from repro.mpisim.exceptions import MpiSimError

    topo = CartTopology((2, 2))
    decomp = GridDecomposition(topo, (8, 8))
    blocks = decomp.scatter(rng.random((8, 8)))

    def fn(cart):
        st = DistributedStencil(
            cart, decomp, blocks[cart.rank], lambda a: a[1:-1, 1:-1],
            halo=halo,
        )
        st.step()
        st.free()
        st.free()
        with pytest.raises(MpiSimError, match="after free"):
            st.step()
        return st.iterations

    assert run_cartesian((2, 2), NBH, fn) == [1] * 4
