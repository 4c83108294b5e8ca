"""Distributed Jacobi Poisson solver vs the direct dense solve."""

import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.stencil.decomp import GridDecomposition
from repro.stencil.solvers import jacobi_poisson_2d, poisson_reference_2d

NBH = moore_neighborhood(2, 1, include_self=False)


def solve_distributed(dims, f_global, info=None, **kwargs):
    topo = CartTopology(dims, periods=[False, False])
    decomp = GridDecomposition(topo, f_global.shape)
    blocks = decomp.scatter(f_global)

    def fn(cart):
        res = jacobi_poisson_2d(
            cart, decomp, blocks[cart.rank], **kwargs
        )
        return res

    results = run_cartesian(
        dims, NBH, fn, periods=(False, False), info=info, timeout=300
    )
    solution = decomp.gather([r.local_solution for r in results])
    return solution, results


class TestSolver:
    def test_matches_direct_solve(self, rng):
        f = rng.random((8, 8))
        ref = poisson_reference_2d(f)
        got, results = solve_distributed(
            (2, 2), f, tol=1e-9, max_iterations=5000
        )
        assert all(r.converged for r in results)
        assert np.allclose(got, ref, atol=1e-6)

    def test_residual_consistent_across_ranks(self, rng):
        f = rng.random((6, 6))
        _, results = solve_distributed((2, 2), f, tol=1e-7)
        residuals = {round(r.residual, 12) for r in results}
        iterations = {r.iterations for r in results}
        assert len(residuals) == 1  # the allreduce agrees everywhere
        assert len(iterations) == 1

    def test_combined_halo_variant(self, rng):
        f = rng.random((8, 8))
        ref = poisson_reference_2d(f)
        got, results = solve_distributed(
            (2, 2), f, tol=1e-9, max_iterations=5000, halo="combined"
        )
        assert all(r.converged for r in results)
        assert np.allclose(got, ref, atol=1e-6)

    def test_uneven_decomposition(self, rng):
        """Per-rank layouts: only the threaded backend runs them."""
        f = rng.random((7, 9))
        ref = poisson_reference_2d(f)
        got, results = solve_distributed(
            (2, 3), f, info={"backend": "threaded"}, tol=1e-9,
            max_iterations=8000,
        )
        assert all(r.converged for r in results)
        assert np.allclose(got, ref, atol=1e-5)

    def test_iteration_cap_reported(self, rng):
        f = rng.random((8, 8))
        _, results = solve_distributed(
            (2, 2), f, tol=1e-14, max_iterations=20
        )
        assert all(not r.converged for r in results)
        assert all(r.iterations == 20 for r in results)

    def test_grid_spacing(self, rng):
        """Scaling f and h consistently scales the solution: u(h) solves
        −Δ_h u = f with Δ_h = Δ/h²; so u(h) = h²·u(1)."""
        f = rng.random((6, 6))
        u1, _ = solve_distributed((2, 2), f, h=1.0, tol=1e-10,
                                  max_iterations=6000)
        u2, _ = solve_distributed((2, 2), f, h=2.0, tol=1e-10,
                                  max_iterations=6000)
        assert np.allclose(u2, 4.0 * u1, atol=1e-5)

    def test_periodic_topology_rejected(self, rng):
        topo = CartTopology((2, 2))
        decomp = GridDecomposition(topo, (4, 4))

        def fn(cart):
            jacobi_poisson_2d(cart, decomp, np.zeros((2, 2)))

        with pytest.raises(Exception, match="non-periodic"):
            run_cartesian((2, 2), NBH, fn, timeout=60)


class TestReference:
    def test_reference_satisfies_equation(self, rng):
        f = rng.random((5, 5))
        u = poisson_reference_2d(f)
        padded = np.pad(u, 1)
        lap = (
            padded[:-2, 1:-1] + padded[2:, 1:-1]
            + padded[1:-1, :-2] + padded[1:-1, 2:]
            - 4 * u
        )
        assert np.allclose(-lap, f)
