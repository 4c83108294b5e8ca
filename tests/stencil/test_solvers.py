"""Jacobi iteration for Poisson (the weighted-stencil app with a
source, as ``examples/poisson_solver.py`` runs it) vs the direct dense
solve."""

import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "poisson_solver",
    Path(__file__).resolve().parents[2] / "examples" / "poisson_solver.py",
)
poisson_solver = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(poisson_solver)
poisson_app = poisson_solver.poisson_app
poisson_reference_2d = poisson_solver.poisson_reference_2d


def solve_distributed(dims, f_global, iterations, h=1.0, algorithm="trivial", **run):
    app = poisson_app(f_global, dims, iterations, h)
    result = app.run(algorithm=algorithm, **run)
    app.check_against_oracle(result)
    return result.output


class TestSolver:
    def test_matches_direct_solve(self, rng):
        f = rng.random((8, 8))
        ref = poisson_reference_2d(f)
        got = solve_distributed((2, 2), f, 500, backend="batched")
        assert np.allclose(got, ref, atol=1e-6)

    def test_combined_halo_variant(self, rng):
        f = rng.random((8, 8))
        ref = poisson_reference_2d(f)
        got = solve_distributed((2, 2), f, 500, algorithm="combined")
        assert np.allclose(got, ref, atol=1e-6)

    def test_uneven_decomposition(self, rng):
        """Per-rank layouts: only the threaded backend runs them."""
        f = rng.random((7, 9))
        ref = poisson_reference_2d(f)
        got = solve_distributed((2, 3), f, 600, backend="threaded")
        assert np.allclose(got, ref, atol=1e-5)

    def test_grid_spacing(self, rng):
        """Scaling f and h consistently scales the solution: u(h) solves
        −Δ_h u = f with Δ_h = Δ/h²; so u(h) = h²·u(1)."""
        f = rng.random((6, 6))
        u1 = solve_distributed((2, 2), f, 400, h=1.0)
        u2 = solve_distributed((2, 2), f, 400, h=2.0)
        assert np.allclose(u2, 4.0 * u1, atol=1e-5)


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
