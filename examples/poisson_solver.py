#!/usr/bin/env python
"""A complete distributed application: Jacobi iteration for Poisson.

Solves −Δu = f on a 12×12 grid with homogeneous Dirichlet boundaries,
block-distributed over a 2×2 non-periodic process mesh.  The Jacobi
iteration u ← (Σ neighbours + h²f) / 4 is the weighted-stencil app with
the 4-point weights {±e_k: 1/4} and the source h²f/4; every iteration
is one persistent halo exchange.  The run is certified bit for bit
against the app's serial oracle and validated against a direct dense
solve of the same discrete system.

Run:  python examples/poisson_solver.py
"""

import numpy as np

from repro.apps import WeightedStencil

DIMS = (2, 2)
GRID = (12, 12)
ITERATIONS = 2000
WEIGHTS = {(-1, 0): 0.25, (1, 0): 0.25, (0, -1): 0.25, (0, 1): 0.25}


def poisson_reference_2d(f: np.ndarray, h: float = 1.0) -> np.ndarray:
    """Direct (dense) solve of the same discrete system: the 5-point
    Laplacian with Dirichlet u = 0 outside the grid."""
    n0, n1 = f.shape
    n = n0 * n1
    A = np.zeros((n, n))
    for i in range(n0):
        for j in range(n1):
            k = i * n1 + j
            A[k, k] = 4.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n0 and 0 <= jj < n1:
                    A[k, ii * n1 + jj] = -1.0
    u = np.linalg.solve(A, (h * h) * f.reshape(-1))
    return u.reshape(n0, n1)


def poisson_app(f: np.ndarray, dims, iterations: int, h: float = 1.0) -> WeightedStencil:
    """``iterations`` Jacobi steps for −Δu = f from u = 0."""
    return WeightedStencil(
        np.zeros(f.shape), dims, WEIGHTS, iterations,
        periods=(False, False), source=(h * h / 4.0) * f,
    )


def main():
    rng = np.random.default_rng(1)
    f = np.zeros(GRID)
    f[3, 3] = 25.0   # a point source…
    f[8, 9] = -25.0  # …and a sink
    f += 0.1 * rng.random(GRID)

    app = poisson_app(f, DIMS, ITERATIONS)
    run = app.run(backend="batched", algorithm="combined")
    app.check_against_oracle(run)
    u = run.output
    print(f"{ITERATIONS} Jacobi iterations ({run.driver}), bit-equal to "
          f"the serial oracle")

    err = np.abs(u - poisson_reference_2d(f)).max()
    print(f"max |u - direct solve| = {err:.2e}")
    assert err < 1e-9

    peak = tuple(int(i) for i in np.unravel_index(np.argmax(u), u.shape))
    trough = tuple(int(i) for i in np.unravel_index(np.argmin(u), u.shape))
    print(f"potential peak at {peak} (source was (3, 3)), "
          f"trough at {trough} (sink was (8, 9))")
    print("OK")


if __name__ == "__main__":
    main()
