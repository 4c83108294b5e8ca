"""Non-periodic (Dirichlet) boundary conditions for the weighted
stencil app: boundary ghosts hold a fixed value, missing neighbors are
skipped by the exchange."""

import numpy as np
import pytest

from repro.apps import WeightedStencil
from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood
from repro.stencil.kernels import heat_weights, jacobi_weights_9pt

NBH = moore_neighborhood(2, 1, include_self=False)


def mesh(grid, weights, steps, boundary_value):
    return WeightedStencil(
        grid, (2, 2), weights, steps,
        periods=(False, False), boundary_value=boundary_value,
    )


class TestSerialReference:
    def test_dirichlet_reference_zero_boundary(self, rng):
        g = rng.random((6, 6))
        w = jacobi_weights_9pt()
        out = mesh(g, w, 1, 0.0).sequential()
        # the corner cell sees 3 in-domain neighbors; weights of the 5
        # out-of-domain ones multiply zero
        manual = (
            0.15 * g[0, 1] + 0.15 * g[1, 0] + 0.10 * g[1, 1]
        )
        assert out[0, 0] == pytest.approx(manual)

    def test_nonzero_boundary_value(self, rng):
        g = rng.random((5, 5))
        w = jacobi_weights_9pt()
        cold = mesh(g, w, 1, 0.0).sequential()
        warm = mesh(g, w, 1, 10.0).sequential()
        # boundary rows feel the warm wall, the center does not
        assert warm[0, 2] > cold[0, 2]
        assert warm[2, 2] == pytest.approx(cold[2, 2])


@pytest.mark.parametrize("halo", ["per-neighbor", "combined"])
class TestDistributedDirichlet:
    algorithm = {"per-neighbor": "trivial", "combined": "combined"}

    def test_matches_serial(self, halo, rng):
        app = mesh(rng.random((8, 8)), heat_weights(2, 0.15), 5, 0.0)
        app.check_against_oracle(app.run(algorithm=self.algorithm[halo]))

    def test_warm_wall(self, halo, rng):
        app = mesh(np.zeros((8, 8)), heat_weights(2, 0.2), 6, 50.0)
        run = app.run(algorithm=self.algorithm[halo])
        app.check_against_oracle(run)
        # heat flowed in from the walls
        assert run.output.max() > 0


class TestAutoAlgorithmOnMesh:
    def test_auto_degrades_to_trivial(self):
        def fn(cart):
            # auto on a mesh must not raise; it silently uses trivial
            t = cart.nbh.t
            send = np.zeros(t)
            recv = np.zeros(t)
            cart.alltoall(send, recv, algorithm="auto")
            return cart._resolve_algorithm("auto", "alltoall", 8)

        res = run_cartesian(
            (2, 2), NBH, fn, periods=(False, False), timeout=60
        )
        assert set(res) == {"trivial"}
