"""Cross-backend differential certification of the application workloads.

Every app runs the same problem instance on every registered execution
backend with both collective algorithms and must reproduce the
sequential oracle **bit for bit** — output arrays and aux arrays alike.
The same runs also pin down the multi-iteration observability contract:
one schedule-cache lookup per rank at ``*_init`` time, and plan reuse
for every execution after the first iteration.

Shapes here are SPMD-uniform (grids divisible by the process grid) so
the all-ranks backends — which derive every rank's layout from the same
schedule — apply; the Hypothesis property test covers ragged shapes on
the per-rank backend.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.apps import (
    APP_ALGORITHMS,
    AllToAllBroadcast,
    CannonMatmul,
    GameOfLife,
    WeightedStencil,
    registered_backends,
)
from repro.core.backend import get_backend
from repro.stencil.kernels import heat_weights, jacobi_weights_9pt

#: the two executors and the two aliases of ``batched``
BACKENDS = ["threaded", "lockstep", "batched", "shm"]

#: app name -> (factory, process count).  Fresh instance per test so a
#: tampered run can never poison another case's oracle cache.
APP_CASES = {
    "life": (lambda: GameOfLife.random((18, 24), (3, 3), 4, seed=11), 9),
    "cannon": (lambda: CannonMatmul(12, 18, 24, 3, seed=11), 9),
    "broadcast": (
        lambda: AllToAllBroadcast((3, 3), block=7, iterations=3, seed=11),
        9,
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", APP_ALGORITHMS)
@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_app_matches_oracle_bit_for_bit(name, algorithm, backend):
    factory, p = APP_CASES[name]
    app = factory()
    run = app.run(backend=backend, algorithm=algorithm)
    app.check_against_oracle(run)

    s = run.stats
    assert run.backend == get_backend(backend).name and run.algorithm == algorithm
    # one collective per rank per iteration
    assert s.total_calls == p * run.iterations
    # persistent init: one schedule-cache lookup per rank.  The
    # process-wide cache may be warm from an earlier test, so at most
    # one rank can miss (single-flight build).
    assert s.cache_hits + s.cache_misses == p
    assert s.cache_misses <= 1
    # every execution looks up a lowered plan; from iteration 2 on the
    # plan cache must hit (schedule and buffers never change).
    assert s.plan_hits + s.plan_misses == s.total_calls
    assert s.plan_hits >= p * (run.iterations - 1)


@pytest.mark.parametrize("backend", ["threaded", "lockstep"])
def test_life_mesh_boundaries(backend):
    """Non-periodic axes (trivial algorithm: combining needs the torus)
    reproduce the dead-cell boundary of the reference."""
    app = GameOfLife.random(
        (16, 18), (2, 3), 4, periods=(False, True), seed=3
    )
    run = app.run(backend=backend, algorithm="trivial")
    app.check_against_oracle(run)


@pytest.mark.parametrize("backend", ["threaded", "lockstep", "batched"])
def test_cannon_block_cyclic_layout(backend):
    """The cyclic row/column distribution (block-cyclic global mapping)
    is still bit-exact — the shift pattern never sees the layout."""
    app = CannonMatmul(12, 12, 16, 2, cyclic=True, seed=5)
    run = app.run(backend=backend, algorithm="combining")
    app.check_against_oracle(run)


def test_certify_runs_the_whole_matrix():
    app = AllToAllBroadcast((2, 2), block=3, iterations=2, seed=2)
    backends = registered_backends()
    runs = app.certify()
    assert set(runs) == {
        (b, a) for b in backends for a in APP_ALGORITHMS
    }


def test_backend_runs_agree_with_each_other():
    """Transitivity made explicit: all backends produced the same bytes,
    not merely oracle-equal outputs."""
    app = CannonMatmul(8, 8, 8, 2, seed=9)
    runs = [
        app.run(backend=b, algorithm="trivial")
        for b in ("threaded", "lockstep", "batched")
    ]
    blobs = {r.output.tobytes() for r in runs}
    assert len(blobs) == 1


def test_a_wrong_life_kernel_fails_certification(monkeypatch):
    """The Life oracle is the ``np.roll`` step, not the kernel the ranks
    run: a kernel that also births cells with six neighbours (HighLife)
    is refused."""
    import numpy as np

    from repro.apps import AppCertificationError, life
    from repro.stencil.kernels import life_step_local, weighted_stencil_local

    ring = {(dx, dy): 1 for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy}

    def highlife(grid, depth=1):
        out = life_step_local(grid, depth)
        neighbours = weighted_stencil_local(grid.astype(np.int64), ring, depth)
        dead = grid[depth:-depth, depth:-depth] == 0
        return out | ((neighbours == 6) & dead).astype(out.dtype)

    monkeypatch.setattr(life, "life_step_local", highlife)
    app = GameOfLife.random((18, 24), (3, 3), 4, seed=11)
    with pytest.raises(AppCertificationError, match="diverges"):
        app.check_against_oracle(app.run(backend="threaded"))


def _weighted(grid, dims, weights, periods, boundary_value=0.0):
    rng = np.random.default_rng(11)
    return lambda: WeightedStencil(
        rng.random(grid), dims, weights, 3,
        periods=periods, boundary_value=boundary_value,
    )


#: weighted-stencil case -> factory: a torus, a mesh and mixed periods,
#: in 2-D and 3-D (9-point Jacobi and heat weights, warm and cold walls)
WEIGHTED_CASES = {
    "torus-2d": _weighted((12, 12), (3, 2), jacobi_weights_9pt(), (True, True)),
    "mesh-2d": _weighted((12, 12), (3, 2), heat_weights(2, 0.15), (False, False), 50.0),
    "mixed-2d": _weighted((12, 12), (3, 2), jacobi_weights_9pt(), (True, False), 2.0),
    "torus-3d": _weighted((6, 6, 8), (2, 2, 2), heat_weights(3), (True,) * 3),
    "mesh-3d": _weighted((6, 6, 8), (2, 2, 2), heat_weights(3), (False,) * 3, 50.0),
    "mixed-3d": _weighted((6, 6, 8), (2, 2, 2), heat_weights(3), (False, True, False)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case, algorithm",
    [
        (case, algorithm)
        for case in sorted(WEIGHTED_CASES)
        for algorithm in ("combining", "trivial", "combined")
        # combining schedules need the full torus
        if algorithm != "combining" or case.startswith("torus")
    ],
)
def test_weighted_stencil_matches_oracle_bit_for_bit(case, algorithm, backend):
    app = WEIGHTED_CASES[case]()
    run = app.run(backend=backend, algorithm=algorithm)
    app.check_against_oracle(run)

    s, p = run.stats, int(np.prod(app.dims))
    assert s.total_calls == p * run.iterations
    assert s.plan_hits + s.plan_misses == s.total_calls
    assert s.plan_hits >= p * (run.iterations - 1)
    assert run.driver.startswith("rows" if backend != "threaded" else "spmd")


@pytest.mark.parametrize("periods", [(True,) * 3, (False, True, False)])
def test_weighted_rows_at_p64_equal_the_oracle(periods):
    """64 rank rows stepped by one stacked kernel call, bit for bit the
    oracle's grid, on a torus and on a mesh."""
    app = _weighted((16, 16, 8), (4, 4, 4), heat_weights(3), periods, 50.0)()
    run = app.run(backend="batched", algorithm="trivial")
    app.check_against_oracle(run)
    assert run.driver.startswith("rows: 64 ranks")


def test_a_wrong_weighted_kernel_fails_certification(monkeypatch):
    """The weighted oracle is the ``np.roll`` stencil on the padded
    grid, not the kernel the ranks run: a kernel that drops one weight
    is refused."""
    from repro.apps import AppCertificationError, weighted

    kernel = weighted.weighted_stencil_local

    def dropping(grid, weights, depth):
        return kernel(grid, dict(list(weights.items())[1:]), depth)

    monkeypatch.setattr(weighted, "weighted_stencil_local", dropping)
    app = WEIGHTED_CASES["mixed-2d"]()
    with pytest.raises(AppCertificationError, match="diverges"):
        app.check_against_oracle(app.run(backend="batched", algorithm="trivial"))
