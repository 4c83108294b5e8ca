"""Hypothesis property test: the weighted stencil app matches its
sequential oracle bit for bit on arbitrary process grids, boundary
conditions, radius-1 weights, boundary values and iteration counts.

On the per-rank threaded backend every draw runs, ragged
decompositions included; on ``batched`` a uniform draw runs the rows
driver and a ragged one is refused before any rank starts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.apps import WeightedStencil  # noqa: E402
from repro.core.plan import GLOBAL_POOL  # noqa: E402


@st.composite
def weighted_cases(draw):
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(d))
    shape = tuple(draw(st.integers(n, 3 * n + 2)) for n in dims)
    periods = tuple(draw(st.booleans()) for _ in range(d))
    offsets = draw(st.sets(st.sampled_from(list(itertools.product((-1, 0, 1), repeat=d))), min_size=1))
    weight = st.floats(-1, 1, allow_nan=False)
    weights = {off: draw(weight) for off in sorted(offsets)}
    boundary_value = draw(st.sampled_from([0.0, 1.5, -50.0]))
    iterations = draw(st.integers(0, 3))
    algorithm = draw(st.sampled_from(["trivial", "combined"] + ["combining"] * all(periods)))
    seed = draw(st.integers(0, 2**16))
    grid = np.random.default_rng(seed).random(shape)
    app = WeightedStencil(
        grid, dims, weights, iterations, periods=periods, boundary_value=boundary_value
    )
    return app, algorithm


@given(case=weighted_cases())
def test_weighted_stencil_matches_oracle_on_random_instances(case):
    app, algorithm = case
    app.check_against_oracle(app.run(backend="threaded", algorithm=algorithm))
    if any(n % k for n, k in zip(app.grid.shape, app.dims)):
        with pytest.raises(ValueError, match="backend='threaded'"):
            app.run(backend="batched", algorithm=algorithm)
    else:
        run = app.run(backend="batched", algorithm=algorithm)
        app.check_against_oracle(run)
        assert run.driver.startswith(f"rows: {int(np.prod(app.dims))} ranks")
    assert GLOBAL_POOL.stats().outstanding_bytes == 0
