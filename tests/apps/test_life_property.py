"""Hypothesis property test: Game of Life matches its sequential
reference on *arbitrary* board sizes, process grids, boundary
conditions and iteration counts.

On the per-rank threaded backend every draw runs, ragged decompositions
(board not divisible by dims) included: their ranks have different halo
layouts, which only the per-rank execution regime supports.  On
``batched`` a uniform draw runs the rows driver and a ragged one is
refused before any rank starts.  Every example also
re-checks the pool-lifecycle invariant: no pooled scratch may stay
outstanding once a run returns (the session fixture enforces the same
at suite end; asserting per example localizes a leak to its board).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.apps import GameOfLife  # noqa: E402
from repro.core.plan import GLOBAL_POOL  # noqa: E402


@st.composite
def life_cases(draw):
    rows = draw(st.integers(3, 13))
    cols = draw(st.integers(3, 13))
    d0 = draw(st.integers(1, min(3, rows)))
    d1 = draw(st.integers(1, min(3, cols)))
    generations = draw(st.integers(0, 4))
    periods = (draw(st.booleans()), draw(st.booleans()))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.floats(0.05, 0.8))
    return rows, cols, d0, d1, generations, periods, seed, density


@given(case=life_cases())
def test_life_matches_reference_on_random_instances(case):
    rows, cols, d0, d1, generations, periods, seed, density = case
    app = GameOfLife.random(
        (rows, cols),
        (d0, d1),
        generations,
        periods=periods,
        seed=seed,
        density=density,
    )
    # combining needs the full torus; meshes take the trivial schedule
    algorithm = "combining" if all(periods) else "trivial"
    run = app.run(backend="threaded", algorithm=algorithm)
    app.check_against_oracle(run)
    assert run.iterations == generations
    assert GLOBAL_POOL.stats().outstanding_bytes == 0


@given(case=life_cases())
def test_life_on_batched_runs_as_rows_or_is_refused(case):
    rows, cols, d0, d1, generations, periods, seed, density = case
    app = GameOfLife.random(
        (rows, cols),
        (d0, d1),
        generations,
        periods=periods,
        seed=seed,
        density=density,
    )
    algorithm = "combining" if all(periods) else "trivial"
    if rows % d0 or cols % d1:
        with pytest.raises(ValueError, match="backend='threaded'"):
            app.run(backend="batched", algorithm=algorithm)
    else:
        run = app.run(backend="batched", algorithm=algorithm)
        app.check_against_oracle(run)
        assert run.driver.startswith(f"rows: {d0 * d1} ranks")
    assert GLOBAL_POOL.stats().outstanding_bytes == 0
