"""What an app holds across runs: its communicator's layout and its
decomposition's geometry are derived once per instance, so a repeat run
on the rows driver re-derives neither.  Both are fixed at construction
(``dims``, ``periods``, ``nbh`` and the global grid)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import GameOfLife, WeightedStencil
from repro.core import schedule_cache
from repro.core.plan import GLOBAL_POOL
from repro.core.schedule import Schedule
from repro.stencil.decomp import GridDecomposition
from repro.stencil.kernels import heat_weights

#: app name -> (factory, process count)
APPS = {
    "life": (lambda: GameOfLife.random((64, 64), (4, 4), 3, seed=1), 16),
    "weighted": (
        lambda: WeightedStencil(
            np.random.default_rng(3).random((24, 24)), (3, 2), heat_weights(2, 0.1), 3
        ),
        6,
    ),
}


@pytest.fixture
def calls(monkeypatch):
    """Counts of the derivations a repeat run must not make again."""
    counts = dict.fromkeys(("validate", "global lookup", "split"), 0)

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(Schedule, "validate", "validate")
    count(schedule_cache, "get_or_build", "global lookup")
    count(GridDecomposition, "_split", "split")
    return counts


@pytest.mark.parametrize("name", sorted(APPS))
def test_second_rows_run_derives_no_layout_and_no_geometry(name, calls):
    factory, p = APPS[name]
    app = factory()
    first = app.run(backend="batched")
    calls.update(dict.fromkeys(calls, 0))
    second = app.run(backend="batched")
    assert calls == {"validate": 0, "global lookup": 0, "split": 0}
    assert second.driver == first.driver and second.driver.startswith(f"rows: {p} ranks")
    app.check_against_oracle(second)
    # every rank's bind is a level-1 hit; the rest is booked as before
    assert (second.stats.cache_hits, second.stats.cache_misses) == (p, 0)
    assert second.stats.total_calls == first.stats.total_calls == p * app.iterations
    assert second.stats.total_bytes == first.stats.total_bytes
    assert sum(second.stats.bytes_packed.values()) == sum(first.stats.bytes_packed.values())
    assert GLOBAL_POOL.stats().outstanding_bytes == 0


def test_a_cleared_schedule_cache_leaves_a_held_layout_correct():
    """The app's level 1 keeps its schedule when the process-wide cache
    drops it: the repeat run still matches the oracle."""
    app = GameOfLife.random((16, 16), (2, 2), 4, seed=7)
    app.check_against_oracle(app.run(backend="batched"))
    schedule_cache.cache_clear()
    app.check_against_oracle(app.run(backend="batched"))


def test_the_spmd_driver_still_lays_out_per_job(calls):
    """``run_cartesian`` is where Section 2.2's isomorphism check meets:
    a threaded run lays its communicator out afresh every time."""
    app = GameOfLife.random((8, 8), (2, 2), 2, seed=9)
    app.run(backend="threaded")
    calls.update(dict.fromkeys(calls, 0))
    app.check_against_oracle(app.run(backend="threaded"))
    assert calls["global lookup"] >= 1
    assert calls["split"] == 0
