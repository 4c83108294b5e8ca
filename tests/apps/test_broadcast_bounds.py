"""All-to-all broadcast on k-ary n-tori vs. the Jung & Sakho optimality
bounds (arXiv:0909.1374), through the V601–V603 verifier codes.

Positive direction: both library algorithms sit on the optimal-volume
frontier (``p − 1`` block-sends per process) and respect the
knowledge-doubling startup bound on every torus tried; the combining
schedule additionally achieves the dimension-ordered round optimum
``Σ_k (d_k − 1)``.  Negative direction: a partial neighborhood and a
truncated schedule are rejected with the right codes.
"""

from __future__ import annotations

import math

import pytest

from repro.apps import (
    AllToAllBroadcast,
    broadcast_schedule,
    verify_broadcast_optimality,
)
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.trivial import build_trivial_allgather_schedule
from repro.mpisim.datatypes import BlockRef, BlockSet

TORI = [(2, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (5,)]


@pytest.mark.parametrize("dims", TORI, ids=str)
@pytest.mark.parametrize("algorithm", ["combining", "trivial", "direct"])
def test_library_schedules_meet_the_bounds(dims, algorithm):
    p = math.prod(dims)
    sched = broadcast_schedule(dims, 64, algorithm)
    report = verify_broadcast_optimality(sched, dims)
    assert report.ok, report.summary()
    assert report.checks_run == ["coverage", "volume-optimum", "round-bounds"]
    # the exact round/volume counts behind the OK:
    assert sched.volume_blocks == p - 1
    assert sched.num_rounds >= math.ceil(math.log2(p))
    if algorithm == "combining":
        assert sched.num_rounds == sum(d - 1 for d in dims)
    elif algorithm == "trivial":
        assert sched.num_rounds == p - 1


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)], ids=str)
def test_combining_beats_trivial_on_rounds(dims):
    p = math.prod(dims)
    combining = broadcast_schedule(dims, 64, "combining")
    trivial = broadcast_schedule(dims, 64, "trivial")
    assert combining.num_rounds < trivial.num_rounds == p - 1
    # same volume: the round savings are free in block-sends
    assert combining.volume_blocks == trivial.volume_blocks == p - 1


def test_partial_neighborhood_fails_coverage_and_volume():
    """A Moore allgather is a fine stencil collective but *not* an
    all-to-all broadcast on a 4×4 torus: 9 of 16 processes reached."""
    dims = (4, 4)
    nbh = moore_neighborhood(2, 1, include_self=True)
    sched = build_trivial_allgather_schedule(
        nbh,
        BlockSet([BlockRef("send", 0, 8)]),
        uniform_block_layout([8] * nbh.t, "recv"),
    )
    report = verify_broadcast_optimality(sched, dims)
    assert not report.ok
    assert {"V601", "V602"} <= report.codes()
    with pytest.raises(Exception, match="V601"):
        report.raise_if_failed()


def test_truncated_schedule_fails_round_bound():
    """Dropping phases from the combining schedule must trip the
    ⌈log₂ p⌉ startup bound (V603) and the volume optimum (V602)."""
    sched = broadcast_schedule((4, 4), 8, "combining")
    sched.phases = sched.phases[:1]  # 3 of 6 rounds < ceil(log2 16) = 4
    report = verify_broadcast_optimality(sched, (4, 4))
    assert {"V602", "V603"} <= report.codes()


def test_dimensionality_mismatch_is_v601():
    sched = broadcast_schedule((2, 2), 8, "trivial")
    report = verify_broadcast_optimality(sched, (4,))
    assert report.codes() == {"V601"}


def test_ring_broadcast_end_to_end():
    """1-D torus (ring): the degenerate case where combining and trivial
    coincide in rounds; both certify against the oracle."""
    app = AllToAllBroadcast((5,), block=4, iterations=2, seed=8)
    for algorithm in ("combining", "trivial"):
        run = app.run(backend="threaded", algorithm=algorithm)
        app.check_against_oracle(run)


def test_run_round_accounting_matches_schedule_metrics():
    """The OpStats a run reports are exactly the schedule's metrics
    times (ranks × sweeps) — the bridge between the app-level gate and
    the per-schedule bounds above."""
    dims, iterations, block = (3, 3), 2, 4
    p = math.prod(dims)
    app = AllToAllBroadcast(dims, block=block, iterations=iterations, seed=1)
    sched = broadcast_schedule(dims, block * 8, "combining")
    run = app.run(backend="lockstep", algorithm="combining")
    assert run.stats.total_rounds == p * iterations * sched.num_rounds
    rec = run.stats.by_operation("allgather")["combining"]
    assert rec.volume_blocks == p * iterations * sched.volume_blocks


def test_audit_is_built_once_per_key_and_gates_every_run(monkeypatch):
    """``run`` audits each ``(dims, block bytes, algorithm)`` once per
    process, and still refuses every run whose cached report failed."""
    from repro.analyze.report import ScheduleValidationError
    from repro.apps import broadcast

    built = []

    def planted(schedule, dims):
        built.append(dims)
        report = verify_broadcast_optimality(schedule, dims)
        report.add("V602", "planted violation")
        return report

    monkeypatch.setattr(broadcast, "verify_broadcast_optimality", planted)
    broadcast._audit.cache_clear()
    try:
        app = AllToAllBroadcast((2, 2), block=3, iterations=1)
        for _ in range(2):
            with pytest.raises(ScheduleValidationError, match="planted"):
                app.run(backend="threaded")
        assert built == [(2, 2)]
    finally:
        monkeypatch.undo()
        broadcast._audit.cache_clear()
    assert app.optimality_report("combining").ok
