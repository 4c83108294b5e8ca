"""Table 1 reproduction — exact equality with the published values —
and Proposition 3.1's schedule construction behind it."""

import time

import pytest

from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import (
    build_alltoall_schedule,
    build_trivial_alltoall_blocksets,
)
from repro.core.stencils import parameterized_stencil
from repro.experiments.table1 import (
    PAPER_VALUES,
    TABLE1_CONFIGS,
    compute_row,
    main,
    run,
)


@pytest.mark.parametrize("d,n", TABLE1_CONFIGS)
class TestRows:
    def test_t(self, d, n):
        assert compute_row(d, n).t_trivial_rounds == PAPER_VALUES[(d, n)][0]

    def test_c(self, d, n):
        assert compute_row(d, n).combining_rounds == PAPER_VALUES[(d, n)][1]

    def test_allgather_volume(self, d, n):
        assert compute_row(d, n).allgather_volume == PAPER_VALUES[(d, n)][2]

    def test_alltoall_volume(self, d, n):
        assert compute_row(d, n).alltoall_volume == PAPER_VALUES[(d, n)][3]

    def test_cutoff_ratio(self, d, n):
        assert compute_row(d, n).cutoff_ratio == pytest.approx(
            PAPER_VALUES[(d, n)][4], abs=5e-3
        )

    def test_match_flag(self, d, n):
        assert compute_row(d, n).matches_paper()


def test_run_covers_all_configs():
    rows = run()
    assert len(rows) == 12
    assert all(r.matches_paper() for r in rows)


def test_main_prints_table(capsys):
    main()
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "NO" not in out


@pytest.mark.parametrize("d,n", [(3, 3), (4, 4), (5, 3), (5, 5)])
def test_constructed_schedules_have_the_table_rounds_and_volume(d, n):
    """The built schedules — not only the closed forms — carry Table 1's
    V (alltoall) and C (allgather) up to t = 3125."""
    nbh = parameterized_stencil(d, n, -1)
    send, recv = build_trivial_alltoall_blocksets([4] * nbh.t)
    assert build_alltoall_schedule(nbh, send, recv).volume_blocks == nbh.alltoall_volume
    gathered = build_allgather_schedule(nbh, send[0], recv)
    assert gathered.num_rounds == nbh.combining_rounds


def test_construction_scaling_linear():
    """Proposition 3.1, O(td): per-neighbor construction cost flat within
    a generous factor between t=243 (d=5,n=3) and t=3125 (d=5,n=5)."""

    def per_neighbor(d, n):
        nbh = parameterized_stencil(d, n, -1)
        send, recv = build_trivial_alltoall_blocksets([4] * nbh.t)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            build_alltoall_schedule(nbh, send, recv)
            best = min(best, time.perf_counter() - t0)
        return best / nbh.t

    small, large = per_neighbor(5, 3), per_neighbor(5, 5)
    assert large < small * 8, (small, large)
