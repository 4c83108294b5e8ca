"""Qualitative reproduction claims for Figures 3–7 and Table 2.

Absolute numbers are modeled; what must hold is the paper's *shape*:
who wins, roughly by how much, and where the trends go.  Repetitions
are reduced to keep the suite fast; ``python -m repro.experiments`` runs
the full counts.
"""

import numpy as np
import pytest

from repro.core.alltoall_schedule import (
    build_alltoall_schedule,
    build_trivial_alltoall_blocksets,
)
from repro.core.backend import LockstepBackend
from repro.core.stencils import parameterized_stencil
from repro.core.topology import CartTopology
from repro.experiments import figure6, figure7, figures345, table2
from repro.experiments.figure6 import alltoallv_block_sizes
from repro.experiments.runner import INT_BYTES, repetitions_for
from repro.netsim.machines import get_machine
from repro.stats.distributions import dispersion_ratio

REPS = 10


@pytest.fixture(scope="module")
def fig3():
    return figures345.run(3, repetitions=REPS)


@pytest.fixture(scope="module")
def fig4():
    return figures345.run(4, repetitions=REPS)


@pytest.fixture(scope="module")
def fig5():
    return figures345.run(5, repetitions=REPS)


class TestFigure3Shape:
    def test_combining_wins_small_blocks_everywhere(self, fig3):
        for (d, n), _ in [((3, 3), 0), ((3, 5), 0), ((5, 3), 0), ((5, 5), 0)]:
            point = fig3.points[(d, n, 1)]
            assert point.relative["Cart_alltoall"] < 1.0, (d, n)

    def test_advantage_grows_with_neighborhood_size(self, fig3):
        r33 = fig3.points[(3, 3, 1)].relative["Cart_alltoall"]
        r55 = fig3.points[(5, 5, 1)].relative["Cart_alltoall"]
        assert r55 < r33

    def test_combining_advantage_shrinks_with_block_size(self, fig3):
        for d, n in [(3, 3), (3, 5), (5, 3)]:
            rel = [
                fig3.points[(d, n, m)].relative["Cart_alltoall"]
                for m in (1, 10, 100)
            ]
            assert rel[0] < rel[1] < rel[2], (d, n, rel)

    def test_trivial_factor_two_to_three_slower(self, fig3):
        """Paper: the blocking trivial algorithm is ~2-3x slower than the
        library baseline (outside the pathological regime)."""
        for d, n in [(3, 3), (3, 5), (5, 3)]:
            rel = fig3.points[(d, n, 1)].relative[
                "Cart_alltoall (trivial, blocking)"
            ]
            assert 1.3 < rel < 4.0, (d, n, rel)

    def test_pathological_baseline_at_d5n5(self, fig3):
        """The 165 ms Open MPI blow-up: baseline absolute time huge and
        flat in m; Cartesian library orders of magnitude faster."""
        for m in (1, 10, 100):
            point = fig3.points[(5, 5, m)]
            assert point.absolute_ms(point.baseline) > 100.0
            assert point.relative["Cart_alltoall"] < 0.1
            assert point.relative["Cart_alltoall (trivial, blocking)"] < 0.1

    def test_small_neighborhood_baseline_sane(self, fig3):
        """d3n3 m1 baseline is tens of microseconds (paper: 25 us)."""
        point = fig3.points[(3, 3, 1)]
        assert 0.005 < point.absolute_ms(point.baseline) < 0.2


class TestFigure4Shape:
    def test_blocking_and_nonblocking_on_par(self, fig4):
        """Paper: 'For Intel MPI, blocking and non-blocking neighborhood
        collectives are on par' (outside the pathology)."""
        for d, n in [(3, 3), (3, 5), (5, 3)]:
            for m in (1, 10, 100):
                rel = fig4.points[(d, n, m)].relative["MPI_Ineighbor_alltoall"]
                assert 0.8 < rel < 1.25, (d, n, m, rel)

    def test_pathology_on_both_entry_points(self, fig4):
        """t = 3125: Intel MPI blows up like Open MPI, blocking or not,
        and message combining is far ahead."""
        point = fig4.points[(5, 5, 1)]
        assert point.absolute_ms("MPI_Neighbor_alltoall") > 100
        assert point.absolute_ms("MPI_Ineighbor_alltoall") > 100
        assert point.relative["Cart_alltoall"] < 0.05

    def test_combining_wins_small_blocks_everywhere(self, fig4):
        for (d, n, m), point in fig4.points.items():
            if m == 1:
                assert point.relative["Cart_alltoall"] < 1.0, (d, n)


class TestFigure5Shape:
    def test_no_pathology_on_cray(self, fig5):
        point = fig5.points[(5, 5, 1)]
        # large but not absurd: the d5n5 baseline stays within ~100x of
        # d3n3 instead of the 5000x hydra blow-up
        small = fig5.points[(3, 3, 1)].absolute_ms(point.baseline)
        big = point.absolute_ms(point.baseline)
        assert big / small < 200

    def test_combining_wins_at_m100_d5n5(self, fig5):
        """Paper: 'improvement ... of a factor of 3 for d=5, n=5 with
        m=100' — we require a clear win (factor >= 1.5)."""
        rel = fig5.points[(5, 5, 100)].relative["Cart_alltoall"]
        assert rel < 0.67, rel

    def test_combining_wins_everywhere_on_titan(self, fig5):
        for (d, n, m), point in fig5.points.items():
            assert point.relative["Cart_alltoall"] < 1.0, (d, n, m)

    def test_trivial_modestly_slower(self, fig5):
        for (d, n, m), point in fig5.points.items():
            rel = point.relative["Cart_alltoall (trivial, blocking)"]
            assert 1.0 < rel < 5.0, (d, n, m, rel)


def test_full_scale_lockstep_correctness():
    """The correctness half of Figure 5's full-scale claim: the d=3, n=3
    combining schedule moves real bytes for all 16384 Titan ranks of
    (32, 32, 16) on the per-rank walk."""
    topo = CartTopology((32, 32, 16))
    nbh = parameterized_stencil(3, 3, -1)
    m = 4
    sched = build_alltoall_schedule(
        nbh, *build_trivial_alltoall_blocksets([m] * nbh.t)
    )
    fill = (np.arange(topo.size)[:, None] + np.arange(nbh.t)) % 251
    send = np.repeat(fill, m, axis=1).astype(np.uint8)
    bufs = [
        {"send": send[r], "recv": np.zeros(nbh.t * m, np.uint8)}
        for r in range(topo.size)
    ]
    LockstepBackend().execute_all(topo, sched, bufs)
    for r in np.random.default_rng(5).integers(0, topo.size, 32):
        for i, off in enumerate(nbh):
            src = topo.translate(int(r), tuple(-o for o in off))
            assert (bufs[r]["recv"][i * m : (i + 1) * m] == (src + i) % 251).all()


class TestFigure6Shape:
    @pytest.fixture(scope="class")
    def fig6(self):
        return figure6.run(repetitions=REPS)

    def test_allgather_combining_beats_trivial_by_about_three(self, fig6):
        """Paper: factor ~3 at m=100."""
        point = fig6.allgather[100]
        factor = (
            point.relative["Cart_allgather (trivial, blocking)"]
            / point.relative["Cart_allgather"]
        )
        assert 1.5 < factor < 8.0, factor

    def test_allgather_combining_wins_at_all_block_sizes(self, fig6):
        """V_combining == V_trivial while rounds shrink exponentially:
        combining never loses, regardless of m."""
        for m, point in fig6.allgather.items():
            assert (
                point.relative["Cart_allgather"]
                < point.relative["Cart_allgather (trivial, blocking)"]
            ), m

    def test_alltoallv_combining_wins_big(self, fig6):
        """Paper: a factor-6 improvement at m=10 on Titan; require a
        clear multi-x win."""
        for m, point in fig6.alltoallv.items():
            assert point.relative["Cart_alltoallv"] < 0.4, m

    def test_block_size_rule(self):
        """m(d−z) ints per neighbor, zero for the self block."""
        sizes = alltoallv_block_sizes(2, 3, 5)
        from repro.core.stencils import parameterized_stencil

        nbh = parameterized_stencil(2, 3, -1)
        for s, z in zip(sizes, nbh.hops):
            if z == 0:
                assert s == 0
            else:
                assert s == 5 * (2 - z) * INT_BYTES


class TestFigure7Shape:
    @pytest.fixture(scope="class")
    def fig7(self):
        return figure7.run(repetitions=150)

    def test_large_scale_more_dispersed(self, fig7):
        small = dispersion_ratio(fig7.samples["128x16"])
        large = dispersion_ratio(fig7.samples["1024x16"])
        assert large > 2 * small, (small, large)

    def test_large_scale_heavier_tail(self, fig7):
        small = np.asarray(fig7.samples["128x16"])
        large = np.asarray(fig7.samples["1024x16"])
        tail_s = np.percentile(small, 90) / np.median(small)
        tail_l = np.percentile(large, 90) / np.median(large)
        assert tail_l > 2 * tail_s

    def test_medians_same_order(self, fig7):
        """The noise moves the tail, not the bulk."""
        assert np.median(fig7.samples["1024x16"]) < 5 * np.median(
            fig7.samples["128x16"]
        )

    def test_seed_stability(self):
        """The sampled distributions are deterministic per seed."""
        a = figure7.run(seed=11, repetitions=60)
        b = figure7.run(seed=11, repetitions=60)
        for scale in a.samples:
            assert np.array_equal(a.samples[scale], b.samples[scale])

    def test_render_outputs_histograms(self, fig7):
        text = figure7.render(fig7)
        assert "128x16" in text and "1024x16" in text
        assert "dispersion" in text


class TestRepetitionCounts:
    def test_paper_counts_hydra(self):
        m = get_machine("hydra-openmpi")
        assert repetitions_for(m, 1) == 100
        assert repetitions_for(m, 10) == 30
        assert repetitions_for(m, 100) == 10

    def test_paper_counts_titan(self):
        m = get_machine("titan-craympi")
        assert repetitions_for(m, 1) == 300
        assert repetitions_for(m, 10) == 50
        assert repetitions_for(m, 100) == 40


class TestRendering:
    def test_figure3_render(self, fig3):
        text = figures345.render(fig3)
        assert "Figure 3" in text
        assert "MPI_Neighbor_alltoall" in text

    def test_table2_main(self, capsys):
        table2.main()
        out = capsys.readouterr().out
        assert "Hydra" in out and "Titan" in out and "OmniPath" in out
