"""Supplementary scaling experiment invariants."""

import math

import pytest

from repro.core.stencils import parameterized_stencil
from repro.experiments.runner import INT_BYTES
from repro.experiments.scaling import crossover_sweep, process_scaling
from repro.netsim.machine import cutoff_counts
from repro.netsim.machines import get_machine


class TestProcessScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return process_scaling(
            proc_counts=(64, 1024, 16384), repetitions=40
        )

    def test_combining_wins_at_all_scales(self, result):
        for p, (rel, _spread) in result.by_procs.items():
            assert rel < 1.0, p

    def test_deterministic_ratio_flat(self, result):
        """Appendix A's point: the algorithmic advantage is
        p-independent (schedules are rank-relative); the reported means
        stay within a small band across 256x in p."""
        ratios = [rel for rel, _ in result.by_procs.values()]
        assert max(ratios) - min(ratios) < 0.1

    def test_spread_grows_with_scale(self, result):
        spread_small = result.by_procs[64][1]
        spread_large = result.by_procs[16384][1]
        assert spread_large > spread_small


class TestCrossover:
    @pytest.fixture(scope="class")
    def sweep(self):
        return crossover_sweep()

    def test_monotone_ratio(self, sweep):
        ratios = list(sweep["ratios"].values())
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_crossover_near_predicted_cutoff(self, sweep):
        """The measured crossover block size must bracket the Table 1
        cut-off prediction within one grid factor of two (the overheads
        shift it slightly)."""
        predicted = sweep["predicted_cutoff_ints"]
        wins = [m for m, r in sweep["ratios"].items() if r < 1.0]
        loses = [m for m, r in sweep["ratios"].items() if r >= 1.0]
        assert wins and loses
        crossover_lo, crossover_hi = max(wins), min(loses)
        assert crossover_lo / 4 <= predicted <= crossover_hi * 4

    def test_predicted_cutoff_is_the_one_auto_applies(self, sweep):
        """The printed cut-off is the rule's: counted by ``cutoff_counts``
        (the self block is no round), not Table 1's self-inclusive ``t``
        (89.7 ints here), and the machine's decision flips at it."""
        machine = get_machine(sweep["machine"])
        nbh = parameterized_stencil(sweep["d"], sweep["n"], -1)
        counts = cutoff_counts(nbh, "alltoall")
        predicted = sweep["predicted_cutoff_ints"]
        assert predicted == machine.cutoff_block_bytes(*counts) / INT_BYTES
        assert round(predicted, 1) == 82.4
        cutoff_bytes = predicted * INT_BYTES
        pick = lambda m: machine.select_algorithm(nbh, "alltoall", m)  # noqa: E731
        assert pick(math.floor(cutoff_bytes)) == "combining"
        assert pick(math.ceil(cutoff_bytes)) == "trivial"

    def test_small_blocks_strong_win(self, sweep):
        assert sweep["ratios"][1] < 0.35

    @pytest.mark.parametrize("d,n", [(2, 3), (5, 3)])
    def test_other_stencils_have_a_crossover_to_report(self, d, n):
        sweep = crossover_sweep("hydra-openmpi", d, n)
        assert any(r < 1.0 for r in sweep["ratios"].values())
