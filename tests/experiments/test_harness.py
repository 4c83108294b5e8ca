"""Experiment-harness plumbing: tables, ascii plots, runner internals."""

import pytest

from repro.core.stencils import parameterized_stencil
from repro.experiments.asciiplot import bar_chart, text_histogram
from repro.experiments.runner import (
    INT_BYTES,
    alltoall_variants,
    allgather_variants,
    measure_schedule,
)
from repro.experiments.tables import format_table, to_csv, write_csv
from repro.netsim.machines import get_machine


class TestTables:
    def test_format_basic(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xy", 0.001]])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table\n========")

    def test_float_formatting(self):
        text = format_table(["v"], [[1234567.0], [0.0000001], [0.0], [1.5]])
        assert "1.235e+06" in text
        assert "1.000e-07" in text
        assert "1.500" in text

    def test_csv(self):
        csv = to_csv(["a", "b"], [[1, "x"], [2, "y"]])
        assert csv.splitlines() == ["a,b", "1,x", "2,y"]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["h"], [[1], [2]])
        assert path.read_text().splitlines() == ["h", "1", "2"]


class TestAsciiPlots:
    def test_bar_chart_scales(self):
        text = bar_chart({"a": 1.0, "bb": 2.0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_bar_chart_reference_marker(self):
        text = bar_chart({"a": 0.5}, width=10, reference=1.0)
        assert "|" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_bar_chart_title_and_unit(self):
        text = bar_chart({"a": 3.0}, title="T", unit="ms")
        assert text.startswith("T\n")
        assert "3ms" in text

    def test_histogram_bins(self):
        text = text_histogram([1.0] * 10 + [5.0] * 5, bins=4, width=20)
        assert text.count("[") == 4
        assert "n=15" in text

    def test_histogram_empty(self):
        assert text_histogram([]) == "(no data)"


class TestRunner:
    def test_variant_names(self):
        nbh = parameterized_stencil(2, 3, -1)
        names = [v.name for v in alltoall_variants(nbh, [4] * nbh.t)]
        assert names == [
            "MPI_Neighbor_alltoall",
            "MPI_Ineighbor_alltoall",
            "Cart_alltoall (trivial, blocking)",
            "Cart_alltoall",
        ]
        names = [v.name for v in allgather_variants(nbh, 4)]
        assert names[0] == "MPI_Neighbor_allgather"

    def test_measure_point_structure(self):
        nbh = parameterized_stencil(2, 3, -1)
        machine = get_machine("hydra-openmpi")
        point = measure_schedule(
            alltoall_variants(nbh, [INT_BYTES] * nbh.t),
            machine,
            64,
            label="unit",
            repetitions=5,
        )
        assert point.baseline == "MPI_Neighbor_alltoall"
        assert point.relative[point.baseline] == 1.0
        assert set(point.stats) == set(point.relative)
        assert point.absolute_ms(point.baseline) > 0

    def test_custom_baseline(self):
        nbh = parameterized_stencil(2, 3, -1)
        machine = get_machine("titan-craympi")
        point = measure_schedule(
            alltoall_variants(nbh, [INT_BYTES] * nbh.t),
            machine,
            64,
            repetitions=5,
            baseline="Cart_alltoall",
        )
        assert point.relative["Cart_alltoall"] == 1.0

    def test_deterministic_per_seed(self):
        nbh = parameterized_stencil(2, 3, -1)
        machine = get_machine("titan-craympi")
        kwargs = dict(repetitions=5, seed=3)
        a = measure_schedule(
            alltoall_variants(nbh, [4] * nbh.t), machine, 64, **kwargs
        )
        b = measure_schedule(
            alltoall_variants(nbh, [4] * nbh.t), machine, 64, **kwargs
        )
        assert a.stats["Cart_alltoall"].mean == b.stats["Cart_alltoall"].mean


class TestCertification:
    """measure_schedule can execution-certify every schedule it times."""

    def test_certify_backend_param(self):
        nbh = parameterized_stencil(2, 3, -1)
        machine = get_machine("hydra-openmpi")
        point = measure_schedule(
            alltoall_variants(nbh, [INT_BYTES] * nbh.t),
            machine,
            64,
            repetitions=3,
            certify_backend="lockstep",
        )
        assert point.absolute_ms(point.baseline) > 0
        point = measure_schedule(
            allgather_variants(nbh, INT_BYTES),
            machine,
            64,
            repetitions=3,
            certify_backend="lockstep",
        )
        assert point.absolute_ms(point.baseline) > 0

    def test_certify_process_default(self, monkeypatch):
        """What the CLI's ``--certify-backend`` sets."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "CERTIFY_BACKEND", "lockstep")
        nbh = parameterized_stencil(2, 2, -1)
        point = measure_schedule(
            alltoall_variants(nbh, [4] * nbh.t),
            get_machine("hydra-openmpi"),
            64,
            repetitions=3,
        )
        assert point.absolute_ms(point.baseline) > 0

    def test_certify_rejects_wrong_delivery(self):
        from repro.core.schedule import uniform_block_layout
        from repro.core.trivial import build_trivial_alltoall_schedule
        from repro.experiments.runner import Variant
        from repro.mpisim.exceptions import ScheduleError

        nbh = parameterized_stencil(2, 2, -1)
        send = uniform_block_layout([4] * nbh.t, "send")
        recv = uniform_block_layout([4] * nbh.t, "recv")
        # deliver every block into the wrong slot: valid schedule shape,
        # wrong alltoall semantics — certification must refuse to time it
        broken = build_trivial_alltoall_schedule(nbh, send, recv[::-1])
        with pytest.raises(ScheduleError, match="verification failed"):
            measure_schedule(
                [Variant("broken", lambda: broken, "cart")],
                get_machine("hydra-openmpi"),
                64,
                repetitions=3,
                certify_backend="lockstep",
            )
