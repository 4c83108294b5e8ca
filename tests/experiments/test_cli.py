"""The ``python -m repro.experiments`` command-line driver."""

import pytest

from repro.experiments.__main__ import ARTIFACTS, main, run_artifact


class TestRunArtifact:
    def test_table1(self):
        text, csvs = run_artifact("table1")
        assert "Table 1" in text
        assert "table1.csv" in csvs
        assert csvs["table1.csv"].startswith("d,n,t,C")

    def test_table2(self):
        text, csvs = run_artifact("table2")
        assert "Titan" in text
        assert "table2.csv" in csvs

    def test_fig7(self):
        text, csvs = run_artifact("fig7")
        assert "1024x16" in text
        body = csvs["fig7_samples.csv"].splitlines()
        assert body[0] == "scale,time_us"
        assert len(body) > 100

    def test_unknown(self):
        with pytest.raises(SystemExit):
            run_artifact("fig99")


class TestMain:
    def test_single_artifact_with_out(self, tmp_path, capsys):
        rc = main(["table1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.csv").exists()

    def test_invalid_choice(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_artifact_list_complete(self):
        assert ARTIFACTS == [
            "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "scaling",
        ]
        # the supplementary sweeps EXPERIMENTS.md quotes are artifacts too
        text, csvs = run_artifact("scaling")
        assert "process scaling" in text and "block-size sweep" in text
        assert csvs["scaling_procs.csv"].startswith("p,combining_over_direct")
        assert csvs["scaling_crossover.csv"].startswith("m_ints,")
