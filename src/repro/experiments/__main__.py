"""Regenerate every paper artifact from the command line.

Usage::

    python -m repro.experiments [all|table1|table2|fig3|fig4|fig5|fig6|fig7|scaling]
                                [--out DIR] [--certify-backend BACKEND]

``all`` (the default) runs everything and, with ``--out``, writes the
rendered text plus per-figure CSVs into the given directory.
``--certify-backend batched`` makes the harness execution-certify every
measured schedule on that backend before timing it, so no artifact can
be produced from a schedule that delivers wrong bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import figure6, figure7, figures345, scaling, table1, table2
from repro.experiments.tables import to_csv


def _figure_csv(result) -> str:
    any_point = next(iter(result.points.values()))
    headers = ["d", "n", "m"] + list(any_point.relative.keys())
    rows = []
    for (d, n, m), point in sorted(result.points.items()):
        rows.append([d, n, m] + [point.relative[k] for k in point.relative])
    return to_csv(headers, rows)


def run_artifact(name: str) -> tuple[str, dict[str, str]]:
    """Returns (rendered text, {csv filename: csv text})."""
    if name == "table1":
        rows = table1.run()
        from repro.experiments.tables import format_table

        body = [
            [r.d, r.n, r.t_trivial_rounds, r.combining_rounds,
             r.allgather_volume, r.alltoall_volume, round(r.cutoff_ratio, 3)]
            for r in rows
        ]
        text = format_table(
            ["d", "n", "t", "C", "Vag", "Va2a", "ratio"], body,
            title="Table 1",
        )
        csvs = {"table1.csv": to_csv(["d", "n", "t", "C", "Vag", "Va2a", "ratio"], body)}
        return text, csvs
    if name == "table2":
        rows = table2.run()
        from repro.experiments.tables import format_table

        body = [[r["name"], r["hardware"], r["mpi_library"], r["compiler"]] for r in rows]
        return (
            format_table(["Name", "Hardware", "MPI", "Compiler"], body,
                         title="Table 2"),
            {"table2.csv": to_csv(["name", "hardware", "mpi", "compiler"], body)},
        )
    if name in ("fig3", "fig4", "fig5"):
        fignum = int(name[-1])
        result = figures345.run(fignum)
        return figures345.render(result), {f"{name}.csv": _figure_csv(result)}
    if name == "fig6":
        result = figure6.run()
        text = figure6.render(result)
        csvs = {}
        for label, points in (("fig6_allgather", result.allgather),
                              ("fig6_alltoallv", result.alltoallv)):
            any_point = next(iter(points.values()))
            headers = ["m"] + list(any_point.relative.keys())
            rows = [
                [m] + [p.relative[k] for k in p.relative]
                for m, p in sorted(points.items())
            ]
            csvs[f"{label}.csv"] = to_csv(headers, rows)
        return text, csvs
    if name == "fig7":
        result = figure7.run()
        text = figure7.render(result)
        csvs = {
            "fig7_samples.csv": to_csv(
                ["scale", "time_us"],
                [
                    (scale, t)
                    for scale, samples in result.samples.items()
                    for t in samples
                ],
            )
        }
        return text, csvs
    if name == "scaling":
        res, sweep = scaling.process_scaling(), scaling.crossover_sweep()
        return scaling.render(res, sweep), {
            "scaling_procs.csv": to_csv(
                ["p", "combining_over_direct", "baseline_spread"],
                [(p, rel, spread) for p, (rel, spread) in res.by_procs.items()],
            ),
            "scaling_crossover.csv": to_csv(
                ["m_ints", "combining_over_trivial"], list(sweep["ratios"].items())
            ),
        }
    raise SystemExit(f"unknown artifact {name!r}")


ARTIFACTS = ["table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "scaling"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument("artifact", nargs="?", default="all",
                        choices=["all"] + ARTIFACTS)
    parser.add_argument("--out", default=None,
                        help="directory for rendered text + CSV results")
    parser.add_argument(
        "--certify-backend", default=None, metavar="BACKEND",
        help="execution-certify every measured schedule on this backend "
             "(batched/threaded; lockstep and shm are aliases of batched) "
             "before timing it",
    )
    args = parser.parse_args(argv)

    if args.certify_backend:
        from repro.core.backend import get_backend
        from repro.experiments import runner

        get_backend(args.certify_backend)  # fail fast on unknown names
        runner.CERTIFY_BACKEND = args.certify_backend

    names = ARTIFACTS if args.artifact == "all" else [args.artifact]
    for name in names:
        text, csvs = run_artifact(name)
        print(text)
        print()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}.txt"), "w") as fh:
                fh.write(text + "\n")
            for fname, csv in csvs.items():
                with open(os.path.join(args.out, fname), "w") as fh:
                    fh.write(csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
