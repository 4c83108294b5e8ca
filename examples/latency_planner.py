#!/usr/bin/env python
"""Algorithm planning with the paper's cut-off rule.

For each benchmark stencil and each Table 2 machine, prints the
message-combining round/volume trade-off, the block-size cut-off
``m < (α/β) · (t − C)/(V − t)`` below which message combining beats the
trivial algorithm, and what the rule picks at four block sizes — the
decision ``algorithm="auto"`` makes, on that machine
(``MachineModel.select_algorithm``).  ``t`` counts the trivial
algorithm's rounds: the self block is a local copy, not a round, so the
cut-off here is not Table 1's ratio (which counts it).  Every pick is
checked against the printed cut-off.

Run:  python examples/latency_planner.py
"""

from repro.core.stencils import parameterized_stencil
from repro.experiments.tables import format_table
from repro.netsim.machine import cutoff_counts
from repro.netsim.machines import LIBRARY_DEFAULT, MACHINES

BLOCK_SIZES_INTS = [1, 10, 100, 1000]


def main():
    rows = []
    for d in (2, 3, 5):
        for n in (3, 5):
            nbh = parameterized_stencil(d, n, -1)
            t, C, V = cutoff_counts(nbh, "alltoall")
            for machine in MACHINES.values():
                cutoff_bytes = machine.cutoff_block_bytes(t, C, V)
                picks = [
                    machine.select_algorithm(nbh, "alltoall", m * 4)
                    for m in BLOCK_SIZES_INTS
                ]
                for m, pick in zip(BLOCK_SIZES_INTS, picks):
                    below = m * 4 < cutoff_bytes
                    assert (pick == "combining") == below, (
                        f"d={d} n={n} {machine.name}: m={m * 4} B picks "
                        f"{pick}, cut-off {cutoff_bytes:.1f} B"
                    )
                rows.append(
                    [
                        d,
                        n,
                        t,
                        C,
                        V,
                        machine.name,
                        f"{cutoff_bytes / 4:.0f} ints",
                        " / ".join(
                            f"m={m}:{p}" for m, p in zip(BLOCK_SIZES_INTS, picks)
                        ),
                    ]
                )
    print(
        format_table(
            ["d", "n", "t", "C", "V", "machine", "cutoff", "auto picks"],
            rows,
            title="alltoall algorithm selection by the cut-off rule",
        )
    )
    print(
        "\nallgather note: for these stencils the combining volume equals "
        "the trivial volume\nwhile rounds shrink exponentially, so "
        "combining wins at every block size."
    )
    print("every pick is combining iff m is below the printed cut-off")
    print(
        f"algorithm='auto' on a CartComm runs the same rule on "
        f"{LIBRARY_DEFAULT.name} (alpha = {LIBRARY_DEFAULT.alpha * 1e6:.1f} us, "
        f"1/beta = {1e-9 / LIBRARY_DEFAULT.beta:.0f} GB/s)"
    )


if __name__ == "__main__":
    main()
