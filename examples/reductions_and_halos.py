#!/usr/bin/env python
"""The extension features in one place: Cartesian neighborhood
reductions and the combined (Section 3.4) halo exchange.

Part 1 — reductions: each process contributes its rank; a Moore-
neighborhood ``reduce_neighbors`` with op=sum computes, per process, the
sum of its eight neighbors' ranks — in C = 4 communication rounds
instead of t = 8 (the reverse of the allgather tree).

Part 2 — combined halo: the weighted-stencil app runs a 9-point Jacobi
smoothing once with the per-neighbor (Listing 3) halo and once with the
combined transitive halo; both produce identical grids, bit-equal to
the serial oracle, but the combined schedule moves the same bytes in
half the rounds (and fewer bytes than the message-combining alltoallw,
as the table shows).

Run:  python examples/reductions_and_halos.py
"""

import numpy as np

from repro import moore_neighborhood, run_cartesian
from repro.apps import WeightedStencil
from repro.core.reduce_schedule import build_reduce_schedule
from repro.core.topology import CartTopology
from repro.stencil.kernels import jacobi_weights_9pt
from repro.stencil.optimized_halo import halo_volume_comparison

DIMS = (4, 4)


def part1_reductions():
    nbh = moore_neighborhood(2, 1, include_self=False)
    topo = CartTopology(DIMS)
    sched = build_reduce_schedule(nbh)
    print(f"reduction: trivial rounds={nbh.trivial_rounds}, "
          f"tree rounds={sched.num_rounds}, volume={sched.volume_blocks}")

    def worker(cart):
        send = np.asarray([float(cart.rank)])
        recv = np.zeros(1)
        cart.reduce_neighbors(send, recv, op="sum", algorithm="combining")
        expect = sum(
            topo.translate(cart.rank, tuple(-o for o in off))
            for off in nbh
        )
        assert recv[0] == expect, (cart.rank, recv[0], expect)

        # the rest of the family rides the same compiled tree schedules:
        # reduce_scatter_block folds per-destination send blocks, and
        # the allreduce broadcasts each source's full reduction back in
        # 2C rounds (reverse tree + the forward allgather tree).
        rs_send = np.full(nbh.t, float(cart.rank))
        rs_recv = np.zeros(1)
        cart.reduce_scatter_block(rs_send, rs_recv, op="sum")
        assert rs_recv[0] == expect, (cart.rank, rs_recv[0], expect)

        ar_recv = np.zeros(nbh.t)
        cart.reduce_neighbors_allreduce(send, ar_recv, op="sum")
        return recv[0]

    sums = run_cartesian(DIMS, nbh, worker)
    print(f"neighbor-rank sums per process: {[int(s) for s in sums]}")
    print("reduce_scatter_block and neighbor allreduce certified on the "
          "same tree")


def part2_combined_halo():
    cmp = halo_volume_comparison((32, 32), 1, 8)
    print("\nhalo strategies for a 32x32 block (depth 1, doubles):")
    for name, v in cmp.items():
        print(f"  {name:24s} rounds={v['rounds']:2d}  bytes={v['bytes']}")

    grid = np.zeros((16, 16))
    grid[6:10, 6:10] = 1.0
    app = WeightedStencil(grid, DIMS, jacobi_weights_9pt(), 10)
    runs = {
        halo: app.run(backend="threaded", algorithm=algorithm)
        for halo, algorithm in (("per-neighbor", "trivial"), ("combined", "combined"))
    }
    for run in runs.values():
        app.check_against_oracle(run)
    a, b = (run.output for run in runs.values())
    assert np.array_equal(a, b), "halo strategies disagree!"
    print("\n10 Jacobi steps, per-neighbor vs combined halo: identical "
          "grids, both bit-equal to the serial oracle")
    for halo, run in runs.items():
        print(f"  {halo:12s} {run.stats.total_rounds} rounds, "
              f"{run.stats.total_bytes} bytes over the job")

if __name__ == "__main__":
    part1_reductions()
    part2_combined_halo()
