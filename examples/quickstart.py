#!/usr/bin/env python
"""Quickstart: Cartesian Collective Communication in five minutes.

Organizes 16 virtual MPI processes as a 4×4 torus with the 9-point
Moore neighborhood, runs a message-combining Cart_alltoall and a
Cart_allgather, and verifies the results against the neighborhood
definition: receive block ``i`` must hold the data of the source
process ``(r − N[i]) mod dims``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import moore_neighborhood, run_cartesian

DIMS = (4, 4)
M = 4  # ints per block


def worker(cart):
    t = cart.neighbor_count()
    rank = cart.rank

    # --- Cart_alltoall: a personalized block per neighbor -------------
    send = np.empty(t * M, dtype=np.int32)
    for i in range(t):
        send[i * M : (i + 1) * M] = rank * 100 + i
    recv = np.zeros_like(send)
    cart.alltoall(send, recv, algorithm="combining")

    for i, offset in enumerate(cart.nbh):
        source, target = cart.relative_shift(offset)
        expected = source * 100 + i
        block = recv[i * M : (i + 1) * M]
        assert (block == expected).all(), (rank, i, block, expected)

    # --- Cart_allgather: one block to every neighbor -------------------
    sendg = np.full(M, rank, dtype=np.int32)
    recvg = np.zeros(t * M, dtype=np.int32)
    cart.allgather(sendg, recvg, algorithm="combining")
    for i, offset in enumerate(cart.nbh):
        source, _ = cart.relative_shift(offset)
        assert (recvg[i * M : (i + 1) * M] == source).all()

    if rank == 0:
        sched = cart.alltoall_init(send, recv, algorithm="combining").schedule
        print("alltoall schedule on rank 0:")
        print(sched.describe())
    return True


def main():
    nbh = moore_neighborhood(2, 1)  # 9-point, includes the self block
    print(f"torus {DIMS}, neighborhood t={nbh.t} (9-point Moore)")
    print(
        f"trivial rounds={nbh.trivial_rounds}  combining rounds="
        f"{nbh.combining_rounds}  alltoall volume={nbh.alltoall_volume}  "
        f"cutoff ratio={nbh.cutoff_ratio():.3f}"
    )
    results = run_cartesian(DIMS, nbh, worker)
    assert all(results)
    print(f"all {len(results)} ranks verified OK")


if __name__ == "__main__":
    main()
