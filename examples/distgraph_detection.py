#!/usr/bin/env python
"""Section 2.2: Cartesian Collective Communication without new MPI API.

The flow the paper proposes for an unchanged MPI interface:

1. create the Cartesian layout and neighborhood locally;
2. get the per-process source/target rank lists (``Cart_neighbor_get``,
   the format ``MPI_Dist_graph_create_adjacent`` expects);
3. create a *distributed graph* communicator from those lists;
4. the library detects — by an O(t) broadcast-and-compare — that all
   neighborhoods are isomorphic, and silently preselects the
   message-combining algorithms for ``MPI_Neighbor_alltoall`` etc.

The example also shows the negative case: one process perturbs its
neighborhood, detection fails, and the collectives fall back to direct
delivery (still correct).

Run:  python examples/distgraph_detection.py
"""

import numpy as np

from repro import moore_neighborhood
from repro.core.cartcomm import cart_neighborhood_create
from repro.core.distgraph import dist_graph_create_adjacent
from repro.mpisim.engine import run_ranks

DIMS = (4, 4)


def worker(comm):
    nbh = moore_neighborhood(2, 1, include_self=False)
    cart = cart_neighborhood_create(comm, DIMS, None, nbh)
    sources, targets = cart.neighbor_get()

    dg = dist_graph_create_adjacent(
        comm, sources, targets, cart_topology=cart.topo
    )
    assert dg.is_cartesian, dg.detection_result

    t = len(targets)
    send = np.arange(t, dtype=np.int32) + comm.rank * 100
    recv = np.zeros(t, dtype=np.int32)
    dg.neighbor_alltoall(send, recv)  # runs the combining algorithm
    for i, src in enumerate(sources):
        assert recv[i] == src * 100 + i
    return dg.detection_result


def worker_nonisomorphic(comm):
    # A *rank-space ring*: every rank sends to rank+1 and rank+2.  This
    # is a perfectly consistent distributed graph, but on the 2-d torus
    # the relative coordinate offsets differ from rank to rank (the +1
    # step wraps into the next row at column 3), so the neighborhoods
    # are NOT isomorphic and detection must decline.  (A mere
    # *reordering* of identical offsets would still be Cartesian — the
    # sorted-order check accepts permutations, under which the
    # collectives remain correct.)
    nbh = moore_neighborhood(2, 1, include_self=False)
    cart = cart_neighborhood_create(comm, DIMS, None, nbh)
    p = comm.size
    targets = [(comm.rank + 1) % p, (comm.rank + 2) % p]
    sources = [(comm.rank - 1) % p, (comm.rank - 2) % p]
    dg = dist_graph_create_adjacent(
        comm, sources, targets, cart_topology=cart.topo
    )
    assert not dg.is_cartesian
    # direct delivery still works
    t = len(targets)
    send = np.full(t, comm.rank, dtype=np.int32)
    recv = np.zeros(t, dtype=np.int32)
    dg.neighbor_alltoall(send, recv)
    for i, src in enumerate(sources):
        assert recv[i] == src
    return dg.detection_result


def main():
    results = run_ranks(16, worker)
    print("isomorphic neighborhoods  ->", set(results))
    results = run_ranks(16, worker_nonisomorphic)
    print("non-isomorphic graph      ->", set(results))
    print("detection preselects the Cartesian algorithms only when safe")


if __name__ == "__main__":
    main()
