"""The ablations and extensions EXPERIMENTS.md quotes beside the paper's
figures: allgather dimension order (Section 3.4), Algorithm 1's scratch
footprint, and the modeled neighborhood reduction."""

import itertools

import numpy as np
import pytest

from repro.core.allgather_schedule import AllgatherTree
from repro.core.alltoall_schedule import (
    build_alltoall_schedule,
    build_trivial_alltoall_blocksets,
)
from repro.core.neighborhood import Neighborhood
from repro.core.reduce_schedule import (
    build_reduce_schedule,
    build_trivial_reduce_schedule,
)
from repro.core.stencils import parameterized_stencil, random_neighborhood
from repro.netsim.cost import estimate_schedule_time
from repro.netsim.machines import get_machine

FIGURE2 = Neighborhood([(-2, 1, 1), (-1, 1, 1), (1, 1, 1), (2, 1, 1)])


def _alltoall(nbh, m):
    return build_alltoall_schedule(
        nbh, *build_trivial_alltoall_blocksets([m] * nbh.t)
    )


def _order_volumes(nbh):
    """(increasing-C_k, best, worst) tree volume over all dimension orders."""
    volumes = [
        AllgatherTree.build(nbh, dim_order=order).edge_count
        for order in itertools.permutations(range(nbh.d))
    ]
    return AllgatherTree.build(nbh).edge_count, min(volumes), max(volumes)


def test_increasing_ck_order_within_twice_the_best():
    """The paper builds the allgather tree in increasing-C_k order with
    no optimality claim: it finds Figure 2's 6-edge tree where the worst
    order pays 12, and on random asymmetric neighborhoods it is never
    worse than the worst order and within 2x of the best."""
    assert _order_volumes(FIGURE2) == (6, 6, 12)
    rng = np.random.default_rng(42)
    for case in range(6):
        heuristic, best, worst = _order_volumes(random_neighborhood(3, 8, 3, rng))
        assert heuristic <= worst, case
        assert heuristic <= 2 * best, (case, heuristic, best)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (5, 3)])
def test_scratch_is_only_the_multi_hop_blocks(d, n):
    """Algorithm 1's buffer alternation: temp holds the blocks that
    travel more than one hop, never the whole volume."""
    nbh = parameterized_stencil(d, n, -1)
    m = 4
    sched = _alltoall(nbh, m)
    multi_hop = sum(1 for z in nbh.hops if z >= 2)
    assert sched.temp_nbytes == multi_hop * m
    assert sched.temp_nbytes < nbh.t * m


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (5, 3), (5, 5)])
def test_modeled_reduction_comparison(d, n):
    """Reverse-tree combining reduce vs gather-then-reduce on Hydra:
    same volume, exponentially fewer rounds, so combining wins at every
    block size."""
    nbh = parameterized_stencil(d, n, -1)
    machine = get_machine("hydra-openmpi")
    for m_ints in (1, 10, 100):
        times = [
            estimate_schedule_time(
                build(nbh, m_bytes=4 * m_ints, dtype="int32"), machine, "cart"
            )
            for build in (build_reduce_schedule, build_trivial_reduce_schedule)
        ]
        assert times[0] < times[1], (d, n, m_ints, times)
