"""Where a row view of the rank-free plan can go wrong.

Everything but the matrix forms of ``batched`` executes a schedule
through per-rank views of the one lowered plan: ``(source, target, send,
recv)`` per round read off row ``r`` of the plan's peer arrays — the
threaded backend and the walk (``"lockstep"`` here names the walk
itself, see ``test_backends.executor``), which ``batched`` also falls
back to (``"shm"`` is an alias of ``batched``).  These tests aim at the
places that reading is least obvious:

* **degenerate extents** — extent 2 makes ``+1`` and ``−1`` the same
  peer, so two rounds of one phase share a (source, target) pair and
  only the (phase, round) sequence tells their messages apart; extent 1
  makes every round along that dimension a self-send;
* **lowering-time refusal** — a round whose receivers expect a message
  nobody sends is refused when the plan is lowered, identically on
  every backend (it used to surface at compile time on ``batched``, at
  delivery time on ``lockstep`` and as a timeout on ``threaded``);
* **what the views must not inherit from the matrix form** — whole-
  buffer dtype viewability and SPMD-uniform buffer sizes are conditions
  of :meth:`~repro.core.plan.BatchedPlan.execute`, not of the lowering
  — and so not of ``batched`` either, which walks where they fail.

All content checks are against the definition oracles of
``tests/core/test_backends.py`` (Section 2 / brute-force folds), never
against another backend.
"""

import re

import numpy as np
import pytest

from repro.core import plan as plan_mod
from repro.core.backend import get_backend
from repro.core.neighborhood import Neighborhood
from repro.core.plan import compile_plan
from repro.core.reduce_schedule import build_trivial_reduce_schedule
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.exceptions import RankFailedError, ScheduleError
from tests.core.test_backends import (
    _make_bufs,
    _make_case,
    _make_reduce_case,
    _run_on,
    executor,
    assert_definition_on,
    assert_matches_definition,
    assert_reduce_matches_definition,
)

BACKENDS = [
    "threaded",
    "lockstep",
    "batched",
    "shm",
]

TOPOLOGIES = {
    "torus-1x3": CartTopology((1, 3)),
    "torus-2x2": CartTopology((2, 2)),
    "torus-2x3": CartTopology((2, 3)),
    "mesh-2x3": CartTopology((2, 3), (False, False)),
    "mixed-2x4": CartTopology((2, 4), (True, False)),
}

MOORE = {
    "moore": moore_neighborhood(2, 1, include_self=False),
    "moore+self": moore_neighborhood(2, 1, include_self=True),
}


def _algorithms(topo, choices):
    return [a for a in choices if a != "combining" or topo.is_fully_periodic]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nbh_name", sorted(MOORE))
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
class TestDegenerateExtents:
    @pytest.mark.parametrize("op", ["alltoall", "allgather"])
    def test_data_movement(self, topo_name, nbh_name, backend, op):
        topo, nbh = TOPOLOGIES[topo_name], MOORE[nbh_name]
        for algorithm in _algorithms(topo, ["trivial", "direct", "combining"]):
            sched, ssize, rsize = _make_case(op, algorithm, "regular", nbh=nbh)
            assert_definition_on(backend, topo, sched, ssize, rsize)

    def test_reduce_neighbors(self, topo_name, nbh_name, backend):
        topo, nbh = TOPOLOGIES[topo_name], MOORE[nbh_name]
        for algorithm in _algorithms(topo, ["trivial", "combining"]):
            prefix = "" if algorithm == "combining" else "trivial-"
            for kind in (prefix + "reduce", prefix + "reduce-scatter"):
                sched, ssize, rsize = _make_reduce_case(kind, "sum", nbh=nbh)
                before = _make_bufs(topo.size, ssize, rsize)
                after = _run_on(backend, topo, sched, ssize, rsize)
                assert_reduce_matches_definition(
                    kind, "sum", topo, before, after, nbh=nbh
                )


def test_extent_two_rounds_share_a_peer_pair():
    """The premise of the extent-2 cases, pinned on the plan itself: two
    rounds of one phase resolve to the same (source, target) pair in a
    rank's view and differ only in their kernels."""
    nbh, topo = MOORE["moore"], TOPOLOGIES["torus-2x2"]
    sched, ssize, rsize = _make_case("alltoall", "trivial", "regular", nbh=nbh)
    view = compile_plan(sched, topo, 0, {"send": ssize, "recv": rsize})
    pairs = [(pr.source, pr.target) for ph in view.phases for pr in ph]
    assert len(set(pairs)) < len(pairs)
    one_by_three = compile_plan(
        sched, TOPOLOGIES["torus-1x3"], 1, {"send": ssize, "recv": rsize}
    )
    assert any(
        pr.source == pr.target == 1 for ph in one_by_three.phases for pr in ph
    )


# ----------------------------------------------------------------------
# a receive nobody sends is refused at lowering, on every backend alike
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_asymmetric_recv_offset_on_mesh_refused_at_lowering(backend):
    """With ``recv_source_offset`` −1 on a 3-rank line, rank 0 expects
    round 0's message from rank 1 — whose round-0 target (+1) is rank 2:
    no backend may start executing this."""
    nbh = Neighborhood([(1,)])
    topo = CartTopology((3,), (False,))
    layout = uniform_block_layout([4], "send"), uniform_block_layout([4], "recv")
    sched = build_trivial_alltoall_schedule(nbh, *layout)
    sched.phases[0].rounds[0].recv_offset = (-1,)
    assert sched.phases[0].rounds[0].recv_source_offset == (-1,)
    bufs = _make_bufs(topo.size, 4, 4)
    # the ScheduleError crosses a thread boundary on the engine
    with pytest.raises(
        RankFailedError if backend == "threaded" else ScheduleError,
        match="expects a message from .* which sent none",
    ) as info:
        executor(backend).execute_all(topo, sched, bufs)
    if backend == "threaded":
        assert isinstance(info.value.cause, ScheduleError)
    assert not sched._plans, "a refused lowering must not be cached"
    assert all(not b["recv"].any() for b in bufs), "nothing was delivered"


# ----------------------------------------------------------------------
# matrix-execution conditions stay out of the lowering
# ----------------------------------------------------------------------


def _odd_capacity_reduce(topo):
    """An int64 trivial reduce whose send/recv buffers carry 3 trailing
    pad bytes: not viewable as whole int64 arrays, fine as byte slices."""
    nbh = MOORE["moore"]
    sched = build_trivial_reduce_schedule(nbh, m_bytes=16, dtype="int64")
    bufs = _make_bufs(topo.size, 16 + 3, 16 + 3)
    return nbh, sched, bufs


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_itemsize_capacity_still_reduces_per_rank(backend):
    """On every backend — ``batched`` included, which finds the plan
    without a matrix form and walks it."""
    topo = CartTopology((3, 3))
    nbh, sched, bufs = _odd_capacity_reduce(topo)
    before = [{k: v.copy() for k, v in b.items()} for b in bufs]
    walked = plan_mod.plan_cache_info().walked
    executor(backend).execute_all(topo, sched, bufs)
    runs_batched = executor(backend) is get_backend("batched")
    assert plan_mod.plan_cache_info().walked - walked == runs_batched

    def unpadded(rows):
        return [{k: v[:16] for k, v in b.items()} for b in rows]

    assert_reduce_matches_definition(
        "trivial-reduce", "sum", topo, unpadded(before), unpadded(bufs), nbh=nbh
    )


def test_non_itemsize_capacity_refused_by_matrix_execution_only():
    """The refusal is the staged forms' (``plan.matrix_error``: the
    rank views fold byte slices), and the reason the executor gives for
    walking instead."""
    from repro.core.backend.batched import executor_form

    topo = CartTopology((3, 3))
    _nbh, sched, bufs = _odd_capacity_reduce(topo)
    plan, _ = plan_mod.get_or_compile(sched, topo, bufs[0])
    assert re.search("cannot be viewed as .* rank matrices", plan.matrix_error)
    assert executor_form(plan, bufs) == f"walk: {plan.matrix_error}"
    want = [{k: v.copy() for k, v in b.items()} for b in bufs]
    executor("lockstep").execute_all(topo, sched, want)
    get_backend("batched").execute_all(topo, sched, bufs)
    for got, ref in zip(bufs, want):
        assert np.array_equal(got["recv"], ref["recv"])


@pytest.mark.parametrize("backend", ["threaded", "lockstep", "batched"])
def test_non_uniform_buffer_sizes_key_their_own_plans(backend):
    """Ranks may bind differently sized buffers wherever ranks run their
    own views (``batched`` walks such a call): each signature lowers its
    own plan, every rank reads its row of the plan compiled for *its*
    signature."""
    topo = CartTopology((3, 3))
    nbh = MOORE["moore"]
    sched, ssize, rsize = _make_case("alltoall", "combining", "v", nbh=nbh)
    before = _make_bufs(topo.size, ssize, rsize)
    after = _make_bufs(topo.size, ssize, rsize)
    for r in (2, 5):  # two ranks over-allocate their receive buffer
        after[r]["recv"] = np.zeros(rsize + 8 * r, np.uint8)
    executor(backend).execute_all(topo, sched, after)
    assert_matches_definition(topo, sched, before, after)
    assert len(sched._plans) == 3
