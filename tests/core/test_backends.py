"""Backend-parity differential suite.

The Transport/interpreter split promises that *where* a schedule runs is
orthogonal to *what* it computes: the threaded engine, the vectorized
batched executor and the reference they are both held against — the
deterministic per-rank walk — must
produce byte-identical user buffers for any schedule.  This suite
drives the full algorithm × operation × layout matrix through every one
of them and diffs the results — against each other and against a
definition oracle that shares nothing with the execution stack
(Section 2: receive block ``i`` of rank ``r`` is send block ``i`` of
rank ``r − N[i]``; reductions by brute force) — plus a hypothesis
property over random topologies.

In this suite ``"lockstep"`` stands for the walk itself
(:func:`executor`): the registry *name* is an alias of ``"batched"``,
which would compare the matrix forms with themselves.  ``"shm"`` is the
other alias of ``"batched"`` (its forked executor was deleted); the
``shm`` legs hold that name to the walk.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.api import run_cartesian
from repro.core.backend import (
    BACKENDS,
    Backend,
    BackendError,
    LockstepBackend,
    ThreadedBackend,
    get_backend,
)
from repro.core.backend.lockstep import WALK  # the walk: an instance, not a name
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError

NBH = moore_neighborhood(2, 1, include_self=False)  # t = 8
NBH_SELF = moore_neighborhood(2, 1, include_self=True)  # t = 9, self block


def executor(name):
    """The backend a case name stands for: ``"lockstep"`` is the walk,
    every other name what the registry says."""
    return WALK if name == "lockstep" else get_backend(name)


# ----------------------------------------------------------------------
# layout factories: regular / v (displacements) / w (scattered pieces)
# ----------------------------------------------------------------------


def _alltoall_layouts(t, m, variant):
    """(send_blocks, recv_blocks, send_size, recv_size) per variant."""
    if variant == "regular":
        return (
            uniform_block_layout([m] * t, "send"),
            uniform_block_layout([m] * t, "recv"),
            t * m,
            t * m,
        )
    if variant == "v":
        gap = 3
        stride = m + gap
        send = [BlockSet([BlockRef("send", i * stride, m)]) for i in range(t)]
        recv = [BlockSet([BlockRef("recv", i * stride + gap, m)]) for i in range(t)]
        return send, recv, t * stride, t * stride + gap
    # w: each logical block is two scattered pieces, recv pieces swapped
    # between the low and high halves of the buffer.
    h = m // 2
    send = [
        BlockSet([BlockRef("send", i * m, h), BlockRef("send", t * m + i * m + h, m - h)])
        for i in range(t)
    ]
    recv = [
        BlockSet([BlockRef("recv", t * m + i * m, h), BlockRef("recv", i * m + h, m - h)])
        for i in range(t)
    ]
    return send, recv, 2 * t * m, 2 * t * m


def _allgather_layouts(t, m, variant):
    """(send_block, recv_blocks, send_size, recv_size) per variant."""
    if variant == "regular":
        return (
            BlockSet([BlockRef("send", 0, m)]),
            uniform_block_layout([m] * t, "recv"),
            m,
            t * m,
        )
    if variant == "v":
        gap = 2
        stride = m + gap
        recv = [BlockSet([BlockRef("recv", i * stride + gap, m)]) for i in range(t)]
        return BlockSet([BlockRef("send", 0, m)]), recv, m, t * stride + gap
    h = m // 2
    send = BlockSet([BlockRef("send", 0, h), BlockRef("send", m + 1, m - h)])
    recv = [
        BlockSet([BlockRef("recv", t * m + i * m, h), BlockRef("recv", i * m + h, m - h)])
        for i in range(t)
    ]
    return send, recv, 2 * m + 1, 2 * t * m


ALLTOALL_BUILDERS = {
    "trivial": build_trivial_alltoall_schedule,
    "direct": build_direct_alltoall_schedule,
    "combining": build_alltoall_schedule,
}

ALLGATHER_BUILDERS = {
    "trivial": build_trivial_allgather_schedule,
    "direct": build_direct_allgather_schedule,
    "combining": build_allgather_schedule,
}


def _make_case(op, algorithm, variant, nbh=NBH, m=6):
    if op == "alltoall":
        send, recv, ssize, rsize = _alltoall_layouts(nbh.t, m, variant)
        sched = ALLTOALL_BUILDERS[algorithm](nbh, send, recv)
    else:
        send, recv, ssize, rsize = _allgather_layouts(nbh.t, m, variant)
        sched = ALLGATHER_BUILDERS[algorithm](nbh, send, recv)
    return sched, ssize, rsize


def _make_bufs(p, ssize, rsize):
    """Deterministic distinct send contents per rank, zeroed recv."""
    bufs = []
    for r in range(p):
        rng = np.random.default_rng(1000 + r)
        bufs.append(
            {
                "send": rng.integers(0, 256, ssize).astype(np.uint8),
                "recv": np.zeros(rsize, np.uint8),
            }
        )
    return bufs


def _run_on(backend, topo, sched, ssize, rsize):
    bufs = _make_bufs(topo.size, ssize, rsize)
    executor(backend).execute_all(topo, sched, bufs)
    return bufs


def assert_matches_definition(topo, sched, before, after):
    """Harness-independent oracle for alltoall/allgather schedules:
    every receive slot whose source exists holds exactly the bytes its
    source's send block held, and no send buffer changed.  Slots whose
    source falls off a mesh edge are undefined and not compared."""
    allgather = len(sched.send_layout) == 1
    for r in range(topo.size):
        assert np.array_equal(after[r]["send"], before[r]["send"]), r
        for i, off in enumerate(sched.neighborhood):
            src = topo.translate(r, tuple(-o for o in off))
            if src is None:
                continue
            want = sched.send_layout[0 if allgather else i].pack(before[src])
            got = sched.recv_layout[i].pack(after[r])
            assert got == want, (
                f"rank {r} slot {i} (offset {off}) does not hold the "
                f"block of rank {src}"
            )


def assert_definition_on(backend, topo, sched, ssize, rsize):
    before = _make_bufs(topo.size, ssize, rsize)
    after = _run_on(backend, topo, sched, ssize, rsize)
    assert_matches_definition(topo, sched, before, after)


def assert_backends_agree(topo, sched, ssize, rsize, backends):
    reference, *others = backends
    ref = _run_on(reference, topo, sched, ssize, rsize)
    for name in others:
        got = _run_on(name, topo, sched, ssize, rsize)
        for r in range(topo.size):
            for buf in ("send", "recv"):
                assert np.array_equal(got[r][buf], ref[r][buf]), (
                    f"{name} diverges from {reference}: rank {r}, "
                    f"buffer {buf!r}"
                )


# ----------------------------------------------------------------------
# the full differential matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["regular", "v", "w"])
@pytest.mark.parametrize("algorithm", ["trivial", "direct", "combining"])
@pytest.mark.parametrize("op", ["alltoall", "allgather"])
class TestParityMatrix:
    def test_threaded_vs_lockstep(self, op, algorithm, variant):
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "threaded"])

    def test_batched_vs_lockstep(self, op, algorithm, variant):
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "batched"])

    def test_batched_vs_lockstep_interpreted(self, op, algorithm, variant):
        """Both ways of running the one plan — matrix execution and
        lockstep over its rank views — against the definition oracle
        (the reference this test used to have, an interpreted runtime
        mode, no longer exists; the test id is kept)."""
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        for backend in ("lockstep", "batched"):
            assert_definition_on(backend, topo, sched, ssize, rsize)

    def test_shm_vs_lockstep(self, op, algorithm, variant):
        topo = CartTopology((2, 2))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "shm"])


# ----------------------------------------------------------------------
# reduction parity: the reduce family on every backend and vs brute force
# ----------------------------------------------------------------------

_REDUCE_M = 16  # two int64 elements per block


def _make_reduce_case(kind, op="sum", nbh=NBH, m=_REDUCE_M):
    """(schedule, send size, recv size) for one reduce-family kind."""
    from repro.core.builders import SCHEDULE_BUILDERS

    sched = SCHEDULE_BUILDERS[kind](nbh, m_bytes=m, dtype="int64", op=op)
    t = nbh.t
    ssize = t * m if kind.endswith("reduce-scatter") else m
    rsize = t * m if kind == "allreduce" else m
    return sched, ssize, rsize


REDUCE_PARITY_OPS = {
    "sum": "sum",
    "max": "max",
    "custom": lambda a, b: a | b,  # associative, exact on int64
}


def assert_reduce_matches_definition(
    kind, op, topo, before, after, nbh=NBH, m=_REDUCE_M
):
    """Brute-force oracle for the reduce family on int64 blocks (exact,
    so fold order is irrelevant): ``R(r)`` folds block ``i`` (or the one
    block) of every existing source ``r − N[i]``; ``allreduce`` slot
    ``i`` holds ``R(r − N[i])``."""
    from repro.core.reduce_schedule import resolve_op

    fold = resolve_op(op)
    scatter = kind.endswith("reduce-scatter")
    m //= 8

    def reduced(r):
        acc = None
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            if src is None:
                continue
            block = before[src]["send"].view(np.int64)
            if scatter:
                block = block[i * m : (i + 1) * m]
            acc = block.copy() if acc is None else fold(acc, block)
        return acc

    for r in range(topo.size):
        got = after[r]["recv"].view(np.int64)
        if kind != "allreduce":
            assert np.array_equal(got, reduced(r)), (kind, r)
            continue
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            assert np.array_equal(got[i * m : (i + 1) * m], reduced(src)), (r, i)


@pytest.mark.parametrize("op_name", sorted(REDUCE_PARITY_OPS))
@pytest.mark.parametrize(
    "kind",
    [
        "reduce",
        "reduce-scatter",
        "allreduce",
        "trivial-reduce",
        "trivial-reduce-scatter",
    ],
)
class TestReduceParityMatrix:
    """Reductions are schedules like any other: every backend must
    produce byte-identical buffers, equal to the brute-force fold."""

    def test_threaded_vs_lockstep(self, kind, op_name):
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_reduce_case(kind, REDUCE_PARITY_OPS[op_name])
        assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "threaded"])

    def test_batched_vs_lockstep(self, kind, op_name):
        """Rank views run their rows of the combine steps one by one;
        the matrix execution runs each step for all its rows at once.
        The mixed topology gives the trivial kinds several row patterns
        (mesh edges) and two rounds per peer pair (the extent-2 torus
        dimension); the tree kinds need the torus."""
        topos = [CartTopology((3, 3))]
        if kind.startswith("trivial"):
            topos.append(CartTopology((2, 4), (True, False)))
        sched, ssize, rsize = _make_reduce_case(kind, REDUCE_PARITY_OPS[op_name])
        for topo in topos:
            assert_backends_agree(
                topo, sched, ssize, rsize, ["lockstep", "batched"]
            )

    def test_batched_vs_lockstep_interpreted(self, kind, op_name):
        """Matrix execution of the masked step lists vs brute force (the
        interpreted reference mode is gone; the test id is kept)."""
        topo = CartTopology((3, 3))
        op = REDUCE_PARITY_OPS[op_name]
        sched, ssize, rsize = _make_reduce_case(kind, op)
        before = _make_bufs(topo.size, ssize, rsize)
        after = _run_on("batched", topo, sched, ssize, rsize)
        assert_reduce_matches_definition(kind, op, topo, before, after)

    def test_plans_on_vs_off_identical(self, kind, op_name):
        """The rank views' rows of the combine steps vs brute force, on
        both per-rank transports (formerly: vs the uncompiled mode)."""
        topo = CartTopology((3, 3))
        op = REDUCE_PARITY_OPS[op_name]
        sched, ssize, rsize = _make_reduce_case(kind, op)
        before = _make_bufs(topo.size, ssize, rsize)
        for backend in ("lockstep", "threaded"):
            after = _run_on(backend, topo, sched, ssize, rsize)
            assert_reduce_matches_definition(kind, op, topo, before, after)

    def test_shm_vs_lockstep(self, kind, op_name):
        topo = CartTopology((2, 2))
        sched, ssize, rsize = _make_reduce_case(kind, REDUCE_PARITY_OPS[op_name])
        assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "shm"])


@pytest.mark.parametrize("periods", [(True, True), (False, True)], ids=["torus", "mesh"])
@pytest.mark.parametrize(
    "kind",
    ["reduce", "reduce-scatter", "allreduce", "trivial-reduce", "trivial-reduce-scatter"],
)
def test_a_reduction_runs_the_fused_maps(kind, periods, monkeypatch):
    """``batched`` runs a small reduction on its fused maps with the
    folds between them from the first call on: its planes are never
    run.  Every call leaves the walk's bytes, bit for bit, and the pool
    ends empty."""
    from repro.core import plan as plan_mod

    executed = []
    execute = plan_mod.BatchedPlan.execute_planes
    monkeypatch.setattr(
        plan_mod.BatchedPlan, "execute_planes", lambda plan, b: executed.append(execute(plan, b))
    )
    topo = CartTopology((3, 4), periods)
    sched, ssize, rsize = _make_reduce_case(kind, m=16)
    start = _make_bufs(topo.size, ssize, rsize)
    want = _snapshot(start)
    WALK.execute_all(topo, sched, want)
    for call in ("first", "second"):
        got = _snapshot(start)
        get_backend("batched").execute_all(topo, sched, got)
        [plan] = sched._plans.values()
        assert plan.fused is not None and not executed
        _assert_same_buffers(got, want, f"the {call} call vs the walk")
    assert plan_mod.GLOBAL_POOL.stats().outstanding_bytes == 0


def test_a_blocking_call_runs_the_fused_maps_through_execute_all(monkeypatch):
    """The meeting's driver runs a blocking call through
    :meth:`BatchedBackend.execute_all` with the plan it looked up, and
    that runs the plan's fused maps from the first call on (a miss
    too).  Every call leaves the definition's bytes."""
    from repro.core import plan as plan_mod
    from repro.core.backend.batched import BatchedBackend
    from repro.core.schedule import BoundOp

    brought, executed = [], []
    execute_all = BatchedBackend.execute_all

    def spy(self, topo, schedule, rank_buffers, *, plan=None):
        brought.append(plan)
        execute_all(self, topo, schedule, rank_buffers, plan=plan)

    monkeypatch.setattr(BatchedBackend, "execute_all", spy)
    monkeypatch.setattr(plan_mod.BatchedPlan, "execute_planes", lambda plan, b: executed.append(b))
    topo = CartTopology((3, 3))
    sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=8)
    for call in range(2):
        before = _make_bufs(topo.size, ssize, rsize)
        after = _snapshot(before)
        slots = [BoundOp("alltoall", sched, bufs) for bufs in after]
        plan, hit = get_backend("batched")._drive(topo, slots)
        assert hit == (call > 0) and brought[-1] is plan
        assert plan._fused is not plan_mod._UNLOWERED and not executed
        assert_matches_definition(topo, sched, before, after)
    assert len(brought) == 2


def test_a_reduction_nobody_contributes_to_keeps_raising():
    """A rank with no source on the mesh gets no contribution: the plan
    has no fused maps, and every call refuses it as the walk does."""
    from repro.core import plan as plan_mod
    from repro.core.neighborhood import Neighborhood

    topo = CartTopology((3,), (False,))
    sched, ssize, rsize = _make_reduce_case("trivial-reduce", nbh=Neighborhood([(1,)]))
    bufs = _make_bufs(topo.size, ssize, rsize)
    for _ in range(2):
        with pytest.raises(ScheduleError, match="received no contributions"):
            get_backend("batched").execute_all(topo, sched, bufs)
    [plan] = sched._plans.values()
    assert plan.reduce_missing.size and plan.fused is None
    assert plan_mod.GLOBAL_POOL.stats().outstanding_bytes == 0


def test_large_block_allreduce_on_rank_views_matches_definition():
    """64 KiB blocks on the threaded backend: every fold is one ufunc
    call over a whole block (where a scatter-reduce over element index
    arrays used to be the slow path)."""
    topo, m = CartTopology((3, 3)), 1 << 16
    sched, ssize, rsize = _make_reduce_case("allreduce", "sum", m=m)
    before = _make_bufs(topo.size, ssize, rsize)
    after = _run_on("threaded", topo, sched, ssize, rsize)
    assert_reduce_matches_definition(
        "allreduce", "sum", topo, before, after, m=m
    )


def test_parity_with_self_offset_local_copies():
    """Stencils containing the zero offset exercise the local-copy path
    on every backend."""
    topo = CartTopology((3, 3))
    sched, ssize, rsize = _make_case("alltoall", "trivial", "regular", nbh=NBH_SELF)
    assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "threaded"])


@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    m=st.integers(1, 16),
    algorithm=st.sampled_from(["trivial", "direct", "combining"]),
    data=st.data(),
)
@settings(deadline=None, max_examples=25)
def test_parity_property_random_topologies(dims, m, algorithm, data):
    """Lockstep and threaded agree byte-for-byte on random tori,
    neighborhoods and block sizes."""
    d = len(dims)
    offsets = data.draw(
        st.lists(
            st.tuples(*[st.integers(-1, 1) for _ in range(d)]).filter(any),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    from repro.core.neighborhood import Neighborhood

    nbh = Neighborhood(offsets)
    topo = CartTopology(dims)
    sched, ssize, rsize = _make_case("alltoall", algorithm, "regular", nbh=nbh, m=m)
    assert_backends_agree(
        topo, sched, ssize, rsize, ["lockstep", "threaded", "batched"]
    )


# ----------------------------------------------------------------------
# the batched backend's two forms: staged matrices and in-place delivery
# ----------------------------------------------------------------------

#: (dims, periods): tori, a mixed-period mesh (recv_rows on its edges),
#: and extents 1 and 2, where a rank is its own peer or meets one peer
#: through both +1 and -1
DELIVERY_TOPOLOGIES = [
    ((4, 4), (True, True)),
    ((3, 3, 3), (True, True, True)),
    ((2, 4), (False, True)),
    ((1, 5), (True, True)),
    ((2, 2), (True, True)),
]


def _snapshot(bufs):
    return [{k: v.copy() for k, v in b.items()} for b in bufs]


def _assert_same_buffers(got, want, what):
    for r, (g, w) in enumerate(zip(got, want)):
        for name in w:
            assert np.array_equal(g[name], w[name]), (
                f"{what}: rank {r}, buffer {name!r}"
            )


class TestPlanes:
    """The planes — every round a shift of the rank grid, every fold a
    whole-plane operation — forced on plans whatever ``plan.staging``
    would choose, held to the walk and to the collective's definition."""

    @pytest.fixture(autouse=True)
    def _planes(self, monkeypatch):
        from repro.core.plan import BatchedPlan

        monkeypatch.setattr(BatchedPlan, "staging", "planes: forced")

    @pytest.mark.parametrize("variant", ["regular", "v", "w"])
    @pytest.mark.parametrize("algorithm", ["trivial", "direct", "combining"])
    @pytest.mark.parametrize("op", ["alltoall", "allgather"])
    @pytest.mark.parametrize("dims, periods", DELIVERY_TOPOLOGIES)
    def test_planes_equal_the_walk_and_the_definition(
        self, dims, periods, op, algorithm, variant
    ):
        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        topo = CartTopology(dims, periods)
        sched, ssize, rsize = _make_case(op, algorithm, variant, nbh=nbh)
        before = _make_bufs(topo.size, ssize, rsize)
        want, got = _snapshot(before), _snapshot(before)
        WALK.execute_all(topo, sched, want)
        get_backend("batched").execute_all(topo, sched, got)
        # (on a mesh, combining forwards scratch into slots off the edge)
        if all(periods) or algorithm != "combining":
            _assert_same_buffers(got, want, "planes vs the walk")
        assert_matches_definition(topo, sched, before, got)

    @pytest.mark.parametrize("periods", [(True, True), (False, True)], ids=["torus", "mesh"])
    @pytest.mark.parametrize(
        "kind",
        ["reduce", "reduce-scatter", "allreduce", "trivial-reduce", "trivial-reduce-scatter"],
    )
    def test_reductions_in_planes_equal_the_walk_and_the_definition(self, kind, periods):
        """On the mesh the seeding and folds index the rank axis with
        partial row masks."""
        topo = CartTopology((3, 4), periods)
        sched, ssize, rsize = _make_reduce_case(kind, m=16)
        before = _make_bufs(topo.size, ssize, rsize)
        want, got = _snapshot(before), _snapshot(before)
        WALK.execute_all(topo, sched, want)
        get_backend("batched").execute_all(topo, sched, got)
        _assert_same_buffers(got, want, "planes vs the walk")
        if all(periods):
            assert_reduce_matches_definition(kind, "sum", topo, before, got, m=16)

    def test_the_staging_rule_reproduces_the_probe(self, monkeypatch):
        """Moore alltoall, combining: fused maps at p ≤ 27, planes at
        (8, 8, 8) from m = 64 on."""
        from repro.core.plan import BatchedPlan, compile_batched_plan, effective_sizes

        monkeypatch.undo()
        assert isinstance(BatchedPlan.staging, property)
        for dims, m, form in (
            ((4, 4), 8, "fused"), ((3, 3, 3), 512, "fused"),
            ((8, 8, 8), 64, "planes"), ((8, 8, 8), 512, "planes"),
        ):
            nbh = moore_neighborhood(len(dims), 1, include_self=False)
            sched, ssize, rsize = _make_case("alltoall", "combining", "regular", nbh=nbh, m=m)
            bufs = {"send": np.zeros(ssize, np.uint8), "recv": np.zeros(rsize, np.uint8)}
            plan = compile_batched_plan(sched, CartTopology(dims), effective_sizes(sched, bufs))
            assert plan.staging.startswith(f"{form}: "), (dims, m, plan.staging)


class TestDeliveryForms:
    """``BatchedPlan.deliver`` (in place), ``BatchedPlan.execute_planes``
    (staged) and the walk over the rank views are three ways to run the
    one plan; which of them the batched backend takes is decided by
    :func:`executor_form`, so here each is forced on the same inputs."""

    @pytest.mark.parametrize("variant", ["regular", "w"])
    @pytest.mark.parametrize("algorithm", ["trivial", "direct", "combining"])
    @pytest.mark.parametrize("op", ["alltoall", "allgather"])
    @pytest.mark.parametrize("dims, periods", DELIVERY_TOPOLOGIES)
    def test_three_ways_agree_byte_for_byte(
        self, dims, periods, op, algorithm, variant
    ):
        """Whatever the verdict — these are small blocks, staged at run
        time — and every buffer: with the same ``temp`` bound on all
        three, even scratch forwarded over mesh edges is compared."""
        from repro.core import plan as plan_mod
        from tests.conftest import run_planes, with_deliveries

        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        topo = CartTopology(dims, periods)
        sched, ssize, rsize = _make_case(op, algorithm, variant, nbh=nbh)
        start = _make_bufs(topo.size, ssize, rsize)
        for r, b in enumerate(start):
            b["recv"][:] = 200 + r
            if sched.temp_nbytes:
                b["temp"] = np.full(sched.temp_nbytes, 100 + r, np.uint8)
        sizes = plan_mod.effective_sizes(sched, start[0])
        plan = with_deliveries(
            sched, plan_mod.compile_batched_plan(sched, topo, sizes)
        )
        want = _snapshot(start)
        WALK.execute_all(topo, sched, want)
        _assert_same_buffers(run_planes(plan, start), want, "planes vs lockstep")
        got = _snapshot(start)
        plan.deliver(got)
        _assert_same_buffers(got, want, "deliver vs lockstep")

    @pytest.mark.parametrize("algorithm", ["trivial", "combining"])
    def test_in_place_plan_on_the_backend(self, algorithm):
        """4 KiB blocks are delivered in place: correct against the
        definition from a read-only ``send``, with the ranks' own
        ``temp`` (no pool traffic) and without one (one pooled scratch
        matrix, returned)."""
        from repro.core.plan import GLOBAL_POOL, get_or_compile

        topo, m = CartTopology((3, 3)), 4096
        sched, ssize, rsize = _make_case("alltoall", algorithm, "regular", m=m)
        before = _make_bufs(topo.size, ssize, rsize)
        plan, _ = get_or_compile(sched, topo, before[0])
        assert plan.delivery == "in-place"
        for bound in (False, True):
            after = _snapshot(before)
            for b in after:
                b["send"].flags.writeable = False
                if bound and sched.temp_nbytes:
                    b["temp"] = np.zeros(sched.temp_nbytes, np.uint8)
            acquires = GLOBAL_POOL.stats().acquires
            get_backend("batched").execute_all(topo, sched, after)
            assert GLOBAL_POOL.stats().acquires - acquires == int(
                sched.temp_nbytes > 0 and not bound
            )
            assert GLOBAL_POOL.stats().outstanding_bytes == 0
            assert_matches_definition(topo, sched, before, after)

    def test_kernel_failure_in_place_returns_the_scratch(self, monkeypatch):
        from repro.core import plan as plan_mod

        topo, m = CartTopology((3, 3)), 4096
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=m)
        bufs = _make_bufs(topo.size, ssize, rsize)
        assert plan_mod.get_or_compile(sched, topo, bufs[0])[0].delivery == "in-place"

        def boom(*args):
            raise RuntimeError("injected copy failure")

        monkeypatch.setattr(plan_mod.BoundDelivery, "__call__", boom)
        with pytest.raises(RuntimeError, match="injected copy"):
            get_backend("batched").execute_all(topo, sched, bufs)
        assert plan_mod.GLOBAL_POOL.stats().outstanding_bytes == 0

    @pytest.mark.parametrize(
        "second_send, second_recv, hazard",
        [
            # the second round forwards what the first one delivers
            (("recv", 0), ("recv", 4096), "reads what it writes"),
            # both rounds land on recv[2048:4096]
            (("send", 4096), ("recv", 2048), "writes a byte twice"),
        ],
    )
    def test_phase_hazard_keeps_the_wire(self, second_send, second_recv, hazard):
        """Blocks big enough for the in-place form, in a phase whose
        result depends on the wire's snapshot: the lowering says so and
        the backend runs the matrices — equal to lockstep, which packs
        the whole phase before it delivers any of it."""
        from repro.core import plan as plan_mod
        from repro.core.neighborhood import Neighborhood
        from repro.core.schedule import Phase, Round, Schedule
        from tests.conftest import run_planes, with_deliveries

        n = 4096
        rounds = [
            Round(
                (1,),
                BlockSet([BlockRef("send", 0, n)]),
                BlockSet([BlockRef("recv", 0, n)]),
            ),
            Round(
                (-1,),
                BlockSet([BlockRef(*second_send, n)]),
                BlockSet([BlockRef(*second_recv, n)]),
            ),
        ]
        sched = Schedule(
            "alltoall", Neighborhood([(1,), (-1,)]), [Phase(0, rounds)]
        )
        topo = CartTopology((5,))
        start = _make_bufs(topo.size, 2 * n, 2 * n)
        for r, b in enumerate(start):
            b["recv"][:] = 200 + r
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        assert plan.hazards == (hazard,)
        assert (plan.delivery, plan.delivery_reason) == (
            "staged", f"phase 0 {hazard}"
        )
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        get_backend("batched").execute_all(topo, sched, got)
        _assert_same_buffers(got, want, "batched vs lockstep")
        # the planes read the phase's snapshot too
        _assert_same_buffers(run_planes(plan, start), want, "planes vs lockstep")
        if hazard == "reads what it writes":
            # what the guard is for: without the snapshot some rank
            # forwards the bytes it has just been sent
            raced = _snapshot(start)
            with_deliveries(sched, plan).deliver(raced)
            assert any(
                not np.array_equal(g["recv"], w["recv"])
                for g, w in zip(raced, want)
            )

    @pytest.mark.parametrize("overlap", ["same array", "view into send"])
    def test_aliased_names_keep_the_wire(self, overlap, monkeypatch):
        """The plan's interval check compares names, not memory: a call
        whose ``recv`` shares memory with its ``send`` takes the staged
        form, which snapshots ``send`` as it always did — so ``recv``
        still ends up holding the definition's bytes."""
        from repro.core.backend import batched
        from tests.conftest import expected_alltoall, fill_send_alltoall

        m = 512  # int64s, 4 KiB: an in-place plan, were the names apart
        forms, scan = [], batched._scan

        def spy(plan, rank_buffers):
            got = scan(plan, rank_buffers)
            forms.extend([got[0]] if rank_buffers else [])  # not the verifier's
            return got

        monkeypatch.setattr(batched, "_scan", spy)

        def fn(cart):
            t = cart.nbh.t
            content = fill_send_alltoall(cart.rank, t, m)
            if overlap == "same array":
                send = recv = content
            else:
                base = np.empty((t + 1) * m, np.int64)
                send, recv = base[: t * m], base[m:]
                send[:] = content
            cart.alltoall(send, recv, algorithm="combining")
            want = expected_alltoall(cart.topo, cart.nbh, cart.rank, m)
            return bool(np.array_equal(recv, want))

        assert all(
            run_cartesian((3, 3), NBH, fn, info={"backend": "batched"}, timeout=60)
        )
        assert forms == ["staged: two buffers of a rank share memory; planes: no fused maps"]

    def test_non_uniform_layout_runs_and_equals_the_walk(self):
        """Ranks that bring differently sized buffers have no matrix
        form (this used to be refused): the name ``batched`` walks them
        — counted, with the reason — and leaves what the walk leaves."""
        from repro.core.backend.batched import executor_form
        from repro.core.plan import get_or_compile, plan_cache_info

        topo, m = CartTopology((3, 3)), 4096
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=m)
        start = _make_bufs(topo.size, ssize, rsize)
        start[4]["recv"] = np.zeros(rsize + 8, np.uint8)
        plan, _ = get_or_compile(sched, topo, start[0])
        assert plan.delivery == "in-place"
        assert (
            executor_form(plan, start)
            == "walk: rank 4 sizes differ from rank 0"
        )
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        walked = plan_cache_info().walked
        get_backend("batched").execute_all(topo, sched, got)
        assert plan_cache_info().walked == walked + 1
        _assert_same_buffers(got, want, "batched vs the walk")
        assert_matches_definition(topo, sched, start, got)

    def test_the_walk_is_chosen_before_any_byte_moves(self):
        """The form is decided on sizes alone, so when the walk then
        refuses a rank's buffers (rank 4's ``recv`` is too small for the
        schedule, its own lowering says so) nothing has been delivered
        anywhere and nothing is left in the pool."""
        from repro.core.plan import GLOBAL_POOL
        from repro.mpisim.exceptions import TruncationError

        topo, m = CartTopology((3, 3)), 4096
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=m)
        bufs = _make_bufs(topo.size, ssize, rsize)
        for b in bufs:
            b["recv"][:] = 0xAB
        bufs[4]["recv"] = np.full(rsize - 8, 0xAB, np.uint8)
        with pytest.raises(TruncationError, match="exceeds buffer 'recv'"):
            get_backend("batched").execute_all(topo, sched, bufs)
        assert all((b["recv"] == 0xAB).all() for b in bufs)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    def test_every_form_reports_itself(self):
        """One predicate picks the form and says why; without buffers
        it answers for uniformly sized, unaliased ones."""
        from repro.core.backend.batched import executor_form
        from repro.core.plan import get_or_compile

        topo = CartTopology((3, 3))
        small, ssize, rsize = _make_case("alltoall", "combining", "regular")
        bufs = _make_bufs(topo.size, ssize, rsize)
        plan, _ = get_or_compile(small, topo, bufs[0])
        assert executor_form(plan, bufs) == executor_form(plan)
        assert executor_form(plan).startswith("staged: ")
        large, ssize, rsize = _make_case(
            "alltoall", "combining", "regular", m=4096
        )
        bufs = _make_bufs(topo.size, ssize, rsize)
        plan, _ = get_or_compile(large, topo, bufs[0])
        assert executor_form(plan, bufs) == (
            f"in-place: {plan.delivery_reason}; {plan.num_launches} launches"
        )
        bufs[7]["recv"] = bufs[7]["send"]
        assert executor_form(plan, bufs) == (
            "staged: two buffers of a rank share memory; planes: no fused maps"
        )

    @pytest.mark.parametrize("m, word", [(5, 1), (16, 8)])
    @pytest.mark.parametrize("variant", ["regular", "v", "w"])
    @pytest.mark.parametrize("algorithm", ["trivial", "combining"])
    @pytest.mark.parametrize("op", ["alltoall", "allgather"])
    @pytest.mark.parametrize(
        "dims, periods, nbh",
        [
            ((4, 4), (True, True), NBH),
            ((2, 4), (False, True), NBH),  # recv_rows on the mesh edges
            ((3, 3), (True, True), NBH_SELF),  # a local copy per rank
        ],
        ids=["torus", "mesh", "self"],
    )
    def test_fused_phases_agree_byte_for_byte(
        self, dims, periods, nbh, op, algorithm, variant, m, word, monkeypatch
    ):
        """The fourth way to run the plan — what a persistent handle's
        staged execution runs: every phase one word map on the staged
        block — against the walk on every byte, scratch included; and
        through the backend's prepared execution, which stages its own
        scratch, against the definition.  The maps' memory bound is
        lifted here so that the lane-1 lowering is checked too (the
        bound has its own test below).  A regular layout moves whole
        blocks, one index per block, wherever the staged block's 8-byte
        layout keeps them aligned; ``word`` is that lane's class,
        ``gcd(8, lane)``, the width the lowering used before block
        lanes."""
        from repro.core import plan as plan_mod
        from repro.core.backend.batched import BatchedBackend

        monkeypatch.setattr(plan_mod, "FUSED_INDEX_PER_BLOCK_BYTE", 1 << 20)
        topo = CartTopology(dims, periods)
        sched, ssize, rsize = _make_case(op, algorithm, variant, nbh=nbh, m=m)
        before = _make_bufs(topo.size, ssize, rsize)
        start = _snapshot(before)
        for r, b in enumerate(start):
            b["recv"][:] = 200 + r
            if sched.temp_nbytes:
                b["temp"] = np.full(sched.temp_nbytes, 100 + r, np.uint8)
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        fused = plan.fused
        assert plan.delivery == "staged" and fused is not None
        assert len(fused.steps) >= len(sched.phases)
        if variant == "regular":
            # 9 ranks' 45-byte rows at m = 5 fill 408-byte matrices
            lane = 1 if (m, topo.size) == (5, 9) else m
            assert fused.dtype.itemsize == lane and math.gcd(8, lane) == word
        if nbh.has_self:
            assert plan.copy_program.nbytes > 0 and plan.copy_program.fused
        want = _snapshot(start)
        WALK.execute_all(topo, sched, want)
        block = np.zeros(plan.block_nbytes, np.uint8)
        matrices = plan.matrices(block)
        for name, matrix in matrices.items():
            matrix[:] = np.stack([b[name] for b in start])
        words = block.view(fused.dtype)
        for dst, src in fused.steps:
            words[dst] = words[src]
        got = [
            {name: matrix[r] for name, matrix in matrices.items()}
            for r in range(topo.size)
        ]
        _assert_same_buffers(got, want, "fused vs lockstep")
        after = _snapshot(before)
        BatchedBackend().prepare(topo, sched, plan, after)()
        assert_matches_definition(topo, sched, before, after)

    def test_ranks_of_other_dtypes_of_one_size_run_staged(self):
        """Ranks that bind other types (or shapes) of the same byte size
        meet as bytes: still staged, and equal to the walk."""
        from repro.core.backend.batched import executor_form
        from repro.core.plan import get_or_compile, plan_cache_info

        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=8)
        start = _make_bufs(topo.size, ssize, rsize)
        for r, b in enumerate(start):
            if r % 3 == 1:
                b["send"] = b["send"].view(np.uint16).reshape(4, -1)
                b["recv"] = b["recv"].view(np.int32).reshape(-1, 2)
            elif r % 3 == 2:
                b["recv"] = b["recv"].view(np.int64)
        plan, _ = get_or_compile(sched, topo, start[0])
        assert executor_form(plan, start).startswith("staged: ")
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        walked = plan_cache_info().walked
        get_backend("batched").execute_all(topo, sched, got)
        assert plan_cache_info().walked == walked
        _assert_same_buffers(got, want, "mixed dtypes vs the walk")

    @pytest.mark.parametrize("name", ["send", "recv"])
    def test_a_buffer_that_is_not_c_contiguous_is_refused(self, name):
        """The staged form takes the callers' arrays as they are, and
        still refuses one it could not view as bytes (a strided
        ``send`` the plan only reads included), before any byte moves."""
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=8)
        bufs = _make_bufs(topo.size, ssize, rsize)
        bufs[4][name] = np.zeros(2 * bufs[4][name].size, np.uint8)[::2]
        before = _snapshot(bufs)
        with pytest.raises(ValueError, match="C-contiguous"):
            get_backend("batched").execute_all(topo, sched, bufs)
        _assert_same_buffers(bufs, before, "a refused call")

    def test_a_phase_that_writes_a_byte_twice_keeps_its_rounds(self):
        """Only the rounds' order says which of two writes wins, so the
        lowering has no fused form for it and a handle runs the rounds."""
        from repro.core import plan as plan_mod
        from repro.core.backend.batched import BatchedBackend
        from repro.core.neighborhood import Neighborhood
        from repro.core.schedule import Phase, Round, Schedule

        rounds = [
            Round((1,), BlockSet([BlockRef("send", 0, 8)]),
                  BlockSet([BlockRef("recv", 0, 8)])),
            Round((-1,), BlockSet([BlockRef("send", 8, 8)]),
                  BlockSet([BlockRef("recv", 4, 8)])),
        ]
        sched = Schedule(
            "alltoall", Neighborhood([(1,), (-1,)]), [Phase(0, rounds)]
        )
        topo = CartTopology((5,))
        start = _make_bufs(topo.size, 16, 16)
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        assert plan.hazards == ("writes a byte twice",)
        assert plan.fused is None
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        BatchedBackend().prepare(topo, sched, plan, got)()
        _assert_same_buffers(got, want, "rounds vs lockstep")

    def test_local_copies_that_write_a_byte_twice_run_after_fused_phases(self):
        """A copy set that writes a byte twice has no fused copy
        program; it runs in its own order after the phases, which are
        still fused."""
        from repro.core import plan as plan_mod
        from repro.core.backend.batched import BatchedBackend
        from repro.core.neighborhood import Neighborhood
        from repro.core.schedule import LocalCopy, Phase, Round, Schedule

        rounds = [
            Round((1,), BlockSet([BlockRef("send", 0, 8)]),
                  BlockSet([BlockRef("recv", 0, 8)])),
            Round((-1,), BlockSet([BlockRef("send", 8, 8)]),
                  BlockSet([BlockRef("recv", 8, 8)])),
        ]
        copies = [
            LocalCopy(BlockRef("send", 0, 4), BlockRef("recv", 16, 4)),
            LocalCopy(BlockRef("send", 4, 4), BlockRef("recv", 18, 4)),
        ]
        sched = Schedule(
            "alltoall", Neighborhood([(1,), (-1,)]), [Phase(0, rounds)], copies
        )
        topo = CartTopology((5,))
        start = _make_bufs(topo.size, 16, 24)
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        assert not plan.copy_program.fused and plan.fused is not None
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        BatchedBackend().prepare(topo, sched, plan, got)()
        _assert_same_buffers(got, want, "fused phases vs lockstep")

    @pytest.mark.parametrize("m, fuses", [(1, False), (8, True)])
    def test_fused_maps_stay_within_their_share_of_the_block(self, m, fuses):
        """The maps hold two ``int64`` per moved word and grow with p:
        a large staged plan is fused only while they hold at most
        ``FUSED_INDEX_PER_BLOCK_BYTE`` bytes per byte of its block.  At
        lane 1 a Moore alltoall's maps would be about ten times its
        block, so it keeps its rounds; at lane 8 it is fused within the
        bound, and ``selector_nbytes`` counts the maps.  A handle's
        execution gives the walk's bytes either way."""
        from repro.core import plan as plan_mod
        from repro.core.backend.batched import BatchedBackend

        topo = CartTopology((8, 8))
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular", m=m)
        start = _make_bufs(topo.size, ssize, rsize)
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        rounds_only = plan.selector_nbytes
        assert plan.delivery == "staged" and (plan.fused is not None) == fuses
        fused = plan.selector_nbytes - rounds_only
        assert fused <= plan_mod.FUSED_INDEX_PER_BLOCK_BYTE * plan.block_nbytes
        assert (fused > 0) == fuses
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        BatchedBackend().prepare(topo, sched, plan, got)()
        _assert_same_buffers(got, want, "prepared vs lockstep")

    def test_handle_binds_one_execution_and_free_drops_it(self):
        """The first start binds one execution for all ranks, later
        starts run it, and ``free()`` lets go of it and of the scratch.
        Rank threads are switched every few microseconds: a rank that
        kept another execution, or restarted before the meeting's
        outcome, breaks the identity or the result."""
        import sys

        from repro.core.plan import GLOBAL_POOL
        from tests.conftest import expected_alltoall, fill_send_alltoall

        def fn(cart):
            t = cart.nbh.t
            send = fill_send_alltoall(cart.rank, t, 3)
            recv = np.zeros_like(send)
            handle = cart.alltoall_init(send, recv, algorithm="combining")
            assert handle.prepared is None
            handle.execute()
            first, ok = handle.prepared, True
            want = expected_alltoall(cart.topo, cart.nbh, cart.rank, 3)
            for epoch in range(1, 20):
                send += 1
                recv[:] = 0
                handle.execute()
                ok &= handle.prepared is first
                ok &= bool(np.array_equal(recv, want + epoch))
            handle.free()
            return first, handle.prepared, ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = run_cartesian(
                (3, 3), NBH, fn, info={"backend": "batched"}, timeout=60
            )
        finally:
            sys.setswitchinterval(interval)
        first = out[0][0]
        assert first.plan.fused is not None
        assert all(p is first and freed is None and ok for p, freed, ok in out)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    def test_a_reduction_has_no_in_place_form(self):
        from repro.core import plan as plan_mod

        topo, m = CartTopology((3, 3)), 1 << 14
        sched, ssize, rsize = _make_reduce_case("allreduce", "sum", m=m)
        bufs = _make_bufs(topo.size, ssize, rsize)
        plan, _ = plan_mod.get_or_compile(sched, topo, bufs[0])
        assert (plan.delivery, plan.delivery_reason) == ("staged", "reduction")
        with pytest.raises(ScheduleError, match="no in-place form"):
            plan.deliver(bufs)


# ----------------------------------------------------------------------
# registry, selection
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_names(self):
        """Two executors; the retired names are rows of the alias
        table, not entries."""
        from repro.core.backend import ALIASES

        assert set(BACKENDS) == {"threaded", "batched"}
        assert ALIASES == {"lockstep": "batched", "shm": "batched"}
        for name, backend in BACKENDS.items():
            assert isinstance(backend, Backend)
            assert backend.name == name

    def test_lockstep_is_an_alias_of_batched(self, monkeypatch):
        """Each alias resolves to the batched singleton by name, through
        ``$REPRO_BACKEND`` and through a communicator, and an alltoall
        run through it produces the walk's bytes."""
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular")
        walk = _run_on(WALK, topo, sched, ssize, rsize)
        for name in ("lockstep", "shm"):
            assert get_backend(name) is BACKENDS["batched"]
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert get_backend(None) is BACKENDS["batched"]
            got = _run_on(get_backend(name), topo, sched, ssize, rsize)
            for r in range(topo.size):
                assert np.array_equal(got[r]["recv"], walk[r]["recv"]), r
            assert _alltoall_via_cart(name, runs_as="batched") == [True] * 9

    def test_registered_backends_lists_each_executor_once(self):
        from repro.apps import registered_backends

        names = registered_backends()
        executors = [get_backend(name) for name in names]
        assert len(set(map(id, executors))) == len(names) == len(BACKENDS)

    def test_get_backend_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert get_backend(None).name == "threaded"

    def test_get_backend_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "lockstep")
        assert get_backend(None).name == "batched"
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        assert get_backend(None).name == "threaded"

    def test_get_backend_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "lockstep")
        assert get_backend("threaded").name == "threaded"

    def test_get_backend_instance_passthrough(self):
        backend = LockstepBackend()
        assert get_backend(backend) is backend

    def test_get_backend_unknown(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("smoke-signals")

    def test_lockstep_requires_one_buffer_set_per_rank(self):
        topo = CartTopology((2, 2))
        sched, ssize, rsize = _make_case("alltoall", "trivial", "regular")
        for backend in (WALK, get_backend("batched")):
            with pytest.raises(ScheduleError, match="one buffer set per rank"):
                backend.execute_all(topo, sched, _make_bufs(2, ssize, rsize))


# ----------------------------------------------------------------------
# CartComm integration: all-ranks backends behind the rendezvous
# ----------------------------------------------------------------------


def _alltoall_via_cart(backend_name, runs_as=None):
    from tests.conftest import expected_alltoall, fill_send_alltoall

    def fn(cart):
        t = cart.nbh.t
        m = 4
        send = fill_send_alltoall(cart.rank, t, m)
        recv = np.zeros_like(send)
        cart.alltoall(send, recv, algorithm="combining")
        expect = expected_alltoall(cart.topo, cart.nbh, cart.rank, m)
        assert cart.backend.name == (runs_as or backend_name)
        return bool(np.array_equal(recv, expect))

    return run_cartesian((3, 3), NBH, fn, info={"backend": backend_name}, timeout=60)


class TestCartCommFunnel:
    def test_alltoall_lockstep_backend(self):
        """The alias is accepted; the communicator says what runs."""
        assert _alltoall_via_cart("lockstep", runs_as="batched") == [True] * 9

    def test_alltoall_batched_backend(self):
        assert _alltoall_via_cart("batched") == [True] * 9

    def test_backend_keyword(self):
        """The backend kw is honoured without an info dict."""
        from repro.core.cartcomm import cart_neighborhood_create
        from repro.mpisim.engine import Engine

        def fn(cart):
            return cart.backend.name

        def bootstrap(comm):
            cart = cart_neighborhood_create(
                comm, (2, 2), None, NBH, backend="lockstep"
            )
            return fn(cart)

        assert Engine(4, timeout=60).run(bootstrap) == ["batched"] * 4

    def test_reduce_funnel_combining_and_trivial(self):
        def fn(cart):
            t = cart.nbh.t
            send = np.full(3, float(cart.rank + 1))
            out_c = np.zeros(3)
            out_t = np.zeros(3)
            cart.reduce_neighbors(send, out_c, op="sum", algorithm="combining")
            cart.reduce_neighbors(send, out_t, op="sum", algorithm="trivial")
            # every rank has t in-neighbors on a torus; sum of (src+1)
            srcs = [
                cart.topo.translate(cart.rank, tuple(-o for o in off))
                for off in cart.nbh
            ]
            expect = float(sum(s + 1 for s in srcs))
            return (
                bool(np.allclose(out_c, expect)),
                bool(np.allclose(out_t, expect)),
                t,
            )

        res = run_cartesian(
            (3, 3), NBH, fn, info={"backend": "lockstep"}, timeout=60
        )
        assert all(c and t for c, t, _ in res)

    def test_nonblocking_falls_back_to_threaded_transport(self):
        """Split-phase ops need a per-rank transport; they must still work
        when the communicator's configured backend is all-ranks."""

        def fn(cart):
            t = cart.nbh.t
            m = 2
            from tests.conftest import expected_alltoall, fill_send_alltoall

            send = fill_send_alltoall(cart.rank, t, m)
            recv = np.zeros_like(send)
            req = cart.ialltoall(send, recv, algorithm="combining")
            req.wait()
            return bool(
                np.array_equal(recv, expected_alltoall(cart.topo, cart.nbh, cart.rank, m))
            )

        res = run_cartesian((3, 3), NBH, fn, info={"backend": "lockstep"}, timeout=60)
        assert res == [True] * 9


# ----------------------------------------------------------------------
# the rendezvous: in place, message-free, and failing cleanly
# ----------------------------------------------------------------------

#: the walk (as an instance: it has no registry name) and the executor
ALL_RANKS_IN_THREADS = [pytest.param(WALK, id="lockstep"), "batched"]


def _definition_holds(dims, m, outcomes):
    """``outcomes[r] = (send before, send after, recv after)`` of a
    regular alltoall over ``NBH``: check it against the definition."""
    sched, _, _ = _make_case("alltoall", "combining", "regular", m=m)
    before = [{"send": o[0]} for o in outcomes]
    after = [{"send": o[1], "recv": o[2]} for o in outcomes]
    assert_matches_definition(CartTopology(dims), sched, before, after)


class TestRendezvousInPlace:
    @pytest.mark.parametrize("backend", ALL_RANKS_IN_THREADS)
    def test_every_launcher_fills_the_callers_own_arrays(self, backend):
        dims, m = (3, 3), 5
        t = NBH.t

        def fn(cart):
            def fresh(epoch):
                rng = np.random.default_rng(100 * epoch + cart.rank)
                return rng.integers(0, 256, t * m).astype(np.uint8)

            out = []
            # a blocking call
            send, recv = fresh(0), np.zeros(t * m, np.uint8)
            cart.alltoall(send.copy(), recv, algorithm="combining")
            out.append((send, send, recv))
            # an i* call (split-phase: always the threaded transport)
            send, recv = fresh(1), np.zeros(t * m, np.uint8)
            cart.ialltoall(send.copy(), recv, algorithm="combining").wait()
            out.append((send, send, recv))
            # three executions of one persistent handle
            send, recv = fresh(2), np.zeros(t * m, np.uint8)
            handle = cart.alltoall_init(send, recv, algorithm="combining")
            assert handle.buffers["recv"] is recv
            for epoch in (2, 3, 4):
                send[:] = fresh(epoch)
                recv[:] = 0
                before = send.copy()
                handle.execute()
                assert handle.buffers["recv"] is recv
                out.append((before, send.copy(), recv.copy()))
            handle.free()
            return out

        per_rank = run_cartesian(
            dims, NBH, fn, info={"backend": backend}, timeout=60
        )
        for launch in zip(*per_rank):
            _definition_holds(dims, m, launch)

    @pytest.mark.parametrize("backend", ALL_RANKS_IN_THREADS)
    def test_collective_posts_no_messages(self, backend):
        from repro.mpisim.engine import Engine

        engine = Engine(9, timeout=60, tracing=True)

        def fn(cart):
            t = cart.nbh.t
            send = np.arange(t * 4, dtype=np.uint8)
            recv = np.zeros_like(send)
            handle = cart.alltoall_init(send, recv, algorithm="combining")
            stream = engine.trace.for_rank(cart.rank)
            mark = len(stream)
            cart.alltoall(send, recv, algorithm="combining")
            handle.execute()
            events = [e.kind for e in stream[mark:]]
            handle.free()
            return events

        for events in run_cartesian(
            (3, 3), NBH, fn, info={"backend": backend}, engine=engine
        ):
            assert "isend" not in events and "irecv" not in events

    @pytest.mark.parametrize(
        "backend",
        [
            "threaded",
            pytest.param(WALK, id="lockstep"),
            "batched",
            "shm",
        ],
    )
    def test_read_only_send_buffer(self, backend):
        """Only what the plan writes is handed back, so a buffer it only
        reads may be read-only — on every backend."""
        from tests.conftest import expected_alltoall, fill_send_alltoall

        def fn(cart):
            send = fill_send_alltoall(cart.rank, cart.nbh.t, 3)
            send.flags.writeable = False
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm="combining")
            return bool(
                np.array_equal(
                    recv, expected_alltoall(cart.topo, cart.nbh, cart.rank, 3)
                )
            )

        assert run_cartesian(
            (2, 2), NBH, fn, info={"backend": backend}, timeout=60
        ) == [True] * 4

    @pytest.mark.parametrize("launch", ["blocking", "init", "restart"])
    @pytest.mark.parametrize("name", ["batched", "lockstep"])
    def test_mismatched_collective_is_refused_on_every_rank(self, name, launch):
        """Whoever drives the meeting runs one schedule over everybody's
        buffers, so a rank that calls a different collective of the same
        total size (here rank 5: ``alltoallv`` with ragged counts where
        the others call ``alltoall``) used to "complete" with whatever
        the last arriver had bound.  It is refused — on every rank,
        naming the ranks and operations, before any byte moves — as the
        threaded backend's message matching would.  So is a later start
        of the wrong handle (``restart``: rank 5 starts its handle B,
        bound to the same schedule, where the others restart A), which
        would otherwise run with the buffers A bound on rank 5."""
        from repro.core.plan import GLOBAL_POOL
        from repro.mpisim.engine import Engine
        from repro.mpisim.exceptions import RankFailedError

        counts = [1, 7, 4, 4, 4, 4, 4, 4]
        seen = {}

        def fn(cart):
            send = np.arange(32, dtype=np.uint8)
            recv = np.full(32, 0xAB, np.uint8)
            other = np.full(32, 0xAB, np.uint8)
            if cart.rank == 5 and launch != "restart":
                args = (send, counts, recv, counts)
                call, init = cart.alltoallv, cart.alltoallv_init
            else:
                args = (send, recv)
                call, init = cart.alltoall, cart.alltoall_init
            handles = []
            try:
                if launch == "blocking":
                    call(*args, algorithm="combining")
                elif launch == "init":
                    handles.append(init(*args, algorithm="combining"))
                    handles[0].execute()
                else:
                    handles.append(init(*args, algorithm="combining"))
                    handles.append(init(send, other, algorithm="combining"))
                    handles[0].execute()
                    recv[:] = 0xAB
                    handles[cart.rank == 5].execute()
            except ScheduleError as exc:
                untouched = bool((recv == 0xAB).all() and (other == 0xAB).all())
                seen[cart.rank] = (str(exc), untouched)
                raise
            finally:
                for handle in handles:
                    handle.free()

        with pytest.raises(RankFailedError) as ei:
            run_cartesian(
                (4, 4), NBH, fn, info={"backend": name},
                engine=Engine(16, timeout=60),
            )
        assert isinstance(ei.value.cause, ScheduleError)
        assert sorted(seen) == list(range(16))
        for message, untouched in seen.values():
            if launch == "restart":
                assert "rank 5 and rank 0 did not start the same persistent handle" in message
                assert "same init call" in message
            else:
                assert "rank 5 called ('alltoallv', 'alltoall')" in message
                assert "rank 0 called ('alltoall', 'alltoall')" in message
                assert "different schedule" not in message  # the names say it
            assert untouched
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

        # Same operation and kind on every rank, but per-rank layouts
        # (an uneven decomposition: local blocks of 17 and 16 columns):
        # the two names would print the same, so the refusal says where
        # the schedules differ and which backend runs per-rank layouts.
        # (An app refuses such a board before any rank starts; ranks
        # that bind their own halo layouts meet with it.)
        from repro.stencil.decomp import GridDecomposition
        from repro.stencil.halo import halo_specs

        decomp = GridDecomposition(CartTopology((4, 4)), (66, 65))

        def ragged(cart):
            interior = decomp.local_shape(cart.rank)
            grid = np.zeros([n + 2 for n in interior], np.uint8)
            sends, recvs = halo_specs(interior, 1, cart.nbh, grid.itemsize)
            handle = cart.alltoallw_init(
                {"grid": grid}, sends, recvs, algorithm="combining"
            )
            try:
                handle.execute()
            finally:
                handle.free()

        with pytest.raises(RankFailedError) as ei:
            run_cartesian((4, 4), NBH, ragged, info={"backend": name})
        message = str(ei.value.cause)
        assert isinstance(ei.value.cause, ScheduleError)
        assert "rank 1 called ('alltoallw', 'alltoall')" in message
        assert "round 0 moves 18 B against 19 B" in message
        assert "one schedule for all ranks" in message
        assert "backend='threaded'" in message
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    def test_equal_schedules_meet_without_sharing_an_object(self):
        """Identity is only the fast path: ranks whose schedules are
        equal but distinct objects (an eviction between two binds, a
        schedule built per rank) are one collective."""
        from repro.mpisim.engine import Engine

        topo = CartTopology((3, 3))

        def fn(comm):
            sched, ssize, rsize = _make_case("alltoall", "combining", "regular")
            bufs = _make_bufs(topo.size, ssize, rsize)[comm.rank]
            get_backend("batched").run(comm, topo, sched, bufs)
            return bufs

        after = Engine(9, timeout=60).run(fn)
        sched, ssize, rsize = _make_case("alltoall", "combining", "regular")
        assert_matches_definition(
            topo, sched, _make_bufs(topo.size, ssize, rsize), after
        )

    @pytest.mark.parametrize("name", ["batched", "lockstep"])
    def test_ranks_may_each_pass_their_own_callable(self, name):
        """A custom operator's token names a callable, not content, so
        ranks that each built their own (a lambda in the rank function)
        bound schedules that differ in nothing else: one collective, as
        on the threaded backend — not a mismatch."""

        def fn(cart):
            send = np.full(2, 1 << cart.rank, np.int64)
            recv = np.zeros(2, np.int64)
            cart.reduce_neighbors(
                send, recv, op=lambda a, b: a | b, algorithm="combining"
            )
            return recv.tolist()

        everyone_else = [[0b111111111 ^ (1 << r)] * 2 for r in range(9)]
        for backend in ("threaded", name):
            assert run_cartesian(
                (3, 3), NBH, fn, info={"backend": backend}, timeout=60
            ) == everyone_else, backend

    def test_execution_error_is_rank_zeros_and_engine_recovers(self):
        """A failure inside the rendezvous (here: a reduction the
        executor refuses because the mesh's first row has no neighbour
        to hear from) is raised on every rank, so it is reported as
        rank 0's with the original cause; nothing leaks and the same
        engine then runs a correct collective."""
        from repro.core.plan import GLOBAL_POOL
        from repro.mpisim.engine import Engine
        from repro.mpisim.exceptions import RankFailedError
        from tests.conftest import expected_alltoall, fill_send_alltoall

        engine = Engine(9, timeout=60)

        def bad(cart):
            send, recv = np.ones(2, np.int64), np.zeros(2, np.int64)
            cart.reduce_neighbors(send, recv, op="sum", algorithm="trivial")

        with pytest.raises(RankFailedError) as ei:
            run_cartesian(
                (3, 3), [(1, 0)], bad, periods=(False, False),
                info={"backend": "batched"}, engine=engine,
            )
        assert ei.value.rank == 0
        assert isinstance(ei.value.cause, ScheduleError)
        assert "received no contributions" in str(ei.value.cause)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

        def good(cart):
            send = fill_send_alltoall(cart.rank, cart.nbh.t, 4)
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm="combining")
            return bool(
                np.array_equal(
                    recv, expected_alltoall(cart.topo, cart.nbh, cart.rank, 4)
                )
            )

        assert run_cartesian(
            (3, 3), NBH, good, info={"backend": "batched"}, engine=engine
        ) == [True] * 9
        assert GLOBAL_POOL.stats().outstanding_bytes == 0


def test_threaded_backend_execute_all_matches_lockstep():
    """ThreadedBackend.execute_all spins a private engine — same result."""
    topo = CartTopology((2, 2))
    sched, ssize, rsize = _make_case("alltoall", "combining", "regular")
    assert isinstance(BACKENDS["threaded"], ThreadedBackend)
    assert_backends_agree(topo, sched, ssize, rsize, ["lockstep", "threaded"])


# ----------------------------------------------------------------------
# block lanes: a selector indexes whole blocks, not machine words
# ----------------------------------------------------------------------


def _kernel_lanes(plan):
    return {
        lane
        for phase in plan.phases
        for rnd in phase
        for kernel in (rnd.send, rnd.recv)
        if kernel is not None
        for lane in kernel.lanes
    }


class TestBlockLanes:
    @pytest.mark.parametrize("m", [24, 40, 256])
    @pytest.mark.parametrize("variant", ["regular", "v", "w"])
    @pytest.mark.parametrize("op", ["alltoall", "allgather"])
    @pytest.mark.parametrize("backend", ["threaded", "batched"])
    def test_kernels_equal_the_walk_byte_for_byte(self, backend, op, variant, m):
        """At m ∈ {24, 40, 256} a regular layout's selectors index
        whole blocks (lanes of m bytes or multiples, wider than any
        machine word); v and w layouts reach what their offsets allow,
        down to a byte.  Per rank (``threaded``) and for
        all ranks (``batched``, blocking and prepared) every byte equals
        the walk, and the definition holds."""
        from repro.core import plan as plan_mod
        from repro.core.backend.batched import BatchedBackend

        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, "combining", variant, m=m)
        start = _make_bufs(topo.size, ssize, rsize)
        plan, _ = plan_mod.get_or_compile(sched, topo, start[0])
        if variant == "regular":
            assert all(lane % m == 0 for lane in _kernel_lanes(plan))
        want, got = _snapshot(start), _snapshot(start)
        WALK.execute_all(topo, sched, want)
        executor(backend).execute_all(topo, sched, got)
        _assert_same_buffers(got, want, f"{backend} vs the walk")
        assert_matches_definition(topo, sched, start, got)
        if backend == "batched":
            prepared = _snapshot(start)
            BatchedBackend().prepare(topo, sched, plan, prepared)()
            _assert_same_buffers(prepared, want, "prepared vs the walk")

    @pytest.mark.parametrize("backend", ["threaded", "batched"])
    def test_cannon_padded_rows_move_at_a_24_byte_lane(self, backend):
        """Cannon's panels are rows of 6 int64 in rows of 9: every row
        offset and length is a multiple of 24 B, so each index of the
        ``alltoallw`` kernels moves three words (``V24``), and the
        product is exact on either backend."""
        from repro.apps import CannonMatmul
        from repro.apps.cannon import _row_blockset
        from repro.core.plan import compile_blockset

        rows = _row_blockset("A", 6, 6 * 8, 9 * 8)
        kernel = compile_blockset(rows.coalesced_runs(), {"A": 6 * 9 * 8})
        assert kernel.lanes == (24,) and kernel.uses_indices
        app = CannonMatmul(24, 24, 24, 4, pad=3, seed=5)
        assert np.array_equal(app.run(backend=backend).output, app.A @ app.B)
