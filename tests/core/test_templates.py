"""Plan classes: a lowering is keyed by its schedule's normal form, and a
real lowering of the class at another block size is scaled, not redone.

Proposition 3.1 makes a schedule a function of the neighbourhood alone;
the block size ``m`` only scales its extents.  Every schedule-cache miss
builds; :func:`repro.core.plan.lower` keys the lowering by the build's
normal form, topology and buffer sizes in granules.  For every
``cold_start`` class (kind × algorithm × d) on (4,4) and (3,3,3), and
``m`` from 8 B to 4096 B across :data:`~repro.core.plan.INDEX_RUN_LIMIT`:
fresh builds lower by instantiation with the digest of a fresh lowering,
and both backends deliver what the definition says.  A size decision
that flips is a real lowering that joins the class; a schedule no
communicator names reaches the key; a custom-op reduction never
instantiates; clearing the caches forgets the classes.  A class lives
while one of its plans is filed on a live schedule, so each case holds
on to what it lowered.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.analyze.certificates import GLOBAL_STORE, normal_form, plan_digest
from repro.analyze.config import verify_on_build
from repro.analyze.schedule_verifier import _plan_sizes
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.api import run_cartesian
from repro.core.builders import SCHEDULE_BUILDERS, schedule_kind
from repro.core.plan import INDEX_RUN_LIMIT, compile_batched_plan, translate_all
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.serve.protocol import ScheduleRequest

SHAPES = {2: (4, 4), 3: (3, 3, 3)}
CLASSES = [
    (d, kind, algorithm)
    for d in SHAPES
    for kind in ("alltoall", "allgather", "reduce_neighbors")
    for algorithm in ("combining", "trivial")
]
SWEEP = (8, 24, 520, INDEX_RUN_LIMIT, INDEX_RUN_LIMIT + 8, 4096)


@pytest.fixture(autouse=True)
def cold():
    schedule_cache.cache_clear()
    plan_mod.plan_cache_reset()
    GLOBAL_STORE.clear()
    yield
    schedule_cache.cache_clear()
    GLOBAL_STORE.clear()


def build(d, kind, algorithm, m, op="sum"):
    """A fresh build of the class at block size ``m``, as a
    communicator's regular call makes it."""
    nbh = moore_neighborhood(d, 1, include_self=False)
    if kind == "reduce_neighbors":
        return SCHEDULE_BUILDERS[schedule_kind("reduce", algorithm)](
            nbh, m_bytes=m, dtype=np.dtype(np.int64), op=op
        ).prepare()
    sends = 1 if kind == "allgather" else nbh.t
    send = uniform_block_layout([m] * sends, "send")
    recv = uniform_block_layout([m] * nbh.t, "recv")
    builder = SCHEDULE_BUILDERS[schedule_kind(kind, algorithm)]
    return builder(nbh, send[0] if kind == "allgather" else send, recv).prepare()


def torus(d):
    return CartTopology(SHAPES[d], [True] * d)


def lowered(schedule, d=2, sizes=None):
    """``schedule``'s plan through the plan cache, at its regular sizes."""
    sizes = _plan_sizes(schedule) if sizes is None else sizes
    return plan_mod.get_or_compile(schedule, torus(d), sizes=sizes)[0]


@pytest.mark.parametrize("d,kind,algorithm", CLASSES)
def test_instances_are_the_builds_and_lowerings_they_replace(d, kind, algorithm):
    for m in SWEEP:
        fresh = build(d, kind, algorithm, m)
        form = normal_form(fresh)
        plan = lowered(fresh, d)
        assert m != SWEEP[0] or not plan.instantiated
        reference = compile_batched_plan(fresh, torus(d), _plan_sizes(fresh))
        assert plan_digest(plan, form.granule) == plan_digest(reference, form.granule)
    info = plan_mod.plan_cache_info()
    assert info.instantiated >= 1
    assert info.misses + info.instantiated == len(SWEEP)


def definition(d, kind, send):
    """What every rank receives, from the collective's definition:
    block ``i`` from source ``r − N[i]`` (summed, for the reduction)."""
    nbh = moore_neighborhood(d, 1, include_self=False)
    sources = [translate_all(torus(d), [-o for o in off]) for off in nbh.offsets]
    if kind == "reduce_neighbors":
        return sum(send[src] for src in sources)
    if kind == "allgather":
        return np.stack([send[src] for src in sources], axis=1)
    return np.stack([send[src, i] for i, src in enumerate(sources)], axis=1)


@pytest.mark.parametrize("backend", ["batched", "threaded"])
@pytest.mark.parametrize("d,kind,algorithm", CLASSES)
def test_instances_deliver_the_definition(d, kind, algorithm, backend):
    nbh = moore_neighborhood(d, 1, include_self=False)
    for m in SWEEP:

        def collective(cart):
            rng = np.random.default_rng([m, cart.rank])
            if kind == "reduce_neighbors":
                send = rng.integers(0, 1000, m // 8)
                recv = np.zeros_like(send)
                cart.reduce_neighbors(send, recv, op="sum", algorithm=algorithm)
                return send, recv
            blocks = 1 if kind == "allgather" else nbh.t
            send = rng.integers(0, 256, (blocks, m), dtype=np.uint8)
            recv = np.zeros((nbh.t, m), dtype=np.uint8)
            getattr(cart, kind)(send.reshape(-1), recv.reshape(-1), algorithm=algorithm)
            return send, recv

        out = run_cartesian(SHAPES[d], nbh, collective, info={"backend": backend})
        send = np.stack([s for s, _ in out])
        recv = np.stack([r for _, r in out])
        if kind == "allgather":
            send = send[:, 0]
        np.testing.assert_array_equal(recv, definition(d, kind, send))
    assert schedule_cache.cache_info().builds == len(SWEEP)  # every miss builds
    assert plan_mod.plan_cache_info().instantiated >= 1
    if verify_on_build():  # an instance's plan digest is its first's
        assert GLOBAL_STORE.info().inherited.plan >= 1


def test_a_flipped_decision_is_a_miss_and_a_new_template():
    """A size decision that differs at the new scale is a real lowering,
    filed beside the first under the same key; a later size that agrees
    with it is scaled from it."""
    first = lowered(build(2, "alltoall", "combining", 8))
    [filed] = plan_mod._CLASSES.values()
    [(decided, (granule, ref))] = filed.items()
    assert (granule, ref()) == (8, first)
    assert plan_mod._decisions(first, 4096, 8) != decided  # index → slice loop
    before = plan_mod.plan_cache_info()
    flipped = lowered(build(2, "alltoall", "combining", 4096))
    assert not flipped.instantiated
    info = plan_mod.plan_cache_info()
    assert (info.misses - before.misses, info.instantiated - before.instantiated) == (1, 0)
    assert len(filed) == 2  # the flipped lowering is filed too
    assert lowered(build(2, "alltoall", "combining", 8 * 513)).instantiated


def test_padded_buffers_are_a_class_of_their_own():
    """Buffers larger than the blocks need are other sizes in granules:
    they never share the regular call's plan, only one padded alike."""
    held = [lowered(build(2, "alltoall", "combining", 8))]

    def padded(m):
        sched = build(2, "alltoall", "combining", m)
        held.append(lowered(sched, sizes={n: v * 2 + 4 * m for n, v in _plan_sizes(sched).items()}))
        return held[-1]

    assert not padded(16).instantiated
    assert padded(32).instantiated
    assert lowered(build(2, "alltoall", "combining", 24)).instantiated


def test_a_schedule_no_communicator_names_reaches_the_key():
    """A daemon request's build and an ``alltoallv`` at uniformly scaled
    counts are keyed like any other lowering."""
    nbh = moore_neighborhood(2, 1, include_self=False)

    def request(m):
        return ScheduleRequest.from_dict({
            "kind": "alltoall", "algorithm": "combining", "offsets": nbh.offsets.tolist(),
            "dims": list(SHAPES[2]),
            "send": [[["send", m * i, m]] for i in range(nbh.t)],
            "recv": [[["recv", m * i, m]] for i in range(nbh.t)],
        }).build().prepare()

    first = lowered(request(8))
    assert not first.instantiated
    assert lowered(request(40)).instantiated

    def irregular(cart):
        for m in (8, 16, 24):
            send, recv = np.zeros(nbh.t * m, np.uint8), np.zeros(nbh.t * m, np.uint8)
            cart.alltoallv(send, [m] * nbh.t, recv, [m] * nbh.t, algorithm="trivial")

    before = plan_mod.plan_cache_info().instantiated
    run_cartesian(SHAPES[2], nbh, irregular, info={"backend": "batched"})
    assert plan_mod.plan_cache_info().instantiated - before >= 2


def test_a_custom_op_reduction_never_instantiates():
    """A process-local operator has no normal form: no key, every size
    a real lowering."""

    def add(a, b):
        return a + b

    plans = [lowered(build(2, "reduce_neighbors", "combining", m, op=add)) for m in (8, 16, 24)]
    assert normal_form(build(2, "reduce_neighbors", "combining", 8, op=add)) is None
    assert not any(plan.instantiated or plan.class_key for plan in plans)
    assert plan_mod.plan_cache_info().misses == 3


def test_clearing_the_caches_forgets_the_classes():
    """What tests clear between cases — the schedule cache and the plan
    counters — drops the classes too: the next size is a real lowering."""
    first = lowered(build(2, "allgather", "trivial", 8))
    assert lowered(build(2, "allgather", "trivial", 16)).instantiated
    schedule_cache.cache_clear()
    plan_mod.plan_cache_reset()
    assert not plan_mod._CLASSES and not first.instantiated
    assert not lowered(build(2, "allgather", "trivial", 24)).instantiated
    assert plan_mod.plan_cache_info()[:2] == (0, 1)


def test_threads_instantiating_one_class_lose_nothing():
    """Sixteen threads scale one class's plan at once, under a short
    switch interval: each gets its fresh lowering's digest, and every
    plan is booked, as a miss or an instantiation."""
    first = lowered(build(2, "alltoall", "combining", 8))
    before = plan_mod.plan_cache_info()
    blocks = [8 * k for k in range(2, 18)]
    got = {}

    def scale(m):
        got[m] = lowered(build(2, "alltoall", "combining", m))

    threads = [threading.Thread(target=scale, args=(m,)) for m in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    info = plan_mod.plan_cache_info()
    booked = info.misses + info.instantiated - before.misses - before.instantiated
    assert booked == len(blocks) == len(got)
    assert info.instantiated > before.instantiated and first.class_key
    for m, plan in got.items():
        fresh = build(2, "alltoall", "combining", m)
        reference = compile_batched_plan(fresh, torus(2), _plan_sizes(fresh))
        assert plan_digest(plan, m) == plan_digest(reference, m)
