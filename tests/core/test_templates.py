"""Class templates: a regular collective at a new block size is its
class's one build scaled, and its plan the class's lowering scaled.

Proposition 3.1 makes a schedule a function of the neighbourhood alone;
the block size ``m`` only scales its extents.  For every ``cold_start``
class (kind × algorithm × d) on (4,4) and (3,3,3), and ``m`` from 8 B
to 4096 B across :data:`~repro.core.plan.INDEX_RUN_LIMIT`: the
instantiated schedule has the normal form of a fresh build, the
instantiated plan the digest of a fresh lowering, and both backends
deliver what the definition says.  A size decision that flips is a
real lowering (a miss); alltoallv/w and over-sized buffers never take
the template path.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.analyze.certificates import GLOBAL_STORE, normal_form, plan_digest
from repro.analyze.config import verify_on_build
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.api import run_cartesian
from repro.core.builders import SCHEDULE_BUILDERS, schedule_kind
from repro.core.plan import INDEX_RUN_LIMIT, compile_batched_plan, translate_all
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology

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


def build(d, kind, algorithm, m):
    """A fresh build of the class at block size ``m``, as a
    communicator's regular call makes it."""
    nbh = moore_neighborhood(d, 1, include_self=False)
    if kind == "reduce_neighbors":
        return SCHEDULE_BUILDERS[schedule_kind("reduce", algorithm)](
            nbh, m_bytes=m, dtype=np.dtype(np.int64), op="sum"
        ).prepare()
    sends = 1 if kind == "allgather" else nbh.t
    send = uniform_block_layout([m] * sends, "send")
    recv = uniform_block_layout([m] * nbh.t, "recv")
    builder = SCHEDULE_BUILDERS[schedule_kind(kind, algorithm)]
    return builder(nbh, send[0] if kind == "allgather" else send, recv).prepare()


def torus(d):
    return CartTopology(SHAPES[d], [True] * d)


@pytest.mark.parametrize("d,kind,algorithm", CLASSES)
def test_instances_are_the_builds_and_lowerings_they_replace(d, kind, algorithm):
    first, *rest = SWEEP
    template = build(d, kind, algorithm, first).as_template(first)
    plan_mod.get_or_compile(template.schedule, torus(d), sizes=template.sizes)
    for m in rest:
        instance = template.instantiate(m)
        fresh = build(d, kind, algorithm, m)
        form = normal_form(fresh)
        assert normal_form(instance) == form
        sizes = {n: v * m // first for n, v in template.sizes.items()}
        plan, _ = plan_mod.get_or_compile(instance, torus(d), sizes=sizes)
        lowered = compile_batched_plan(fresh, torus(d), sizes)
        assert plan_digest(plan, form.granule) == plan_digest(lowered, form.granule)
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
    info = schedule_cache.cache_info()
    assert (info.builds, info.instantiated) == (1, len(SWEEP) - 1)
    assert plan_mod.plan_cache_info().instantiated >= 1
    if verify_on_build():  # an instance's plan digest is its template's
        assert GLOBAL_STORE.info().inherited.plan >= 1


def test_a_flipped_decision_is_a_miss_and_a_new_template():
    d, kind, algorithm = 2, "alltoall", "combining"
    template = build(d, kind, algorithm, 8).as_template(8)
    plan_mod.get_or_compile(template.schedule, torus(d), sizes=template.sizes)
    [(decided, (_, lowered))] = template.plans.items()
    assert plan_mod._decisions(lowered, 4096, 8) != decided[1]  # index → slice loop
    plan_mod.plan_cache_reset()
    sizes = {n: v * 512 for n, v in template.sizes.items()}
    plan, hit = plan_mod.get_or_compile(template.instantiate(4096), torus(d), sizes=sizes)
    assert not (hit or plan.instantiated)
    info = plan_mod.plan_cache_info()
    assert (info.misses, info.instantiated) == (1, 0)
    assert len(template.plans) == 2  # the flipped lowering is filed too
    sizes = {n: v * 513 for n, v in template.sizes.items()}
    plan, _ = plan_mod.get_or_compile(template.instantiate(8 * 513), torus(d), sizes=sizes)
    assert plan.instantiated  # from the new one


def test_v_w_and_oversized_buffers_never_take_the_template_path():
    nbh = moore_neighborhood(2, 1, include_self=False)
    t = nbh.t

    def irregular(cart):
        for m in (8, 16, 24):
            send, recv = np.zeros(t * m, np.uint8), np.zeros(t * m, np.uint8)
            cart.alltoallv(send, [m] * t, recv, [m] * t, algorithm="combining")
            types = uniform_block_layout([m] * t, "send")
            cart.alltoallw(
                {"send": send, "recv": recv}, types,
                uniform_block_layout([m] * t, "recv"), algorithm="combining",
            )

    run_cartesian((4, 4), nbh, irregular, info={"backend": "batched"})
    assert schedule_cache.cache_info().instantiated == 0
    assert plan_mod.plan_cache_info().instantiated == 0

    template = build(2, "alltoall", "combining", 8).as_template(8)
    plan_mod.get_or_compile(template.schedule, torus(2), sizes=template.sizes)
    padded = {n: v * 2 + 64 for n, v in template.sizes.items()}
    plan, _ = plan_mod.get_or_compile(template.instantiate(16), torus(2), sizes=padded)
    assert not plan.instantiated
    assert len(template.plans) == 1  # and nothing filed for its class


def test_threads_instantiating_one_class_lose_nothing():
    """Sixteen threads scale one class's plan at once, under a short
    switch interval: each gets its fresh lowering's digest, and every
    plan is booked, as a miss or an instantiation."""
    template = build(2, "alltoall", "combining", 8).as_template(8)
    plan_mod.get_or_compile(template.schedule, torus(2), sizes=template.sizes)
    plan_mod.plan_cache_reset()
    blocks = [8 * k for k in range(2, 18)]
    got = {}

    def sizes(m):
        return {n: v * m // 8 for n, v in template.sizes.items()}

    def scale(m):
        got[m] = plan_mod.get_or_compile(template.instantiate(m), torus(2), sizes=sizes(m))[0]

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
    assert info.misses + info.instantiated == len(blocks) == len(got)
    for m, plan in got.items():
        fresh = compile_batched_plan(build(2, "alltoall", "combining", m), torus(2), sizes(m))
        assert plan_digest(plan, m) == plan_digest(fresh, m)
