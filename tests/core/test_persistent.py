"""Persistent (init) operations."""

import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.neighborhood import Neighborhood
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import MpiSimError

NBH = moore_neighborhood(2, 1, include_self=False)


class TestLifecycle:
    def test_start_wait_executes(self):
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            send = np.full(t, float(cart.rank))
            recv = np.zeros(t)
            op = cart.alltoall_init(send, recv, algorithm="combining")
            op.start()
            op.wait()
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert recv[i] == src
            return op.executions

        assert run_cartesian((3, 3), NBH, fn) == [1] * 9

    def test_double_start_raises(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.alltoall_init(np.zeros(t), np.zeros(t))
            op.start()
            try:
                op.start()
            except MpiSimError:
                op.wait()
                return "raised"
            return "no-raise"

        assert set(run_cartesian((3, 3), NBH, fn)) == {"raised"}

    def test_wait_without_start_raises(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.alltoall_init(np.zeros(t), np.zeros(t))
            try:
                op.wait()
            except MpiSimError:
                return "raised"
            return "no-raise"

        assert set(run_cartesian((3, 3), NBH, fn)) == {"raised"}

    def test_callable_form(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.allgather_init(
                np.full(2, float(cart.rank)), np.zeros(2 * t)
            )
            op()
            op()
            return op.executions

        assert run_cartesian((3, 3), NBH, fn) == [2] * 9


class TestReuse:
    def test_buffer_updates_between_executions(self):
        """The Listing 3 iteration pattern: same handle, fresh data."""
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            send = np.zeros(t)
            recv = np.zeros(t)
            op = cart.alltoall_init(send, recv, algorithm="combining")
            results = []
            for it in range(3):
                send[:] = cart.rank * 100 + it
                op.execute()
                results.append(recv.copy())
            for it, snapshot in enumerate(results):
                for i, off in enumerate(cart.nbh):
                    src = topo.translate(cart.rank, tuple(-o for o in off))
                    assert snapshot[i] == src * 100 + it
            return True

        assert all(run_cartesian((3, 3), NBH, fn))

    def test_temp_buffer_allocated_once(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.alltoall_init(np.zeros(t), np.zeros(t),
                                    algorithm="combining")
            temp_before = op.buffers.get("temp")
            op.execute()
            op.execute()
            return temp_before is op.buffers.get("temp")

        assert all(run_cartesian((3, 3), NBH, fn))

    def test_metrics_exposed(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.alltoall_init(np.zeros(t), np.zeros(t),
                                    algorithm="combining")
            return (op.rounds, op.volume_blocks)

        res = run_cartesian((3, 3), NBH, fn)
        assert res[0] == (NBH.combining_rounds, NBH.alltoall_volume)


class TestBoundHandle:
    """A handle's first start binds its execution in ``handle.prepared``
    on every backend; on ``threaded`` each rank binds its own plan
    view, transport and buffers, and a later start runs the phase loop
    only."""

    N = 5

    @staticmethod
    def _starts(backend, n, *, warm=False, engine=None):
        """Per rank: ``n`` starts of one handle (after one blocking call
        when ``warm``); returns the rank's OpStats as JSON with the
        backend name taken out, and whether the handle kept a binding."""

        def fn(cart):
            t = cart.nbh.t
            send = np.arange(2 * t, dtype=np.float64) + cart.rank
            recv = np.zeros(2 * t)
            if warm:
                cart.alltoall(send, recv, algorithm="combining")
                cart.stats.reset()
            op = cart.alltoall_init(send, recv, algorithm="combining")
            try:
                for _ in range(n):
                    op.execute()
                bound = op.prepared is not None
            finally:
                op.free()
            stats = cart.stats.to_json()
            for rec in stats["records"]:
                rec.pop("backend")
            for key in ("cache", "plans"):
                stats[key].pop("by_backend")
            stats["bytes_packed"] = sum(stats["bytes_packed"].values())
            stats["bytes_copied"] = sum(stats["bytes_copied"].values())
            return stats, bound

        info = {"backend": backend, "collect_stats": True}
        return run_cartesian((3, 3), NBH, fn, info=info, engine=engine)

    def test_threaded_looks_its_plan_up_on_the_first_start_only(
        self, monkeypatch
    ):
        from repro.core import plan as plan_mod

        calls = []
        real = plan_mod.get_or_compile

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(plan_mod, "get_or_compile", counted)
        out = self._starts("threaded", self.N)
        assert len(calls) == 9  # p lookups for N starts
        assert all(bound for _stats, bound in out)
        for stats, _bound in out:
            assert stats["records"][0]["calls"] == self.N
            assert stats["plans"]["hits"] + stats["plans"]["misses"] == self.N

    def test_threaded_books_what_batched_books(self):
        # warm: the plan is on file, so every lookup is a hit on both
        threaded = self._starts("threaded", self.N, warm=True)
        batched = self._starts("batched", self.N, warm=True)
        assert [s for s, _ in threaded] == [s for s, _ in batched]
        assert threaded[0][0]["plans"] == {"hits": self.N, "misses": 0}

    def test_traced_starts_record_what_blocking_calls_record(self):
        """Every start of a bound handle traces as a blocking call does —
        begin/end marks, one isend and one irecv per round — so netsim
        replays a persistent run unchanged."""
        from repro.mpisim.engine import Engine

        def blocking(cart):
            t = cart.nbh.t
            send = np.arange(2 * t, dtype=np.float64)
            recv = np.zeros(2 * t)
            for _ in range(self.N):
                cart.alltoall(send, recv, algorithm="combining")

        ref = Engine(9, timeout=60.0, tracing=True)
        run_cartesian((3, 3), NBH, blocking, info={"backend": "threaded"}, engine=ref)
        eng = Engine(9, timeout=60.0, tracing=True)
        self._starts("threaded", self.N, engine=eng)
        rounds = NBH.combining_rounds
        for rank in range(9):
            events = eng.trace.for_rank(rank)
            kinds = [e.kind for e in events]
            notes = [e.note for e in events if e.kind == "mark"]
            assert kinds.count("isend") == kinds.count("irecv") == self.N * rounds
            assert sum(n.startswith("begin ") for n in notes) == self.N
            assert sum(n.startswith("end ") for n in notes) == self.N
            assert events == ref.trace.for_rank(rank)


class TestBoundInPlace:
    """A ``batched`` handle whose plan runs in place binds it once, in
    its ``Prepared``, as a list of pre-sliced (destination, source)
    pairs; every later start is one pass over that list."""

    #: bytes per block: large enough for the in-place form
    M = 4096
    STARTS = 4
    #: tori combine; meshes (``recv_rows`` masks, rounds with a
    #: missing half) take the trivial schedule
    CASES = [
        ("alltoall", "combining", (3, 3), (True, True), np.uint8),
        ("alltoall", "trivial", (2, 4), (False, True), np.float64),
        ("allgather", "combining", (3, 3), (True, True), np.int32),
        ("allgather", "trivial", (2, 3), (False, False), np.float64),
    ]

    @classmethod
    def _starts(cls, kind, algorithm, dims, periods, dtype, backend):
        """Per rank: ``recv`` after each start of one handle
        whose ``send`` is rewritten before every start, and the handle's
        bound execution."""
        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        n = cls.M // np.dtype(dtype).itemsize

        def fn(cart):
            send = np.zeros((nbh.t if kind == "alltoall" else 1) * n, dtype)
            recv = np.zeros(nbh.t * n, dtype)
            init = cart.alltoall_init if kind == "alltoall" else cart.allgather_init
            op = init(send, recv, algorithm=algorithm)
            seen = []
            try:
                for epoch in range(cls.STARTS):
                    send[:] = (np.arange(send.size) * 7 + cart.rank * 31 + epoch * 13) % 127
                    op.execute()
                    seen.append(recv.copy())
                prepared = op.prepared
            finally:
                op.free()
            return seen, prepared

        return run_cartesian(dims, nbh, fn, periods=periods, info={"backend": backend}, timeout=60)

    @pytest.mark.parametrize("kind, algorithm, dims, periods, dtype", CASES)
    def test_every_start_equals_the_walk(self, kind, algorithm, dims, periods, dtype):
        from repro.core.backend import LockstepBackend
        from repro.core.backend.batched import executor_form
        from repro.core.plan import GLOBAL_POOL, BoundDelivery

        case = (kind, algorithm, dims, periods, dtype)
        got = self._starts(*case, "batched")
        want = self._starts(*case, LockstepBackend())
        assert GLOBAL_POOL.stats().outstanding_bytes == 0
        [prepared] = {id(p): p for _, p in got}.values()  # one binding for all ranks
        assert isinstance(prepared.run, BoundDelivery)
        assert executor_form(prepared.plan).startswith("in-place: ")
        assert len(prepared.run) == prepared.plan.num_launches
        masked = any(r.recv_rows is not None for ph in prepared.plan.phases for r in ph)
        assert masked == (not all(periods))
        for (seen, _), (ref, _) in zip(got, want):
            assert len(seen) == self.STARTS
            for a, b in zip(seen, ref):
                assert a.tobytes() == b.tobytes()
        # the walk's last start differs from its first: the rewrites count
        assert want[0][0][0].tobytes() != want[0][0][-1].tobytes()

    @pytest.mark.parametrize("kind, algorithm, dims, periods, dtype", CASES)
    def test_one_shot_execute_all_is_the_bound_run(self, kind, algorithm, dims, periods, dtype):
        """``execute_all`` in place, with and without a bound ``temp``,
        leaves what a bound run of the same plan leaves."""
        from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
        from repro.core.backend import allocate_buffers, get_backend
        from repro.core.builders import SCHEDULE_BUILDERS
        from repro.core.plan import GLOBAL_POOL, get_or_compile
        from repro.core.schedule import uniform_block_layout
        from repro.mpisim.datatypes import BlockRef, BlockSet

        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        topo = CartTopology(dims, periods)
        m, t = self.M, nbh.t
        if kind == "alltoall":
            layout = build_trivial_alltoall_blocksets([m] * t)
        else:
            layout = (BlockSet([BlockRef("send", 0, m)]), uniform_block_layout([m] * t, "recv"))
        sched = SCHEDULE_BUILDERS[kind if algorithm == "combining" else f"trivial-{kind}"](
            nbh, *layout
        )
        rng = np.random.default_rng(5)
        n = m // np.dtype(dtype).itemsize
        bound = [
            allocate_buffers(sched, {
                "send": rng.integers(0, 100, (t if kind == "alltoall" else 1) * n).astype(dtype),
                "recv": np.zeros(t * n, dtype),
            })
            for _ in range(topo.size)
        ]
        plan, _ = get_or_compile(sched, topo, bound[0])
        assert plan.delivery == "in-place"
        with_temp = [{k: v.copy() for k, v in b.items()} for b in bound]
        pooled = [{k: v.copy() for k, v in b.items() if k != "temp"} for b in bound]
        plan.bind(bound)()
        get_backend("batched").execute_all(topo, sched, with_temp)
        get_backend("batched").execute_all(topo, sched, pooled)
        assert GLOBAL_POOL.stats().outstanding_bytes == 0
        for a, b, c in zip(bound, with_temp, pooled):
            assert a["recv"].any()
            assert a["recv"].tobytes() == b["recv"].tobytes() == c["recv"].tobytes()
            assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_launch_count_is_the_bound_list(self):
        """The in-place form names its launch count, and it is the
        length of the list a binding makes."""
        from repro.core.backend import allocate_buffers
        from repro.core.backend.batched import executor_form
        from repro.core.builders import SCHEDULE_BUILDERS
        from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
        from repro.core.plan import get_or_compile

        nbh = moore_neighborhood(3, 1, include_self=False)
        topo = CartTopology((3, 3, 3))
        m = 16384
        sched = SCHEDULE_BUILDERS["alltoall"](nbh, *build_trivial_alltoall_blocksets([m] * nbh.t))
        bufs = [
            allocate_buffers(sched, {"send": np.zeros(nbh.t * m, np.uint8), "recv": np.zeros(nbh.t * m, np.uint8)})
            for _ in range(topo.size)
        ]
        plan, _ = get_or_compile(sched, topo, bufs[0])
        launches = len(plan.bind(bufs))
        assert launches == plan.num_launches == 1458  # 54 per rank
        assert executor_form(plan, bufs) == f"in-place: 16384 B per copy > 2048; {launches} launches"


class TestVariants:
    def test_alltoallv_init(self):
        topo = CartTopology((3, 3))
        nbh = moore_neighborhood(2, 1)  # with self
        counts = [2 * (2 - z) for z in nbh.hops]

        def fn(cart):
            total = sum(counts)
            send = np.empty(total, np.int64)
            pos = 0
            for i, c in enumerate(counts):
                send[pos : pos + c] = cart.rank * 50 + i
                pos += c
            recv = np.zeros(total, np.int64)
            op = cart.alltoallv_init(send, counts, recv, counts,
                                     algorithm="combining")
            op.execute()
            pos = 0
            for i, (off, c) in enumerate(zip(cart.nbh, counts)):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert (recv[pos : pos + c] == src * 50 + i).all()
                pos += c
            return True

        assert all(run_cartesian((3, 3), nbh, fn))

    def test_alltoallw_init_and_allgatherw_init(self):
        from repro.mpisim.datatypes import BlockRef, BlockSet

        topo = CartTopology((3, 3))
        nbh = Neighborhood([(0, 1), (1, 0)])

        def fn(cart):
            m = 4
            t = cart.nbh.t
            buf_s = np.empty(t * m, np.uint8)
            for i in range(t):
                buf_s[i * m : (i + 1) * m] = (cart.rank + i) % 251
            buf_r = np.zeros(t * m, np.uint8)
            op = cart.alltoallw_init(
                {"s": buf_s, "r": buf_r},
                [BlockSet([BlockRef("s", i * m, m)]) for i in range(t)],
                [BlockSet([BlockRef("r", i * m, m)]) for i in range(t)],
                algorithm="trivial",
            )
            op.execute()
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert (buf_r[i * m : (i + 1) * m] == (src + i) % 251).all()

            own = np.full(m, cart.rank, np.uint8)
            gout = np.zeros(t * m, np.uint8)
            op2 = cart.allgatherw_init(
                {"send": own, "recv": gout},
                BlockSet([BlockRef("send", 0, m)]),
                [BlockSet([BlockRef("recv", i * m, m)]) for i in range(t)],
                algorithm="combining",
            )
            op2.execute()
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert (gout[i * m : (i + 1) * m] == src).all()
            return True

        assert all(run_cartesian((3, 3), nbh, fn))


class TestStatsParity:
    """Persistent executions must appear in OpStats under exactly the
    (op, algorithm) keys the direct calls use."""

    def test_persistent_alltoall_shares_direct_key(self):
        def fn(cart):
            t = cart.nbh.t
            send = np.zeros(t)
            recv = np.zeros(t)
            cart.alltoall(send, recv, algorithm="combining")
            op = cart.alltoall_init(send, recv, algorithm="combining")
            op.execute()
            op.execute()
            return (
                cart.backend.name,
                {k: r.calls for k, r in cart.stats.records.items()},
            )

        res = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True}
        )
        backend, records = res[0]
        assert records == {("alltoall", "combining", backend): 3}

    def test_persistent_variants_share_direct_keys(self):
        def fn(cart):
            t = cart.nbh.t
            send = np.full(2, float(cart.rank))
            recv = np.zeros(2 * t)
            cart.allgather(send, recv, algorithm="trivial")
            cart.allgather_init(send, recv, algorithm="trivial").execute()
            counts = [1] * t
            vs = np.zeros(t, np.int64)
            vr = np.zeros(t, np.int64)
            cart.alltoallv(vs, counts, vr, counts, algorithm="trivial")
            cart.alltoallv_init(
                vs, counts, vr, counts, algorithm="trivial"
            ).execute()
            return (
                cart.backend.name,
                {k: r.calls for k, r in cart.stats.records.items()},
            )

        res = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True}
        )
        backend, records = res[0]
        assert records == {
            ("allgather", "trivial", backend): 2,
            ("alltoallv", "trivial", backend): 2,
        }

    def test_persistent_reduce_shares_direct_key(self):
        def fn(cart):
            send = np.zeros(2)
            recv = np.zeros(2)
            cart.reduce_neighbors(send, recv, algorithm="auto")
            op = cart.reduce_neighbors_init(send, recv, algorithm="auto")
            op.execute()
            return (
                op.algorithm,
                cart.backend.name,
                {k: r.calls for k, r in cart.stats.records.items()},
            )

        res = run_cartesian(
            (3, 3), moore_neighborhood(2, 1), fn,
            info={"collect_stats": True}, timeout=60,
        )
        algorithm, backend, records = res[0]
        assert records == {("reduce_neighbors", algorithm, backend): 2}


class TestSelectionAgreement:
    """The auto cut-off is one shared helper; the direct and persistent
    reduce paths must agree, including exactly at the C == t boundary."""

    # (nbh, dims, periods): moore has C < t (combining); the 1-D chain
    # {1, 2} sits exactly on the boundary C == t (trivial); the mesh
    # case disables combining regardless of C
    CASES = [
        (moore_neighborhood(2, 1), (3, 3), None),
        (Neighborhood([(1,), (2,)]), (5,), None),
        (moore_neighborhood(2, 1), (3, 3), (True, False)),
    ]

    @pytest.mark.parametrize("nbh,dims,periods", CASES)
    def test_direct_and_persistent_agree(self, nbh, dims, periods):
        from repro.core.reduce_schedule import select_reduce_algorithm

        expected = select_reduce_algorithm(CartTopology(dims, periods), nbh)

        def fn(cart):
            send = np.zeros(1)
            recv = np.zeros(1)
            cart.reduce_neighbors(send, recv, algorithm="auto")
            op = cart.reduce_neighbors_init(send, recv, algorithm="auto")
            op.execute()
            return (op.algorithm, cart.backend.name, set(cart.stats.records))

        res = run_cartesian(
            dims, nbh, fn, periods=periods,
            info={"collect_stats": True}, timeout=60,
        )
        for algorithm, backend, keys in res:
            assert algorithm == expected
            assert keys == {("reduce_neighbors", expected, backend)}

    def test_boundary_is_exact(self):
        nbh = Neighborhood([(1,), (2,)])
        assert nbh.combining_rounds == nbh.trivial_rounds  # C == t
        from repro.core.reduce_schedule import select_reduce_algorithm

        assert select_reduce_algorithm(CartTopology((5,)), nbh) == "trivial"
        # one more distinct offset in a second dimension tips it over
        wide = moore_neighborhood(2, 1)
        assert wide.combining_rounds < wide.trivial_rounds
        assert (
            select_reduce_algorithm(CartTopology((3, 3)), wide) == "combining"
        )


class TestPersistentReduce:
    def test_combining_reduce_handle(self):
        from repro.core.topology import CartTopology

        topo = CartTopology((3, 3))
        nbh = moore_neighborhood(2, 1)

        def fn(cart):
            send = np.zeros(2)
            recv = np.zeros(2)
            op = cart.reduce_neighbors_init(send, recv, op="sum")
            assert op.algorithm == "combining"
            for it in range(3):
                send[:] = cart.rank + it * 100
                op.execute()
                expect = sum(
                    topo.translate(cart.rank, tuple(-o for o in off)) + it * 100
                    for off in nbh
                )
                assert np.allclose(recv, expect), (it, recv, expect)
            return op.executions

        assert run_cartesian((3, 3), nbh, fn, timeout=120) == [3] * 9

    def test_trivial_fallback_on_mesh(self):
        nbh = moore_neighborhood(2, 1, include_self=False)

        def fn(cart):
            op = cart.reduce_neighbors_init(np.zeros(1), np.zeros(1))
            return op.algorithm

        res = run_cartesian(
            (3, 3), nbh, fn, periods=(False, False), timeout=60
        )
        assert set(res) == {"trivial"}

    def test_invalid_op_rejected_eagerly(self):
        nbh = moore_neighborhood(2, 1)

        def fn(cart):
            cart.reduce_neighbors_init(np.zeros(1), np.zeros(1), op="median")

        with pytest.raises(Exception, match="unknown reduction op"):
            run_cartesian((2, 2), nbh, fn)

    def test_start_wait_discipline(self):
        from repro.mpisim.exceptions import MpiSimError

        nbh = moore_neighborhood(2, 1)

        def fn(cart):
            op = cart.reduce_neighbors_init(np.zeros(1), np.zeros(1))
            try:
                op.wait()
            except MpiSimError:
                pass
            else:
                return "no-raise"
            op.start()
            try:
                op.start()
            except MpiSimError:
                op.wait()
                return "ok"
            return "double-start-allowed"

        assert set(run_cartesian((2, 2), nbh, fn, timeout=60)) == {"ok"}

    def test_free_returns_pooled_scratch_early(self):
        from repro.core.plan import GLOBAL_POOL

        nbh = moore_neighborhood(2, 1)

        def fn(cart):
            op = cart.reduce_neighbors_init(np.zeros(2), np.zeros(2))
            assert op.schedule.temp_nbytes > 0 and "temp" in op.buffers
            op.free()
            op.free()  # idempotent
            return "temp" not in op.buffers

        assert all(run_cartesian((2, 2), nbh, fn, timeout=60))
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    @pytest.mark.parametrize("backend", ["threaded", "lockstep", "batched"])
    @pytest.mark.parametrize("algorithm", ["combining", "trivial"])
    def test_start_after_free_raises(self, backend, algorithm):
        """A freed handle used to run silently — on scratch it no
        longer owns — on every backend.  The trivial handle never had a
        ``temp``: the refusal is a flag, not a missing finalizer."""
        nbh = moore_neighborhood(2, 1, include_self=False)
        m = 4

        def fn(cart):
            send = np.full(nbh.t * m, cart.rank, np.uint8)
            recv = np.zeros(nbh.t * m, np.uint8)
            op = cart.alltoall_init(send, recv, algorithm=algorithm)
            assert ("temp" in op.buffers) == (algorithm == "combining")
            op.execute()
            want = recv.copy()
            op.free()
            recv[:] = 0
            for launch in (op.start, op.execute, op):
                with pytest.raises(MpiSimError, match="after free"):
                    launch()
            op.free()  # still idempotent
            return op.executions == 1 and want.any() and not recv.any()

        assert all(
            run_cartesian(
                (3, 3), nbh, fn, info={"backend": backend}, timeout=60
            )
        )


# ----------------------------------------------------------------------
# PersistentReduce backend x algorithm x operator matrix
# ----------------------------------------------------------------------

_CUSTOM_OR = lambda a, b: a | b  # noqa: E731  (associative, exact)

_REDUCE_OPS = {
    "sum": (lambda a, b: a + b, "sum"),
    "max": (np.maximum, "max"),
    "custom": (_CUSTOM_OR, _CUSTOM_OR),
}


@pytest.mark.parametrize("op_name", sorted(_REDUCE_OPS))
@pytest.mark.parametrize("algorithm", ["combining", "trivial"])
@pytest.mark.parametrize(
    "backend",
    [
        "threaded",
        "lockstep",
        "batched",
        "shm",  # an alias of batched, like lockstep
    ],
)
def test_persistent_reduce_matrix(backend, algorithm, op_name):
    """PersistentReduce executes bit-identically to a brute-force int64
    reference on every backend, both algorithms, named and custom ops."""
    ref_fn, op_arg = _REDUCE_OPS[op_name]
    dims = (3, 3)
    nbh = moore_neighborhood(2, 1, include_self=False)
    topo = CartTopology(dims)

    def fn(cart):
        send = np.zeros(2, dtype=np.int64)
        recv = np.zeros(2, dtype=np.int64)
        handle = cart.reduce_neighbors_init(
            send, recv, op=op_arg, algorithm=algorithm
        )
        assert handle.algorithm == algorithm
        try:
            for it in range(2):
                send[:] = np.int64(cart.rank * 7 + it * 1000 + 3)
                handle.execute()
                acc = None
                for off in cart.nbh:
                    src = topo.translate(cart.rank, tuple(-o for o in off))
                    v = np.full(2, np.int64(src * 7 + it * 1000 + 3))
                    acc = v if acc is None else ref_fn(acc, v)
                if not np.array_equal(recv, acc):
                    return (cart.rank, it, recv.tolist(), acc.tolist())
        finally:
            handle.free()
        return True

    res = run_cartesian(
        dims, nbh, fn, info={"backend": backend}, timeout=120
    )
    assert res == [True] * topo.size, res
