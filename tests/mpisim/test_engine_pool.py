"""The engine's parked rank workers: what a job sees of them, and what
they keep of it."""

import contextvars
import gc
import multiprocessing
import threading
import time
import weakref

import numpy as np
import pytest

from repro.mpisim import pool_info
from repro.mpisim.engine import ABORT_GRACE, Engine, run_ranks
from repro.mpisim.exceptions import DeadlockError, RankFailedError

_PROBE = contextvars.ContextVar("pool_probe", default="unset")


def _settle(seconds: float = 10.0) -> None:
    """Wait until no worker is running (abandoned ones included) and
    the extra ones that found their index taken have exited."""
    assert pool_info(wait=seconds).busy == 0
    time.sleep(0.05)


def _ident(comm):
    return threading.get_ident()


class TestReuse:
    def test_warm_jobs_spawn_no_thread(self):
        run_ranks(16, _ident)
        _settle()
        threads, spawned = threading.active_count(), pool_info().spawned
        reused = pool_info().reused
        for _ in range(50):
            run_ranks(16, lambda comm: comm.allgather(comm.rank))
        assert threading.active_count() == threads
        assert pool_info().spawned == spawned
        assert pool_info().reused == reused + 50 * 16

    def test_rank_r_runs_on_its_named_thread(self):
        names = run_ranks(5, lambda comm: threading.current_thread().name)
        assert names == [f"mpisim-rank-{r}" for r in range(5)]

    def test_raising_rank_leaves_its_worker_reusable(self):
        first = run_ranks(4, _ident)

        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return threading.get_ident()

        with pytest.raises(RankFailedError, match="rank 2"):
            run_ranks(4, fn)
        spawned = pool_info().spawned
        assert run_ranks(4, _ident) == first
        assert pool_info().spawned == spawned


class TestNothingLeaks:
    def test_captured_object_is_collected_after_run(self):
        class Payload:
            pass

        captured, passed = Payload(), Payload()
        refs = weakref.ref(captured), weakref.ref(passed)

        def fn(comm, arg):
            return id(captured) == id(arg)

        assert run_ranks(4, fn, args=[(passed,)] * 4) == [False] * 4
        del fn, captured, passed
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_numpy_errstate_and_contextvars_start_at_defaults(self):
        default = np.geterr()

        def dirty(comm):
            np.seterr(all="raise")
            _PROBE.set("set")
            return np.geterr(), _PROBE.get()

        def read(comm):
            return np.geterr(), _PROBE.get()

        assert run_ranks(4, dirty)[0] == ({k: "raise" for k in default}, "set")
        assert run_ranks(4, read) == [(default, "unset")] * 4
        assert np.geterr() == default


class TestNestingAndConcurrency:
    def test_nested_run_takes_other_workers(self):
        def outer(comm):
            inner = run_ranks(3, lambda c: (c.rank, threading.get_ident()))
            assert threading.get_ident() not in {ident for _, ident in inner}
            return sum(rank for rank, _ in inner) + comm.rank

        assert run_ranks(2, outer, timeout=60) == [3, 4]

    def test_concurrent_runs_from_two_threads(self):
        results, errors = {}, []

        def client(name):
            try:
                results[name] = [
                    run_ranks(8, lambda comm: sum(comm.allgather(comm.rank)), timeout=60)
                    for _ in range(20)
                ]
            except BaseException as exc:  # noqa: BLE001  # lint: allow(L004) - reported by the assertion below
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(n,)) for n in "ab"]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=120)
        assert errors == []
        assert results == {n: [[28] * 8] * 20 for n in "ab"}


class TestFork:
    def test_forked_child_runs_ranks(self):
        run_ranks(4, _ident)  # warm: the parent has parked workers

        def child():
            spawned = pool_info().spawned
            assert run_ranks(4, lambda comm: comm.rank, timeout=20) == [0, 1, 2, 3]
            assert pool_info().spawned == spawned + 4

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0


@pytest.fixture(scope="class")
def abandoned_job():
    """A deadlock whose ranks 1-3 ignore the abort: they wait on an
    event that is set only at teardown."""
    release = threading.Event()
    stuck_idents = {}

    def fn(comm):
        if comm.rank:
            stuck_idents[comm.rank] = threading.get_ident()
            release.wait()

    before = pool_info()
    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as ei:
        Engine(4, timeout=0.3).run(fn)
    yield ei.value, time.monotonic() - t0, stuck_idents, before
    release.set()
    _settle()


class TestAbandonedWorkers:
    def test_deadlock_waits_one_grace_window(self, abandoned_job):
        error, elapsed, _, before = abandoned_job
        assert error.stuck_ranks == (1, 2, 3)
        assert elapsed < 7.0  # 0.3 s timeout + one 5 s window, not three
        assert f"abandoned {ABORT_GRACE:g}s after the abort: ranks (1, 2, 3)" in str(error)
        assert pool_info().abandoned == before.abandoned + 3

    def test_abandoned_worker_gets_no_job(self, abandoned_job):
        _, _, stuck_idents, _ = abandoned_job
        assert pool_info().busy >= 3  # still inside the rank function
        idents = run_ranks(4, _ident)
        assert not set(idents) & set(stuck_idents.values())


def test_chaos_cli_fails_on_a_busy_worker(monkeypatch, capsys):
    from repro.mpisim import engine, faults

    monkeypatch.setattr(faults, "chaos_sweep", lambda *a, **k: [])
    assert faults._main(["--cases", "0"]) == 0
    monkeypatch.setattr(
        faults, "pool_info", lambda wait: engine.PoolInfo(16, 0, 1, 15, 1)
    )
    assert faults._main(["--cases", "0"]) == 1
    assert "busy=1" in capsys.readouterr().out
