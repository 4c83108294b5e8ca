"""The schedule daemon end to end: round trips, certification,
cross-connection single-flight, ready mirror, plan service, clients."""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import plan as plan_mod
from repro.core.schedule_cache import CacheInfo, ScheduleCache
from repro.core.serialize import schedule_to_dict
from repro.core.topology import CartTopology
from repro.serve.client import ScheduleClient
from repro.serve.protocol import (
    ScheduleRequest,
    ServeError,
    decode_message,
    encode_message,
    read_frame,
)
from repro.serve.server import LATENCY_WINDOW, ScheduleServer, ServerStats

TIMEOUT = 60.0


def stencil_dict(kind="alltoall", algorithm="combining", dims=(3, 3)):
    offsets = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    n = len(offsets)
    d = {
        "kind": kind,
        "algorithm": algorithm,
        "offsets": offsets,
        "dims": list(dims),
        "periods": [True] * len(dims),
        "send": [[["send", 8 * i, 8]] for i in range(n)],
        "recv": [[["recv", 8 * i, 8]] for i in range(n)],
    }
    if kind == "allgather":
        d["send"] = [[["send", 0, 8]]]
    return d


def reduce_dict(**over):
    d = {
        "kind": "reduce",
        "algorithm": "combining",
        "offsets": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "dims": [3, 3],
        "periods": [True, True],
        "m_bytes": 8,
        "dtype": "float64",
        "reduce_op": "sum",
    }
    d.update(over)
    return d


def run_plan(plan, byte_sizes):
    """Pack → loopback-deliver → local copies; returns the recv buffer."""
    rng = np.random.default_rng(0)
    buffers = {
        name: rng.integers(0, 256, n, dtype=np.uint8).copy()
        for name, n in byte_sizes.items()
    }
    for phase in plan.phases:
        payloads = [
            rnd.send.pack(buffers) if rnd.send is not None else None
            for rnd in phase
        ]
        for rnd, payload in zip(phase, payloads):
            if rnd.recv is not None and payload is not None:
                rnd.recv.unpack(buffers, payload)
    plan.run_local_copies(buffers)
    return buffers["recv"].copy()


def sock_path(tmp_path):
    return str(tmp_path / "serve.sock")


#: a blocking client call on a worker thread — the loop keeps serving
call = asyncio.to_thread


async def connect(server):
    address = server.address
    if isinstance(address, str):
        return await call(ScheduleClient, address)
    return await call(ScheduleClient, None, *address)


async def _stop_and_close(server, *clients):
    for client in clients:
        client.close()
    await server.stop()


def drive(coro):
    async def main():
        # one thread per concurrently blocked client, whatever the host
        asyncio.get_running_loop().set_default_executor(
            ThreadPoolExecutor(max_workers=16)
        )
        return await asyncio.wait_for(coro, TIMEOUT)

    return asyncio.run(main())


class _GatedCache(ScheduleCache):
    """A cache whose builds block until the test releases them — makes
    the single-flight window deterministic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def get_or_build(self, key, build, verify=None):
        assert self.release.wait(TIMEOUT), "test never released the gate"
        return super().get_or_build(key, build, verify)


class TestServerStats:
    def test_build_latency_follows_the_most_recent_builds(self):
        """A long-lived daemon's p50/p99 describe its latest builds, not
        its first ``LATENCY_WINDOW``."""
        stats = ServerStats()
        for _ in range(LATENCY_WINDOW):
            stats.note_latency(0.001)
        assert stats.latency_percentile(0.5) == stats.latency_percentile(0.99) == 0.001
        for _ in range(LATENCY_WINDOW // 50):
            stats.note_latency(1.0)
        assert stats.latency_percentile(0.5) == 0.001
        assert stats.latency_percentile(0.99) == 1.0
        for _ in range(LATENCY_WINDOW // 2):
            stats.note_latency(1.0)
        assert stats.latency_percentile(0.5) == 1.0
        assert stats.to_json()["build_latency_samples"] == LATENCY_WINDOW


class TestDaemon:
    def test_ping_and_stats(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                assert await call(client.ping)
                stats = await call(client.stats)
                assert stats["server"]["connections"] == 1
                assert stats["server"]["requests"] == {"ping": 1, "stats": 1}
                assert stats["verify"] is True
                assert set(stats["cache"]) == set(CacheInfo._fields)
                assert "plan_store" not in stats
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_tcp_endpoint_discovers_port(self):
        async def main():
            server = ScheduleServer(host="127.0.0.1", cache=ScheduleCache())
            await server.start()
            host, port = server.address
            assert port > 0
            client = await connect(server)
            try:
                assert await call(client.ping)
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_schedule_round_trip_matches_local_build(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                req = ScheduleRequest.from_dict(stencil_dict())
                sched, resp = await call(client.request_schedule, req)
                assert resp["certified"] is True
                assert resp["hit"] is False
                assert resp["single_flight"] is False
                # the served schedule is the one a local build produces
                local = req.build()
                local.prepare()
                assert schedule_to_dict(sched) == schedule_to_dict(local)
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_reduce_schedule_served(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                sched, resp = await call(
                    client.request_schedule,
                    ScheduleRequest.from_dict(reduce_dict()),
                )
                assert sched.is_reduction
                assert resp["certified"] is True
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_repeat_request_hits_ready_mirror(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                req = ScheduleRequest.from_dict(stencil_dict())
                _, first = await call(client.request_schedule, req)
                _, again = await call(client.request_schedule, req)
                assert first["hit"] is False
                assert again["hit"] is True
                assert again["single_flight"] is False
                assert server.stats.ready_hits == 1
                assert server.stats.builds == 1
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_cross_connection_single_flight(self, tmp_path):
        """The acceptance criterion: N identical concurrent requests
        from N connections cost one build and N-1 single-flight hits,
        and the dedup is visible in telemetry."""
        n = 6

        async def main():
            cache = _GatedCache()
            server = ScheduleServer(sock_path(tmp_path), cache=cache)
            await server.start()
            clients = [
                await connect(server) for _ in range(n)
            ]
            try:
                req = ScheduleRequest.from_dict(stencil_dict())
                tasks = [
                    asyncio.ensure_future(call(c.request_schedule, req))
                    for c in clients
                ]
                # wait until every follower has joined the leader's build
                while server.stats.single_flight_hits < n - 1:
                    await asyncio.sleep(0.005)
                cache.release.set()
                results = [resp for _, resp in await asyncio.gather(*tasks)]
                flights = sorted(r["single_flight"] for r in results)
                assert flights == [False] + [True] * (n - 1)
                assert server.stats.builds == 1
                assert server.stats.single_flight_hits == n - 1
                stats = await call(clients[0].stats)
                assert stats["server"]["builds"] == 1
                assert stats["server"]["single_flight_hits"] == n - 1
                assert stats["server"]["batches"] >= 1
            finally:
                await _stop_and_close(server, *clients)

        drive(main())

    def test_distinct_requests_build_independently(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                a = ScheduleRequest.from_dict(stencil_dict())
                b = ScheduleRequest.from_dict(stencil_dict(dims=(9, 1)))
                await call(client.request_schedule, a)
                await call(client.request_schedule, b)
                assert server.stats.builds == 2
                assert server.stats.single_flight_hits == 0
            finally:
                await _stop_and_close(server, client)

        drive(main())


class TestErrors:
    def test_unknown_op_is_answered_not_fatal(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                with pytest.raises(ServeError, match="unknown op"):
                    await call(client.request, {"op": "frobnicate"})
                # the connection survives a dispatch error
                assert await call(client.ping)
                assert server.stats.protocol_errors == 1
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_malformed_fields_are_protocol_errors(self, tmp_path):
        """A request whose fields do not parse is answered with the
        typed error and counted, like any other malformed input."""
        malformed = [
            stencil_dict() | {"send": [[["send", 0]]]},
            stencil_dict() | {"dims": ["three", 3]},
            reduce_dict(m_bytes="eight"),
            stencil_dict() | {"rank": [0], "sizes": {"send": 32}},
            stencil_dict(dims=(3, 3, 3)),  # 2-D offsets on a 3-D torus
        ]

        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                for payload in malformed:
                    with pytest.raises(ServeError, match="^ProtocolError: "):
                        await call(
                            client.request, {"op": "schedule", **payload}
                        )
                assert await call(client.ping)
                assert server.stats.protocol_errors == len(malformed) == 5
                assert server.stats.builds == 0
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_certification_requires_dims(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                bare = stencil_dict()
                del bare["dims"], bare["periods"]
                with pytest.raises(ServeError, match="requires 'dims'"):
                    await call(client.request, {"op": "schedule", **bare})
                assert await call(client.ping)
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_no_verify_serves_without_dims(self, tmp_path):
        async def main():
            server = ScheduleServer(
                sock_path(tmp_path), verify=False, cache=ScheduleCache()
            )
            await server.start()
            client = await connect(server)
            try:
                bare = stencil_dict()
                del bare["dims"], bare["periods"]
                resp = await call(client.request, {"op": "schedule", **bare})
                assert resp["certified"] is False
                assert "schedule" in resp
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_corrupt_frame_answered_then_closed(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            reader, writer = await asyncio.open_unix_connection(server.address)
            try:
                frame = bytearray(encode_message({"op": "ping"}))
                frame[-1] ^= 0xFF  # break the payload CRC
                writer.write(bytes(frame))
                await writer.drain()
                resp = decode_message(await read_frame(reader))
                assert resp["status"] == "error"
                assert resp["etype"] == "CorruptFrameError"
                # a desynchronized stream is closed after the answer
                assert await reader.read() == b""
                assert server.stats.protocol_errors == 1
            finally:
                writer.close()
                await _stop_and_close(server)

        drive(main())


class TestPlanService:
    def test_plan_requests_need_shm_store(self, tmp_path):
        async def main():
            server = ScheduleServer(sock_path(tmp_path), cache=ScheduleCache())
            await server.start()
            client = await connect(server)
            try:
                d = stencil_dict()
                d.update(rank=0, sizes={"send": 32, "recv": 32, "temp": 64})
                with pytest.raises(ServeError, match="shm_plans"):
                    await call(client.request, {"op": "plan", **d})
            finally:
                await _stop_and_close(server, client)

        drive(main())

    def test_plan_round_trip_and_store_hit(self, tmp_path):
        async def main():
            server = ScheduleServer(
                sock_path(tmp_path), shm_plans=True, cache=ScheduleCache()
            )
            await server.start()
            assert server.plan_segment is not None
            client = await connect(server)
            try:
                req = ScheduleRequest.from_dict(stencil_dict())
                sched = req.build()
                sched.prepare()
                byte_sizes = {
                    "send": 32,
                    "recv": 32,
                    "temp": max(1, sched.temp_nbytes),
                }
                d = req.to_dict("plan")
                d.update(rank=0, sizes=dict(byte_sizes))
                plan_req = ScheduleRequest.from_dict(d)
                plan, resp = await call(client.request_plan, plan_req)
                assert resp["plan_hit"] is False
                assert resp["shm"]["segment"] == server.plan_segment
                # the mapped plan behaves exactly like a local compile
                topo = CartTopology((3, 3), (True, True))
                local = plan_mod.compile_plan(sched, topo, 0, byte_sizes)
                np.testing.assert_array_equal(
                    run_plan(plan, byte_sizes), run_plan(local, byte_sizes)
                )
                del plan  # release shm views before the client detaches
                # a repeat answer comes straight out of the store
                plan2, resp2 = await call(client.request_plan, plan_req)
                assert resp2["plan_hit"] is True
                assert resp2["shm"]["offset"] == resp["shm"]["offset"]
                del plan2
                assert server.stats.plans_published == 1
                stats = await call(client.stats)
                assert stats["plan_store"]["entries"] == 1
                assert stats["plan_store"]["used"] > 0
            finally:
                await _stop_and_close(server, client)

        drive(main())


    def test_plan_at_the_verifiers_sizes_reuses_the_certified_lowering(
        self, tmp_path
    ):
        """Certification files the plan it judged on the schedule, so a
        plan request at the verifier's sizes lowers nothing again."""
        from repro.analyze.schedule_verifier import _plan_sizes

        async def main():
            server = ScheduleServer(
                sock_path(tmp_path), shm_plans=True, cache=ScheduleCache()
            )
            await server.start()
            client = await connect(server)
            try:
                d = stencil_dict(dims=(4, 3))
                await call(client.request, {"op": "schedule", **d})
                req = ScheduleRequest.from_dict(d)
                sched = req.build()
                sched.prepare()
                plan_d = req.to_dict("plan")
                plan_d.update(rank=0, sizes=_plan_sizes(sched))
                before = plan_mod.plan_cache_info()
                plan, resp = await call(
                    client.request_plan, ScheduleRequest.from_dict(plan_d)
                )
                del plan  # release shm views before the client detaches
                after = plan_mod.plan_cache_info()
                assert resp["plan_hit"] is False  # published just now
                assert after.misses == before.misses
                assert after.instantiated == before.instantiated
                assert after.hits == before.hits + 1
            finally:
                await _stop_and_close(server, client)

        drive(main())


class TestStopReleasesSegment:
    def test_stop_cancelled_mid_drain_still_unlinks_plan_store(self, tmp_path):
        """Regression: ``stop()`` marks itself stopped first and used to
        unlink the shm plan store last, so a ``stop()`` cancelled at any
        of its awaits (Ctrl-C through ``serve/__main__``'s ``finally``)
        returned early on retry and left ``/dev/shm/<segment>`` behind."""
        import os

        async def main():
            cache = _GatedCache()
            server = ScheduleServer(
                sock_path(tmp_path), shm_plans=True, cache=cache
            )
            await server.start()
            segment = server.plan_segment
            assert os.path.exists(f"/dev/shm/{segment}")
            # a build parked on the gate keeps the drain (and the
            # connection handler awaiting it) busy
            _, writer = await asyncio.open_unix_connection(server.address)
            writer.write(encode_message({"op": "schedule", **stencil_dict()}))
            await writer.drain()
            await asyncio.sleep(0.1)
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0.1)
            assert not stopping.done(), "stop() should be waiting on the drain"
            stopping.cancel()
            cache.release.set()  # let the worker thread finish
            with pytest.raises(asyncio.CancelledError):
                await stopping
            assert not os.path.exists(f"/dev/shm/{segment}")
            assert server.plan_segment is None
            await server.stop()  # the retry is a no-op, not an error
            writer.close()

        drive(main())


class TestSyncClientAndShutdown:
    def test_shutdown_with_two_clients_exits_cleanly(self, tmp_path):
        """``python -m repro.serve`` told to shut down by one of two
        connected clients: the other's handler is stopped, not cancelled
        mid-stop, so the daemon exits 0 with nothing on stderr, and the
        socket and the shared-memory segment are gone."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = sock_path(tmp_path)
        src = str(Path(__file__).resolve().parents[2] / "src")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", path, "--shm-plans"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            assert "listening" in daemon.stdout.readline()
            segment = daemon.stdout.readline().rsplit(":", 1)[1].strip()
            with ScheduleClient(path) as first, ScheduleClient(path) as second:
                assert first.ping() and second.ping()
                first.shutdown()
                _, err = daemon.communicate(timeout=TIMEOUT)
        finally:
            daemon.kill()
        assert (daemon.returncode, err) == (0, "")
        assert not os.path.exists(path)
        assert not os.path.exists(f"/dev/shm/{segment}")

    def test_blocking_client_and_shutdown_op(self, tmp_path):
        """The blocking client drives a daemon thread end to end, and a
        shutdown request ends serve_forever."""
        path = sock_path(tmp_path)
        server = ScheduleServer(path, cache=ScheduleCache())
        started = threading.Event()

        def run():
            async def main():
                await server.start()
                started.set()
                await server.serve_forever()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(TIMEOUT)
        with ScheduleClient(path) as client:
            assert client.ping()
            req = ScheduleRequest.from_dict(stencil_dict())
            sched, resp = client.request_schedule(req)
            assert resp["certified"] is True
            assert "alltoall" in sched.kind
            client.shutdown()
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive()
