"""A ready hit is a byte lookup: a remembered request frame is answered
with its stored reply frame, byte-identical to what the decode path
answers for the same frame, and booked the same way."""

import asyncio
import json

import pytest

from repro.core.schedule_cache import ScheduleCache
from repro.core.serialize import pack_frame
from repro.serve import server as server_mod
from repro.serve.protocol import (
    ScheduleRequest,
    decode_message,
    encode_message,
    read_frame,
)
from repro.serve.server import ScheduleServer

from tests.serve.test_server import (
    _GatedCache,
    drive,
    reduce_dict,
    sock_path,
    stencil_dict,
)


def plan_dict(d):
    """``d`` as a plan request for rank 0 at the buffer sizes it needs."""
    sched = ScheduleRequest.from_dict(d).build()
    sched.prepare()
    n = len(d["offsets"])
    sizes = {"send": 8 * len(d["send"]), "recv": 8 * n}
    sizes["temp"] = max(1, sched.temp_nbytes)
    return {**d, "rank": 0, "sizes": sizes}


def mesh(d):
    return {**d, "periods": [False] * len(d["dims"])}


SCHEDULES = {
    "alltoall-torus": stencil_dict(),
    "alltoall-mesh": mesh(stencil_dict(dims=(4, 3))),
    "allgather-mesh": mesh(stencil_dict("allgather", dims=(3, 4))),
    "trivial-torus": stencil_dict(algorithm="trivial", dims=(4, 4)),
    "reduce-torus": reduce_dict(),
}
PLANS = {
    name: plan_dict(SCHEDULES[name])
    for name in ("alltoall-torus", "alltoall-mesh", "allgather-mesh")
}


def counters(server):
    """Every booked counter, flat, except ``replayed`` itself."""
    stats = server._stats_payload()
    flat = {f"requests.{op}": n for op, n in stats["server"]["requests"].items()}
    flat.update(
        (k, v) for k, v in stats["server"].items()
        if isinstance(v, int) and k != "replayed"
    )
    cache = stats["opstats"]["cache"]
    flat.update(cache_hits=cache["hits"], cache_misses=cache["misses"])
    for backend, split in cache["by_backend"].items():
        flat.update({f"cache.{backend}.{i}": n for i, n in enumerate(split)})
    return flat


def delta(before, after):
    return {k: n - before.get(k, 0) for k, n in after.items() if n != before.get(k, 0)}


class Wire:
    """One raw connection: frames out, reply frames back, undecoded."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, server):
        return cls(*await asyncio.open_unix_connection(server.address))

    async def send(self, frame):
        self.writer.write(frame)
        await self.writer.drain()
        return await read_frame(self.reader)

    def close(self):
        self.writer.close()


def serve(tmp_path, test):
    async def main():
        server = ScheduleServer(
            sock_path(tmp_path), shm_plans=True, cache=ScheduleCache()
        )
        await server.start()
        wire = await Wire.open(server)
        try:
            await test(server, wire)
        finally:
            wire.close()
            await server.stop()

    drive(main())


async def decoded_path(server, wire, frame):
    """The decode path's reply to ``frame``, replay switched off."""
    server._replay = lambda frame: None
    try:
        return await wire.send(frame)
    finally:
        del server._replay


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "op,name",
        [("schedule", n) for n in SCHEDULES] + [("plan", n) for n in PLANS],
    )
    def test_replayed_reply_is_the_decode_paths_reply(self, tmp_path, op, name):
        body = (SCHEDULES if op == "schedule" else PLANS)[name]
        frame = encode_message({"op": op, **body})

        async def test(server, wire):
            if op == "plan":  # the schedule first, as a client would
                await wire.send(encode_message({"op": "schedule", **SCHEDULES[name]}))
            cold = decode_message(await wire.send(frame))
            assert cold["status"] == "ok"
            if op == "plan":  # publishing stores nothing; the first hit does
                assert cold["plan_hit"] is False
                await decoded_path(server, wire, frame)
            assert frame in server._frames
            before, replayed = counters(server), server.stats.replayed
            fast = await wire.send(frame)
            after = counters(server)
            assert server.stats.replayed == replayed + 1
            slow = await decoded_path(server, wire, frame)
            assert server.stats.replayed == replayed + 1
            assert fast == slow
            assert delta(before, after) == delta(after, counters(server))
            assert delta(before, after)["requests." + op] == 1
            reply = decode_message(fast)
            assert reply["status"] == "ok"
            assert reply.get("hit", reply.get("plan_hit")) is True
            assert reply.get("single_flight", False) is False

        serve(tmp_path, test)

    def test_same_key_in_other_bytes_gets_the_stored_frame(self, tmp_path):
        d = {"op": "schedule", **SCHEDULES["alltoall-torus"]}
        frame = encode_message(d)
        other = pack_frame(json.dumps(d, indent=1, sort_keys=True).encode())

        async def test(server, wire):
            await wire.send(frame)
            stored = await wire.send(frame)
            assert await wire.send(other) == stored  # keyed, not re-encoded
            assert server.stats.replayed == 1
            assert await wire.send(other) == stored  # now remembered too
            assert server.stats.replayed == 2
            assert server.stats.ready_hits == 3
            mirror = server._stats_payload()["ready_mirror"]
            assert mirror["entries"] == 1
            assert mirror["bytes"] == len(stored)
            assert mirror["frames"] == 2
            assert mirror["frame_bytes"] == len(frame) + len(other)

        serve(tmp_path, test)

    def test_nothing_else_is_remembered(self, tmp_path):
        """Pings, stats, errors and refused requests never enter the
        frame map."""
        frames = [
            encode_message({"op": "ping"}),
            encode_message({"op": "stats"}),
            encode_message({"op": "frobnicate"}),
            encode_message({"op": "schedule", **stencil_dict(), "dims": ["x"]}),
            encode_message({"op": "plan", **stencil_dict()}),  # no rank
        ]

        async def test(server, wire):
            for frame in frames * 2:
                await wire.send(frame)
            assert not server._frames
            assert server.stats.replayed == 0
            assert server.stats.protocol_errors == 6

        serve(tmp_path, test)


    def test_a_joins_frame_replays_the_ready_reply(self, tmp_path):
        """The cold reply and the single-flight join's reply are never
        stored: the next identical frame gets the ready reply."""
        frame = encode_message({"op": "schedule", **SCHEDULES["alltoall-torus"]})

        async def main():
            cache = _GatedCache()
            server = ScheduleServer(sock_path(tmp_path), cache=cache)
            await server.start()
            wires = [await Wire.open(server) for _ in range(2)]
            try:
                sends = [asyncio.ensure_future(w.send(frame)) for w in wires]
                while server.stats.single_flight_hits < 1:
                    await asyncio.sleep(0.005)
                cache.release.set()
                first = [decode_message(r) for r in await asyncio.gather(*sends)]
                assert sorted(r["single_flight"] for r in first) == [False, True]
                replayed = await wires[1].send(frame)
                assert server.stats.replayed == 1
                assert replayed == await decoded_path(server, wires[0], frame)
                reply = decode_message(replayed)
                assert (reply["hit"], reply["single_flight"]) == (True, False)
            finally:
                for wire in wires:
                    wire.close()
                await server.stop()

        drive(main())


class TestMirrorBounds:
    def test_evicted_key_falls_back_to_the_decode_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod, "READY_MIRROR_SIZE", 1)
        a = encode_message({"op": "schedule", **SCHEDULES["alltoall-torus"]})
        b = encode_message({"op": "schedule", **SCHEDULES["reduce-torus"]})

        async def test(server, wire):
            await wire.send(a)
            await wire.send(a)
            assert server.stats.replayed == 1
            await wire.send(b)  # evicts a's reply
            assert len(server._ready) == 1
            again = decode_message(await wire.send(a))
            assert server.stats.replayed == 1  # decoded, not replayed
            assert again["hit"] is True  # the build cache still holds it
            assert server.stats.builds == 2
            await wire.send(a)
            assert server.stats.replayed == 2

        serve(tmp_path, test)

    @pytest.mark.parametrize("bound", ["entries", "bytes"])
    def test_distinct_frames_of_one_key_stay_in_bound(
        self, tmp_path, monkeypatch, bound
    ):
        d = {"op": "schedule", **SCHEDULES["alltoall-torus"]}
        frames = [
            pack_frame(json.dumps({**d, "pad": "x" * i}).encode())
            for i in range(24)
        ]
        if bound == "entries":
            monkeypatch.setattr(server_mod, "FRAME_MAP_SIZE", 5)
        else:
            monkeypatch.setattr(server_mod, "FRAME_MAP_BYTES", 3 * len(frames[-1]))

        async def test(server, wire):
            for frame in frames + frames[-2:]:
                await wire.send(frame)
                mirror = server._stats_payload()["ready_mirror"]
                assert mirror["entries"] == 1
                assert mirror["frames"] <= server_mod.FRAME_MAP_SIZE
                assert mirror["frame_bytes"] <= server_mod.FRAME_MAP_BYTES
                assert mirror["frame_bytes"] == sum(map(len, server._frames))
            assert server.stats.replayed == 2  # the newest frames remain
            assert server.stats.builds == 1

        serve(tmp_path, test)

