"""The schedule-compilation daemon.

One asyncio event loop accepts any number of connections; schedule
construction, verifier certification and plan lowering run on a small
thread pool.  Three mechanisms keep the daemon ahead of its clients:

* **request batching** — connection handlers never dispatch builds
  themselves; they enqueue and kick a drain task, which collects every
  request that arrived since the last drain into one batch and launches
  the batch's builds together.  The event loop keeps accepting and
  parsing frames while the pool compiles.
* **cross-connection single-flight** — requests are identified by the
  canonical schedule-cache fingerprint
  (:meth:`~repro.serve.protocol.ScheduleRequest.canonical_key`); all
  concurrent requests for one key share one in-flight build future.
  ``N`` identical concurrent requests cost **one** build and ``N-1``
  single-flight joins, and the join count is exported in telemetry.
* **certification before first service** — a freshly built schedule is
  verified (:func:`repro.analyze.schedule_verifier.certify_schedule`)
  inside the cache's single-flight section, so no uncertified schedule
  is ever answered — and no schedule is certified twice.

A ready hit is a byte lookup.  A bounded mirror keyed by the same
fingerprint (by the plan digest for plan-store hits) holds each hit's
encoded reply frame, and a bounded map sends every remembered request
frame, byte for byte, to its key: such a frame is answered with the
stored reply and booked as a decoded one, with nothing decoded, keyed
or encoded (``replayed``).  Only replies two identical frames cannot
see differ are stored: no ``ping``/``stats``/``shutdown``, error, cold
build or single-flight join.  Nothing goes stale: the fingerprint
*determines* the schedule (pure data), and plan-store entries never move.

With ``shm_plans=True`` the daemon also owns a
:class:`~repro.serve.shm_plans.ShmPlanStore`: ``plan`` requests lower
the schedule (once per topology and buffer signature) and publish the
requested rank's view of the plan into the store,
answering with a ``(segment, offset, nbytes)`` reference that
same-machine clients map zero-copy.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analyze.schedule_verifier import certify_schedule
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.opstats import OpStats
from repro.core.schedule import Schedule
from repro.core.serialize import FrameError, schedule_to_dict
from repro.core.topology import CartTopology
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ScheduleRequest,
    ServeError,
    decode_message,
    encode_message,
    read_frame,
)
from repro.serve.shm_plans import ShmPlanStore, key_digest, plan_to_image

#: ready-mirror entries kept (reply frames, not schedules)
READY_MIRROR_SIZE = 1024
#: request frames remembered for replay, and the bytes they may hold
FRAME_MAP_SIZE = 4096
FRAME_MAP_BYTES = 4 << 20
#: the most recent builds whose latency the p50/p99 telemetry reads
LATENCY_WINDOW = 4096


@dataclass
class ServerStats:
    """Event-loop-owned counters (no locking: single-threaded loop)."""

    connections: int = 0
    requests: dict = field(default_factory=dict)
    #: answered from the ready mirror, no pool round trip
    ready_hits: int = 0
    #: answered from a remembered request frame, nothing decoded
    replayed: int = 0
    #: joined another connection's in-flight build
    single_flight_hits: int = 0
    #: drain-loop batches and the largest batch seen
    batches: int = 0
    batch_max: int = 0
    builds: int = 0
    build_failures: int = 0
    protocol_errors: int = 0
    plans_published: int = 0
    #: latencies of the most recent builds (seconds)
    build_latency: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def count(self, op: str) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1

    def note_latency(self, seconds: float) -> None:
        self.build_latency.append(seconds)

    def latency_percentile(self, q: float) -> float:
        if not self.build_latency:
            return 0.0
        ordered = sorted(self.build_latency)
        return ordered[int(q * (len(ordered) - 1))]

    def to_json(self) -> dict:
        return {
            "connections": self.connections,
            "requests": dict(sorted(self.requests.items())),
            "ready_hits": self.ready_hits,
            "replayed": self.replayed,
            "single_flight_hits": self.single_flight_hits,
            "batches": self.batches,
            "batch_max": self.batch_max,
            "builds": self.builds,
            "build_failures": self.build_failures,
            "protocol_errors": self.protocol_errors,
            "plans_published": self.plans_published,
            "build_latency_p50": self.latency_percentile(0.50),
            "build_latency_p99": self.latency_percentile(0.99),
            "build_latency_samples": len(self.build_latency),
        }


class ScheduleServer:
    """The daemon.  ``path`` serves a unix socket, otherwise
    ``host``/``port`` a TCP endpoint (``port=0`` picks a free port,
    exposed as :attr:`address` after :meth:`start`)."""

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        *,
        workers: int = 4,
        verify: bool = True,
        shm_plans: bool = False,
        cache: Optional[schedule_cache.ScheduleCache] = None,
    ) -> None:
        if path is None and host is None:
            host = "127.0.0.1"
        self.path = path
        self.host = host
        self.port = port
        self.verify = verify
        self.workers = max(1, int(workers))
        self.stats = ServerStats()
        self.opstats = OpStats()
        self._cache = cache if cache is not None else schedule_cache.GLOBAL_CACHE
        self._plan_store: Optional[ShmPlanStore] = (
            ShmPlanStore.create() if shm_plans else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        #: set once the first stop() has released everything
        self._closed: Optional[asyncio.Event] = None
        self._kick: Optional[asyncio.Event] = None
        #: canonical key -> future all concurrent requesters share
        self._inflight: dict[tuple, "asyncio.Future[tuple]"] = {}
        #: plan digest -> future (same dedup for plan lowering)
        self._plan_inflight: dict[str, "asyncio.Future[tuple]"] = {}
        #: requests awaiting the next drain: (key, request)
        self._pending: list[tuple[tuple, ScheduleRequest]] = []
        #: canonical key or plan digest -> stored reply frame, and
        #: request frame -> (op, that key) (see module docstring)
        self._ready: "OrderedDict[Any, bytes]" = OrderedDict()
        self._frames: "OrderedDict[bytes, tuple[str, Any]]" = OrderedDict()
        self._ready_bytes = 0
        self._frame_bytes = 0
        #: live connection handler tasks and writers (closed by stop())
        self._conn_tasks: set = set()
        self._writers: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._stopped = asyncio.Event()
        self._closed = asyncio.Event()
        self._kick = asyncio.Event()
        self._drain_task = asyncio.create_task(self._drain_loop())
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Any:
        """Where clients connect: the socket path, or ``(host, port)``."""
        return self.path if self.path is not None else (self.host, self.port)

    @property
    def plan_segment(self) -> Optional[str]:
        return self._plan_store.name if self._plan_store is not None else None

    async def serve_forever(self) -> None:
        """Serve until a stop() has released everything."""
        if self._server is None:
            await self.start()
        assert self._closed is not None
        await self._closed.wait()

    async def stop(self) -> None:
        """Stop serving; a second call waits until the first is done."""
        if self._stopped is None or self._closed is None:
            return
        if self._stopped.is_set():
            await self._closed.wait()
            return
        self._stopped.set()
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # unblock handlers parked in read_frame, then wait them out
            for writer in list(self._writers):
                writer.close()
            if self._conn_tasks:
                await asyncio.gather(
                    *list(self._conn_tasks), return_exceptions=True
                )
            if self._drain_task is not None:
                assert self._kick is not None
                self._kick.set()
                await self._drain_task
            for fut in list(self._inflight.values()) + list(
                self._plan_inflight.values()
            ):
                if not fut.done():
                    fut.cancel()
            self._inflight.clear()
            self._plan_inflight.clear()
        finally:
            # a stop() cancelled at any await above returns early on
            # retry (_stopped is set), so what outlives the process —
            # worker threads, the /dev/shm segment — is released here
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            if self._plan_store is not None:
                self._plan_store.close()
                self._plan_store.unlink()
                self._plan_store = None
            if self.path is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.path)
            self._closed.set()

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        stop_after = False
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while not stop_after:
                try:
                    frame = await read_frame(reader)
                    reply = self._replay(frame)
                    if reply is None:
                        message = decode_message(frame)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except (FrameError, ProtocolError) as exc:
                    # the stream may be desynchronized: answer, then close
                    self.stats.protocol_errors += 1
                    writer.write(encode_message(_error_payload(exc)))
                    await writer.drain()
                    break
                if reply is None:
                    stop_after = message.get("op") == "shutdown"
                    reply = await self._dispatch(message, frame)
                writer.write(reply)
                await writer.drain()
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
        if stop_after:
            await self.stop()

    async def _dispatch(self, message: dict, frame: bytes) -> bytes:
        """Answer one decoded request: its reply frame."""
        op = str(message.get("op", ""))
        self.stats.count(op or "?")
        try:
            if op == "ping":
                reply: Any = {"status": "ok", "protocol": PROTOCOL_VERSION, "pong": True}
            elif op == "stats":
                reply = self._stats_payload()
            elif op == "shutdown":
                reply = {"status": "ok", "bye": True}
            elif op in ("schedule", "plan"):
                request = ScheduleRequest.from_dict(message)
                resolve = self._resolve_schedule if op == "schedule" else self._resolve_plan
                reply, key = await resolve(request)
                if key in self._ready and frame not in self._frames:
                    self._learn(frame, op, key)
            else:
                raise ProtocolError(
                    f"unknown op {op!r} (ping/schedule/plan/stats/shutdown)"
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if isinstance(exc, ProtocolError):
                self.stats.protocol_errors += 1
            reply = _error_payload(exc)
        return reply if isinstance(reply, bytes) else encode_message(reply)

    # -- the ready mirror ----------------------------------------------
    def _replay(self, frame: bytes) -> Optional[bytes]:
        """The stored reply of a remembered request frame, booked as the
        decode path books a ready hit; ``None`` sends the frame down the
        decode path (it is new, or its key has left the mirror)."""
        known = self._frames.get(frame)
        if known is None:
            return None
        reply = self._hit(*known)
        if reply is None:
            del self._frames[frame]
            self._frame_bytes -= len(frame)
            return None
        self._frames.move_to_end(frame)
        self.stats.count(known[0])
        self.stats.replayed += 1
        return reply

    def _hit(self, op: str, key: Any) -> Optional[bytes]:
        """The stored reply under ``key``, booked as a hit, or ``None``."""
        reply = self._ready.get(key)
        if reply is not None:
            self._ready.move_to_end(key)
            if op == "schedule":
                self.stats.ready_hits += 1
                self.opstats.record_cache(True, backend="serve")
        return reply

    def _learn(self, frame: bytes, op: str, key: Any) -> None:
        self._frames[frame] = (op, key)
        self._frame_bytes += len(frame)
        while len(self._frames) > FRAME_MAP_SIZE or self._frame_bytes > FRAME_MAP_BYTES:
            old, _ = self._frames.popitem(last=False)
            self._frame_bytes -= len(old)

    def _remember(self, key: Any, reply: bytes) -> bytes:
        self._ready_bytes += len(reply) - len(self._ready.get(key, b""))
        self._ready[key] = reply
        self._ready.move_to_end(key)
        while len(self._ready) > READY_MIRROR_SIZE:
            _, old = self._ready.popitem(last=False)
            self._ready_bytes -= len(old)
        return reply

    # -- the schedule pipeline -----------------------------------------
    async def _resolve_schedule(
        self, request: ScheduleRequest
    ) -> tuple[Any, tuple]:
        """The reply (a stored frame, or a dict to encode) and the key."""
        key = request.canonical_key()
        ready = self._hit("schedule", key)
        if ready is not None:
            return ready, key
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.single_flight_hits += 1
            payload, _seconds, _hit = await asyncio.shield(inflight)
            self.opstats.record_cache(True, backend="serve")
            return self._ok_schedule(payload, hit=True, single_flight=True), key
        assert self._loop is not None and self._kick is not None
        future: "asyncio.Future[tuple]" = self._loop.create_future()
        self._inflight[key] = future
        self._pending.append((key, request))
        self._kick.set()
        payload, seconds, hit = await asyncio.shield(future)
        self.opstats.record_cache(hit, seconds, backend="serve")
        return self._ok_schedule(
            payload, hit=hit, single_flight=False, build_seconds=seconds
        ), key

    def _ok_schedule(
        self,
        payload: dict,
        *,
        hit: bool,
        single_flight: bool,
        build_seconds: float = 0.0,
    ) -> dict:
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "schedule": payload,
            "hit": hit,
            "single_flight": single_flight,
            "build_seconds": build_seconds,
            "certified": self.verify,
        }

    async def _drain_loop(self) -> None:
        """Collect everything that arrived since the last drain into one
        batch and launch the batch's builds on the pool together."""
        assert self._kick is not None and self._stopped is not None
        while True:
            await self._kick.wait()
            self._kick.clear()
            if self._stopped.is_set():
                for key, _request in self._pending:
                    fut = self._inflight.pop(key, None)
                    if fut is not None and not fut.done():
                        fut.cancel()
                self._pending.clear()
                return
            batch, self._pending = self._pending, []
            if not batch:
                continue
            self.stats.batches += 1
            self.stats.batch_max = max(self.stats.batch_max, len(batch))
            for key, request in batch:
                asyncio.ensure_future(self._run_build(key, request))

    async def _run_build(self, key: tuple, request: ScheduleRequest) -> None:
        future = self._inflight.get(key)
        if future is None or future.done():
            return
        assert self._loop is not None and self._pool is not None
        try:
            payload, ready, seconds, hit = await self._loop.run_in_executor(
                self._pool, self._build_certified, request, key
            )
            if not hit:
                self.stats.builds += 1
                self.stats.note_latency(seconds)
            self._remember(key, ready)
            if not future.done():
                future.set_result((payload, seconds, hit))
        except Exception as exc:
            self.stats.build_failures += 1
            if not future.done():
                future.set_exception(exc)
                # the requester that registered the future always awaits
                # it; nothing is left unretrieved
        finally:
            self._inflight.pop(key, None)

    def _build_certified(
        self, request: ScheduleRequest, key: tuple
    ) -> tuple[dict, bytes, float, bool]:
        """Worker-thread body: build-or-fetch through the cache
        (certification runs inside its single-flight section), serialize
        the schedule once and encode the ready-hit reply frame."""
        sched, hit, seconds = self._cache.get_or_build(
            key, request.build, self._verifier(request)
        )
        assert isinstance(sched, Schedule)
        payload = schedule_to_dict(sched)
        ready = self._ok_schedule(payload, hit=True, single_flight=False)
        return payload, encode_message(ready), seconds, hit

    def _verifier(
        self, request: ScheduleRequest
    ) -> Optional[Callable[[Any], None]]:
        if not self.verify:
            return None
        dims = request.dims
        if dims is None:
            raise ProtocolError(
                "certification requires 'dims' (and optionally 'periods') "
                "in the request; start the server with verify=False to "
                "serve unverified schedules"
            )
        periods = (
            request.periods if request.periods is not None else True
        )

        def check(sched: Any) -> None:
            # the lowering certification judged is filed as the
            # schedule's plan, so a plan request at its sizes lowers
            # nothing again
            plan_mod.adopt_certified(
                sched, lambda: certify_schedule(sched, dims, periods).plan
            )

        return check

    # -- plans ---------------------------------------------------------
    async def _resolve_plan(self, request: ScheduleRequest) -> tuple[Any, str]:
        """The reply (a stored frame, or a dict to encode) and the digest."""
        if self._plan_store is None:
            raise ServeError(
                "this server has no shared plan store "
                "(start it with shm_plans=True)"
            )
        if request.rank is None or request.sizes is None:
            raise ProtocolError(
                "plan requests need 'rank' and 'sizes' on top of the "
                "schedule layout"
            )
        if request.dims is None:
            raise ProtocolError("plan requests need 'dims'")
        key = request.canonical_key()
        digest = key_digest((key, request.rank, request.sizes))
        ready = self._hit("plan", digest)
        if ready is not None:  # a store hit answered before
            return ready, digest
        published = self._plan_store.locate(digest)
        if published is not None:
            # a store hit is a dict lookup: answer on the loop instead
            # of hopping through a worker thread behind running builds
            reply = self._ok_plan(digest, *published, True)
            return self._remember(digest, encode_message(reply)), digest
        inflight = self._plan_inflight.get(digest)
        if inflight is not None:
            self.stats.single_flight_hits += 1
            offset, nbytes, plan_hit = await asyncio.shield(inflight)
            return self._ok_plan(digest, offset, nbytes, plan_hit), digest
        assert self._loop is not None and self._pool is not None
        future: "asyncio.Future[tuple]" = self._loop.create_future()
        self._plan_inflight[digest] = future
        try:
            offset, nbytes, plan_hit = await self._loop.run_in_executor(
                self._pool, self._build_plan, request, key, digest
            )
            if not future.done():
                future.set_result((offset, nbytes, plan_hit))
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
            raise
        finally:
            self._plan_inflight.pop(digest, None)
        if not plan_hit:
            self.stats.plans_published += 1
        return self._ok_plan(digest, offset, nbytes, plan_hit), digest

    def _ok_plan(
        self, digest: str, offset: int, nbytes: int, plan_hit: bool
    ) -> dict:
        assert self._plan_store is not None
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "shm": {
                "segment": self._plan_store.name,
                "offset": offset,
                "nbytes": nbytes,
                "key": digest,
            },
            "plan_hit": plan_hit,
        }

    def _build_plan(
        self, request: ScheduleRequest, key: tuple, digest: str
    ) -> tuple[int, int, bool]:
        """Worker-thread body: certified schedule, the cached lowering's
        view for the requested rank, publish into the shared store
        (idempotent on the digest)."""
        store = self._plan_store
        if store is None:
            raise ServeError("plan store closed")
        existing = store.locate(digest)
        if existing is not None:
            return existing[0], existing[1], True
        sched, _hit, _seconds = self._cache.get_or_build(
            key, request.build, self._verifier(request)
        )
        assert isinstance(sched, Schedule)
        assert request.dims is not None and request.rank is not None
        topo = CartTopology(request.dims, request.periods)
        sizes = dict(request.sizes or ())
        plan, _plan_hit = plan_mod.get_or_compile(sched, topo, sizes=sizes)
        offset, nbytes = store.put(
            digest, plan_to_image(plan.for_rank(request.rank))
        )
        return offset, nbytes, False

    # -- telemetry -----------------------------------------------------
    def _stats_payload(self) -> dict:
        info = self._cache.info()
        payload: dict[str, Any] = {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "server": self.stats.to_json(),
            "cache": info._asdict(),
            "plan_cache": plan_mod.plan_cache_info()._asdict(),
            "opstats": self.opstats.to_json(),
            "ready_mirror": {"entries": len(self._ready), "bytes": self._ready_bytes,
                             "frames": len(self._frames), "frame_bytes": self._frame_bytes},
            "verify": self.verify,
        }
        if self._plan_store is not None:
            payload["plan_store"] = {
                "segment": self._plan_store.name,
                "capacity": self._plan_store.capacity,
                "used": self._plan_store.used,
                "entries": len(self._plan_store),
            }
        # the payload must survive the framed JSON wire format
        json.dumps(payload)
        return payload


def _error_payload(exc: BaseException) -> dict:
    return {
        "status": "error",
        "protocol": PROTOCOL_VERSION,
        "etype": type(exc).__name__,
        "error": str(exc),
    }
