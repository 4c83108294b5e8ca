"""Clients of the schedule service.

:class:`ScheduleClient` is blocking: one ``socket`` per client, one
request in flight at a time — the shape a rank process uses.  It speaks
the framed protocol of :mod:`repro.serve.protocol` and raises
:class:`ServeError` (carrying the server-side exception type) on
``status: error`` answers.

Plan references returned by ``plan`` requests are resolved through
:meth:`map_plan`: the client attaches the server's shared-memory
segment once and reconstructs every referenced
:class:`~repro.core.plan.RankPlan` zero-copy from it.
"""

from __future__ import annotations

import socket
from typing import Any, Optional

from repro.core.plan import RankPlan
from repro.core.schedule import Schedule
from repro.core.serialize import schedule_from_dict
from repro.serve.protocol import (
    ProtocolError,
    ScheduleRequest,
    ServeError,
    encode_message,
    read_message_sync,
)
from repro.serve.shm_plans import ShmPlanStore, plan_from_image


def _raise_on_error(response: dict) -> dict:
    status = response.get("status")
    if status == "ok":
        return response
    if status == "error":
        raise ServeError(
            f"{response.get('etype', 'ServeError')}: "
            f"{response.get('error', 'unknown server error')}"
        )
    raise ProtocolError(f"response without a status field: {response!r}")


class ScheduleClient:
    """Blocking client: ``connect`` to a unix path or ``(host, port)``."""

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        timeout: Optional[float] = 30.0,
    ) -> None:
        #: attached plan segments, by name
        self._stores: dict[str, ShmPlanStore] = {}
        if path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(path)
        elif host is not None and port is not None:
            sock = socket.create_connection((host, port), timeout=timeout)
        else:
            raise ValueError("need a unix path or host and port")
        self._sock: Optional[socket.socket] = sock

    # -- transport -----------------------------------------------------
    def request(self, message: dict) -> dict:
        """Send one message, wait for its response (raises on errors)."""
        if self._sock is None:
            raise ServeError("client is closed")
        self._sock.sendall(encode_message(message))
        return _raise_on_error(read_message_sync(self._sock))

    # -- operations ----------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def request_schedule(
        self, request: ScheduleRequest
    ) -> tuple[Schedule, dict]:
        """``(schedule, response)`` — the schedule is rebuilt from its
        serialized dict; the response carries ``hit``/``single_flight``/
        ``build_seconds``/``certified``."""
        response = self.request(request.to_dict("schedule"))
        return schedule_from_dict(response["schedule"]), response

    def request_plan(
        self, request: ScheduleRequest
    ) -> tuple[RankPlan, dict]:
        """``(plan, response)`` — the plan is mapped zero-copy from the
        server's shared-memory store (same machine only)."""
        response = self.request(request.to_dict("plan"))
        return self.map_plan(response), response

    def map_plan(self, response: dict) -> RankPlan:
        """Resolve a ``plan`` response's shared-memory reference into a
        :class:`RankPlan` whose kernels run off the shared pages."""
        ref = response.get("shm")
        if not isinstance(ref, dict):
            raise ProtocolError(f"plan response without 'shm': {response!r}")
        segment = str(ref["segment"])
        store = self._stores.get(segment)
        if store is None:
            store = self._stores[segment] = ShmPlanStore.attach(segment)
        image = store.payload_at(int(ref["offset"]), int(ref["nbytes"]))
        return plan_from_image(image)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        for store in self._stores.values():
            store.close()
        self._stores.clear()

    def __enter__(self) -> "ScheduleClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
