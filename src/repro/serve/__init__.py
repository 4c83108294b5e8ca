"""Schedule-compilation-as-a-service.

The process-wide schedule cache plus compiled execution plans are
exactly the hot path of a topology service: compiling and certifying an
isomorphic Cartesian schedule *once* and amortizing it across every
rank and client is the paper's central economy (Proposition 3.1 —
schedules are pure, locally computable data).  This package serves that
economy over a socket:

* :mod:`repro.serve.protocol` — the framed request/response wire format
  (length-prefixed, CRC-guarded frames from
  :mod:`repro.core.serialize`) and the schedule-request model mapping
  requests onto the canonical cache fingerprint and builder registry;
* :mod:`repro.serve.server` — the asyncio daemon: request batching,
  cross-connection single-flight dedup, a worker pool for builds, and
  verifier certification before any schedule is first served;
* :mod:`repro.serve.client` — the blocking client;
* :mod:`repro.serve.shm_plans` — the shared-memory plan store: a
  rank's :class:`~repro.core.plan.RankPlan` is published once and
  mapped zero-copy, read-only, by every forked worker process.

Run a daemon with ``python -m repro.serve --socket /tmp/repro.sock``.
"""

from repro.serve.client import ScheduleClient
from repro.serve.protocol import (
    ProtocolError,
    ScheduleRequest,
    ServeError,
)
from repro.serve.server import ScheduleServer
from repro.serve.shm_plans import ShmPlanStore

__all__ = [
    "ProtocolError",
    "ScheduleClient",
    "ScheduleRequest",
    "ScheduleServer",
    "ServeError",
    "ShmPlanStore",
]
