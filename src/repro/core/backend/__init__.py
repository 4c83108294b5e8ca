"""Execution backends: transports + the one schedule interpreter.

A :class:`~repro.core.schedule.Schedule` is pure local data
(Proposition 3.1); *how* it is executed is this package's concern.
Pick a backend by name (``"threaded"``, ``"lockstep"``, ``"batched"``,
``"shm"``) through :func:`get_backend`, via
``CartComm(..., backend=...)``, or process-wide with the
``REPRO_BACKEND`` environment variable.  ``"batched"`` is the lockstep
semantics executed as one vectorized numpy program over all ranks — the
recommended choice for large meshes.
"""

from __future__ import annotations

import os

from repro.core.backend.base import (
    Backend,
    BackendError,
    Transport,
    allocate_buffers,
    allocate_rank_buffers,
)
from repro.core.backend.batched import BatchedBackend
from repro.core.backend.interpreter import CARTTAG, ScheduleInterpreter
from repro.core.backend.lockstep import LockstepBackend, LockstepTransport
from repro.core.backend.shm import ShmBackend, ShmTransport
from repro.core.backend.threaded import ThreadedBackend, ThreadedTransport

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV = "REPRO_BACKEND"

#: The process-wide backend registry (singletons: backends are stateless).
BACKENDS: dict[str, Backend] = {
    "threaded": ThreadedBackend(),
    "lockstep": LockstepBackend(),
    "batched": BatchedBackend(),
    "shm": ShmBackend(),
}


def get_backend(spec: str | Backend | None = None) -> Backend:
    """Resolve a backend: an instance passes through, a name looks up the
    registry, and ``None`` falls back to ``$REPRO_BACKEND`` or
    ``"threaded"``."""
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "threaded"
    try:
        return BACKENDS[spec]
    except KeyError:
        raise BackendError(
            f"unknown backend {spec!r}; available: {sorted(BACKENDS)}"
        ) from None


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "Backend",
    "BackendError",
    "BatchedBackend",
    "CARTTAG",
    "LockstepBackend",
    "LockstepTransport",
    "ScheduleInterpreter",
    "ShmBackend",
    "ShmTransport",
    "ThreadedBackend",
    "ThreadedTransport",
    "Transport",
    "allocate_buffers",
    "allocate_rank_buffers",
    "get_backend",
]
