"""Execution backends: transports + the one schedule interpreter.

A :class:`~repro.core.schedule.Schedule` is pure local data
(Proposition 3.1); *how* it is executed is this package's concern.
Pick one of the two executors by name — ``"threaded"`` (a thread and
a mailbox per rank) or ``"batched"`` (every rank in one process, one
numpy program for all of them — the recommended choice for large
meshes) — through :func:`get_backend`, via ``CartComm(..., backend=...)``,
or process-wide with the ``REPRO_BACKEND`` environment variable.

``"lockstep"`` used to name the rank-by-rank walk over the plan's
views, and ``"shm"`` a forked process per rank that mapped a fresh
segment on every call.  Everything either ran the batched executor runs
faster, and what the matrix forms cannot run the batched executor hands
to the walk itself, so both names are accepted aliases of ``"batched"``
(:data:`ALIASES`).  The walk stays importable as
:class:`LockstepBackend` — the independent reference the verifier and
the parity tests execute against — but is not selectable by name.
"""

from __future__ import annotations

import os

from repro.core.backend.base import (
    Backend,
    BackendError,
    Transport,
    allocate_buffers,
)
from repro.core.backend.batched import BatchedBackend
from repro.core.backend.interpreter import CARTTAG, ScheduleInterpreter
from repro.core.backend.lockstep import LockstepBackend, LockstepTransport
from repro.core.backend.threaded import ThreadedBackend, ThreadedTransport

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV = "REPRO_BACKEND"

#: The process-wide backend registry (singletons: backends are stateless).
BACKENDS: dict[str, Backend] = {
    "threaded": ThreadedBackend(),
    "batched": BatchedBackend(),
}

#: Accepted names of executors that no longer exist -> the registry
#: entry that runs their work now.
ALIASES = {"lockstep": "batched", "shm": "batched"}

# an unknown name fails at import, not in a rank's first collective
if (os.environ.get(BACKEND_ENV) or "threaded") not in {*BACKENDS, *ALIASES}:
    raise ValueError(f"{BACKEND_ENV}={os.environ[BACKEND_ENV]!r}: expected one of "
                     f"{', '.join(sorted(BACKENDS))} (or an alias: {', '.join(sorted(ALIASES))})")


def get_backend(spec: str | Backend | None = None) -> Backend:
    """Resolve a backend: an instance passes through, a name (or an
    alias of one) looks up the registry, and ``None`` falls back to
    ``$REPRO_BACKEND`` or ``"threaded"``."""
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "threaded"
    try:
        return BACKENDS[ALIASES.get(spec, spec)]
    except KeyError:
        raise BackendError(
            f"unknown backend {spec!r}; available: {sorted(BACKENDS)}"
        ) from None


__all__ = [
    "ALIASES",
    "BACKENDS",
    "BACKEND_ENV",
    "Backend",
    "BackendError",
    "BatchedBackend",
    "CARTTAG",
    "LockstepBackend",
    "LockstepTransport",
    "ScheduleInterpreter",
    "ThreadedBackend",
    "ThreadedTransport",
    "Transport",
    "allocate_buffers",
    "get_backend",
]
