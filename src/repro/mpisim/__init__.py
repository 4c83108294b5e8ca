"""Virtual MPI runtime.

This subpackage provides the message-passing substrate the paper's library
is built on.  The real library sits on top of MPI; no MPI implementation is
available here, so this is a from-scratch, faithful-in-semantics runtime:

* :mod:`repro.mpisim.engine` — runs each rank on a parked OS thread (one
  per rank index, shared by every job; :func:`pool_info` counts them)
  and gives each a :class:`~repro.mpisim.comm.Communicator`.
* :mod:`repro.mpisim.mailbox` — per-rank mailboxes with MPI message
  matching: ``(source, tag, communicator)`` triples, wildcard source/tag,
  and the non-overtaking guarantee for identical envelopes.
* :mod:`repro.mpisim.request` — non-blocking request objects
  (``test``/``wait``/``waitall``).
* :mod:`repro.mpisim.comm` — blocking and non-blocking point-to-point plus
  the base collectives (barrier, bcast, gather, allgather, alltoall) needed
  by Section 2.2's isomorphism detection and by tests.
* :mod:`repro.mpisim.datatypes` — MPI derived datatypes over NumPy buffers
  (contiguous, vector, indexed, struct, resized) including the multi-buffer
  ``BlockRef`` struct types that implement Algorithm 1's ``TypeApp``.
"""

from repro.mpisim.exceptions import (
    MpiSimError,
    DeadlockError,
    TruncationError,
    AbortError,
    DuplicateMessageError,
    FaultError,
    RankFailedError,
    RankKilledError,
    RankState,
    RecvTimeoutError,
)
from repro.mpisim.engine import Engine, PoolInfo, pool_info
from repro.mpisim.comm import Communicator, ANY_SOURCE, ANY_TAG
from repro.mpisim.mailbox import WaitPolicy
from repro.mpisim.request import Request, waitall

#: fault-injection exports resolved lazily (PEP 562) so that running
#: ``python -m repro.mpisim.faults`` does not import the module twice
#: (once as ``__main__``, once here) with distinct class identities.
_FAULT_EXPORTS = (
    "ChaosViolation",
    "FaultEvent",
    "FaultPlan",
    "chaos_run",
    "chaos_sweep",
)


def __getattr__(name):
    if name in _FAULT_EXPORTS:
        from repro.mpisim import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MpiSimError",
    "DeadlockError",
    "TruncationError",
    "AbortError",
    "DuplicateMessageError",
    "FaultError",
    "RankFailedError",
    "RankKilledError",
    "RankState",
    "RecvTimeoutError",
    "Engine",
    "PoolInfo",
    "pool_info",
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "WaitPolicy",
    "Request",
    "waitall",
    "ChaosViolation",
    "FaultEvent",
    "FaultPlan",
    "chaos_run",
    "chaos_sweep",
]
