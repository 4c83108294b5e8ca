"""Exception hierarchy for the virtual MPI runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class RankState:
    """Structured progress of one rank, for failure diagnostics.

    Updated by the executor (operation / phase / round) and read by the
    engine when it declares a deadlock or abort, so errors can name what
    every stuck rank was doing rather than just that it was stuck.
    """

    op: str = "idle"
    phase: Optional[int] = None
    round: Optional[int] = None
    detail: str = ""

    def update(
        self,
        op: Optional[str] = None,
        phase: Optional[int] = None,
        round: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        if op is not None:
            self.op = op
            # a new operation resets the positional fields
            self.phase = None
            self.round = None
            self.detail = ""
        if phase is not None:
            self.phase = phase
            self.round = None
        if round is not None:
            self.round = round
        if detail is not None:
            self.detail = detail

    def describe(self) -> str:
        parts = [f"op={self.op}"]
        if self.phase is not None:
            parts.append(f"phase={self.phase}")
        if self.round is not None:
            parts.append(f"round={self.round}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class MpiSimError(Exception):
    """Base class for all errors raised by the virtual MPI runtime."""


class DeadlockError(MpiSimError):
    """Raised when the engine's global timeout expires while ranks are
    still blocked in communication calls.

    A correct Cartesian collective schedule can never deadlock
    (Proposition 3.1 relies on all processes executing the identical round
    sequence); this error therefore indicates either a bug in a schedule or
    a mis-matched user communication pattern.  ``stuck_info`` maps each
    stuck rank to its :class:`RankState` (current operation, phase, round
    and in-flight receives) at declaration time.
    """

    def __init__(
        self,
        message: str,
        stuck_ranks: tuple[int, ...] = (),
        stuck_info: Optional[dict[int, RankState]] = None,
    ):
        super().__init__(message)
        self.stuck_ranks = tuple(stuck_ranks)
        self.stuck_info = dict(stuck_info or {})


class TruncationError(MpiSimError):
    """Raised when a received message does not fit the posted buffer."""


class AbortError(MpiSimError):
    """Raised inside ranks when the engine aborts the run.

    The engine aborts when any rank raises: all other ranks blocked in
    communication are woken with :class:`AbortError` so that the whole run
    terminates promptly and the original exception can be re-raised.
    ``rank`` and ``state`` identify the woken rank and what it was doing.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        state: Optional[RankState] = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.state = state


class RankFailedError(MpiSimError):
    """Raised by the engine when a rank function raised: wraps the
    original exception with the failing rank attached (``rank`` /
    ``cause``)."""

    def __init__(self, message: str, rank: int, cause: BaseException):
        super().__init__(message)
        self.rank = rank
        self.cause = cause


class RecvTimeoutError(MpiSimError, TimeoutError):
    """A single receive exceeded its (per-receive) timeout.

    Subclasses :class:`TimeoutError` for compatibility with callers that
    treat receive timeouts generically; carries the waiting rank, the
    match triple, and how many backoff retries were performed.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        source: Optional[int] = None,
        tag: Optional[int] = None,
        waited: float = 0.0,
        retries: int = 0,
    ):
        super().__init__(message)
        self.rank = rank
        self.source = source
        self.tag = tag
        self.waited = waited
        self.retries = retries


class FaultError(MpiSimError):
    """Base class of errors caused by deliberately injected faults
    (:mod:`repro.mpisim.faults`).  ``fault`` carries the injected-fault
    description so failures are attributable to their cause."""

    def __init__(self, message: str, fault: str = ""):
        super().__init__(message)
        self.fault = fault


class RankKilledError(FaultError):
    """An injected fault killed a rank outright."""

    def __init__(self, message: str, rank: int, fault: str = ""):
        super().__init__(message, fault=fault)
        self.rank = rank


class DuplicateMessageError(FaultError):
    """A receive matched a message the fault injector duplicated.

    The runtime detects duplicate delivery at match time (the transport
    analogue of sequence-number checking) and fails the receive cleanly
    instead of silently unpacking stale data."""


class TopologyError(MpiSimError):
    """Raised for invalid Cartesian topology parameters (bad dims,
    non-positive sizes, dims/periods length mismatch, coordinate out of
    range on a non-periodic mesh)."""


class NeighborhoodError(MpiSimError):
    """Raised for invalid ``t``-neighborhoods (wrong offset arity, empty
    neighborhood where one is required, non-isomorphic neighborhoods
    detected at communicator creation)."""


class ScheduleError(MpiSimError):
    """Raised when schedule construction or execution detects an internal
    inconsistency (e.g. a block that does not terminate in the receive
    buffer, or mismatched round send/receive block counts)."""


class UnknownBufferError(ScheduleError, KeyError):
    """A block names a buffer the caller did not supply (the bounds
    check used to say ``KeyError``, the plan compiler ``ScheduleError``)."""

    def __str__(self) -> str:  # KeyError's would repr-quote the message
        return str(self.args[0]) if self.args else ""
