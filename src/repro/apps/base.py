"""Shared machinery of the application layer.

Every app in :mod:`repro.apps` follows one contract:

* it owns a complete problem instance (initial state + iteration
  count), fully determined at construction;
* :meth:`CartesianApp.sequential` computes the **oracle** — the result a
  single-process reference implementation produces, with bit-exact
  integer arithmetic so equality is well defined;
* :meth:`CartesianApp.run` executes the same problem distributed over a
  Cartesian communicator on any registered execution backend with any
  collective algorithm, returning an :class:`AppRun` with the assembled
  global result and the merged per-rank :class:`~repro.core.opstats.OpStats`;
* :meth:`CartesianApp.certify` is the differential harness: it runs the
  full ``backend × algorithm`` matrix and demands **bit equality**
  (``tobytes()`` identity, not approximate closeness) of every
  distributed result against the sequential oracle.

Because the apps iterate — halo exchange per generation, shift per
Cannon step, broadcast per sweep — a certified run exercises persistent
operations, multi-iteration schedule/plan cache reuse and the funnelled
regime of the all-ranks backends end-to-end, which no single-collective
test can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.core.opstats import OpStats

#: Collective algorithms every app is certified under.
APP_ALGORITHMS = ("combining", "trivial")


class AppCertificationError(AssertionError):
    """A distributed app run diverged from its sequential oracle (or
    from another backend's run of the same problem)."""


def registered_backends() -> list[str]:
    """The execution backends every app is certified on: each registry
    entry once, sorted (aliases are not listed)."""
    from repro.core.backend import BACKENDS

    return sorted(BACKENDS)


def merge_stats(per_rank: Iterable[Optional[OpStats]]) -> OpStats:
    """Fold every rank's :class:`OpStats` into one job-wide collector
    (counters add; ``(op, algorithm, backend)`` records merge)."""
    merged = OpStats()
    for stats in per_rank:
        if stats is not None:
            merged.merge_from(stats)
    return merged


@dataclass
class AppRun:
    """One distributed execution of an app."""

    app: str
    backend: str
    algorithm: str
    iterations: int
    #: the assembled global result (same array an oracle run produces)
    output: np.ndarray
    #: merged per-rank operation statistics for the whole run
    stats: OpStats
    #: app-specific extra arrays also held to bit equality (e.g. the
    #: final raw receive buffers of the broadcast app)
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.app}[{self.algorithm}/{self.backend}] "
            f"x{self.iterations}: {self.stats.total_calls} collectives, "
            f"{self.stats.total_rounds} rounds"
        )


def _as_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


class CartesianApp:
    """Base class: problem instance + oracle + distributed driver."""

    #: short app identifier (used in stats, benchmarks, reports)
    name: str = "app"

    def __init__(self) -> None:
        self._oracle: Optional[np.ndarray] = None

    # -- to be provided by concrete apps -------------------------------
    def _sequential(self) -> np.ndarray:
        raise NotImplementedError

    def run(
        self,
        *,
        backend: str = "threaded",
        algorithm: str = "combining",
        engine: Optional[Any] = None,
    ) -> AppRun:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def sequential(self) -> np.ndarray:
        """The cached sequential-reference (oracle) result."""
        if self._oracle is None:
            self._oracle = self._sequential()
        return self._oracle

    def certify(
        self,
        backends: Optional[Sequence[str]] = None,
        algorithms: Sequence[str] = APP_ALGORITHMS,
    ) -> dict[tuple[str, str], AppRun]:
        """Differential certification: run every ``backend × algorithm``
        combination and require bit equality against the oracle.

        Returns the certified runs keyed ``(backend, algorithm)``;
        raises :class:`AppCertificationError` on the first divergence.
        """
        oracle = self.sequential()
        runs: dict[tuple[str, str], AppRun] = {}
        for backend in backends if backends is not None else registered_backends():
            for algorithm in algorithms:
                run = self.run(backend=backend, algorithm=algorithm)
                self.check_against_oracle(run, oracle)
                runs[(backend, algorithm)] = run
        return runs

    def check_against_oracle(
        self, run: AppRun, oracle: Optional[np.ndarray] = None
    ) -> None:
        """Bit-equality check of one run against the oracle (dtype,
        shape and raw bytes must all agree)."""
        expected = self.sequential() if oracle is None else oracle
        got = run.output
        if got.dtype != expected.dtype or got.shape != expected.shape:
            raise AppCertificationError(
                f"{run.describe()}: result dtype/shape "
                f"{got.dtype}/{got.shape} != oracle "
                f"{expected.dtype}/{expected.shape}"
            )
        if _as_bytes(got) != _as_bytes(expected):
            diff = int(np.count_nonzero(got != expected))
            raise AppCertificationError(
                f"{run.describe()}: result diverges from the sequential "
                f"oracle in {diff}/{expected.size} entries"
            )
        expected_aux = self._expected_aux()
        for key, exp in expected_aux.items():
            if key not in run.aux:
                raise AppCertificationError(
                    f"{run.describe()}: missing aux array {key!r}"
                )
            if _as_bytes(run.aux[key]) != _as_bytes(np.asarray(exp)):
                raise AppCertificationError(
                    f"{run.describe()}: aux array {key!r} diverges from "
                    f"the oracle"
                )

    def _expected_aux(self) -> dict[str, np.ndarray]:
        """Oracle values for the app's aux arrays (none by default)."""
        return {}
