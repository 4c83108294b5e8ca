"""Shared machinery of the application layer.

Every app in :mod:`repro.apps` follows one contract:

* it owns a complete problem instance (initial state + iteration
  count), fully determined at construction;
* :meth:`CartesianApp.sequential` computes the **oracle** — the result a
  single-process reference implementation produces, with bit-exact
  integer arithmetic so equality is well defined;
* it declares, once, its per-rank state (``_state``), its one
  persistent exchange over one rank's buffers (``_exchange``) and its
  step, in place, over a leading rank axis or one rank's arrays
  (``_step``), and assembles the result from the final states
  (``_finish``);
* :meth:`CartesianApp.run` drives those on any registered execution
  backend with any collective algorithm, returning an :class:`AppRun`
  with the assembled global result, the per-rank
  :class:`~repro.core.opstats.OpStats` and the driver that ran;
* :meth:`CartesianApp.certify` is the differential harness: it runs the
  full ``backend × algorithm`` matrix and demands **bit equality**
  (``tobytes()`` identity, not approximate closeness) of every
  distributed result against the sequential oracle.

Two drivers run an app, chosen from what the call shows (``backend=None``
reads ``$REPRO_BACKEND``).  The **rows driver** (``batched``, no
``engine``, one plan with a staged form) runs on the calling thread: the
exchange bound once on a communicator-less
:class:`~repro.core.cartcomm.CartComm`, every rank's state copied once
into its row of the plan's staged block (of a stack that an iteration
transposes into and out of the plan's planes, where it runs in them),
an iteration the plan's execution on it and one step call on all ``p``
rows.  The
**SPMD driver** (``threaded``, an ``engine``'s faults or trace) runs one
rank thread per rank.  A ragged decomposition on ``batched`` is refused
before any thread starts.

An app holds what its runs share, derived once per instance from what
construction fixed: the :class:`~repro.core.cartcomm.CommRecord` of
``dims``, ``periods`` and ``nbh`` (so a repeat rows run's bind is a
level-1 hit with its bounds verdict on file) and, for the grid apps,
the decomposition's slabs.  A run re-derives only what is its own: the
states, the bind and plan lookups, the staged block and the result.
The SPMD driver lays out per job (:func:`~repro.core.api.run_cartesian`:
that is where Section 2.2's isomorphism check meets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core import plan as plan_mod
from repro.core.api import run_cartesian
from repro.core.backend import batched, get_backend
from repro.core.cartcomm import CartComm, CommRecord, lay_out
from repro.core.opstats import OpStats
from repro.core.persistent import PersistentOp

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
    #: which driver ran and why (``"rows: 16 ranks, one plan, fused"``)
    driver: str = ""

    def describe(self) -> str:
        return (
            f"{self.app}[{self.algorithm}/{self.backend}] "
            f"x{self.iterations}: {self.stats.total_calls} collectives, "
            f"{self.stats.total_rounds} rounds, {self.driver}"
        )


def _as_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


class CartesianApp:
    """Base class: problem instance + oracle + the two drivers."""

    #: short app identifier (used in stats, benchmarks, reports)
    name: str = "app"
    #: the process grid, its periods, the exchange's neighbourhood, iterations
    dims: tuple[int, ...]
    periods: tuple[bool, ...]
    nbh: Any
    iterations: int

    def __init__(self) -> None:
        self._oracle: Optional[np.ndarray] = None

    # -- to be provided by concrete apps (the module docstring) ---------
    def _sequential(self) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> list[dict[str, np.ndarray]]:  # the exchange's under its names
        raise NotImplementedError

    def _exchange(self, cart: CartComm, buffers: Any, algorithm: str) -> PersistentOp:
        raise NotImplementedError

    def _step(self, state: Mapping[str, np.ndarray], it: int) -> None:
        raise NotImplementedError

    def _finish(self, states: Sequence[Mapping[str, np.ndarray]]) -> tuple[np.ndarray, dict]:
        raise NotImplementedError  # the global result and the aux arrays

    # -- the drivers ---------------------------------------------------
    @cached_property
    def _record(self) -> CommRecord:
        """The layout of ``dims``, ``periods`` and ``nbh`` (fixed at
        construction), laid out once: every rows run binds on it."""
        return lay_out(self.dims, self.periods, self.nbh)

    def run(
        self,
        *,
        backend: Optional[str] = None,
        algorithm: str = "combining",
        engine: Optional[Any] = None,
    ) -> AppRun:
        """Run the problem distributed over ``dims`` ranks on ``backend``
        (``None``: ``$REPRO_BACKEND``, else ``"threaded"``; the module
        docstring says which driver runs)."""
        states = self._state()
        executor = get_backend(backend).name
        shapes = [{name: a.shape for name, a in s.items()} for s in states]
        rank = next((r for r, mine in enumerate(shapes) if mine != shapes[0]), 0)
        if executor == "batched" and rank:
            raise ValueError(
                f"rank {rank}'s blocks {shapes[rank]} differ from rank 0's {shapes[0]}: "
                f"backend='batched' runs one schedule for all ranks; use backend='threaded'"
            )
        stats, driver = None, f"spmd: backend {executor}"
        if engine is not None:
            driver = "spmd: engine given"
        elif executor == "batched":
            stats, driver = self._run_rows(states, algorithm)
        if stats is None:
            stats = self._run_spmd(states, executor, algorithm, engine)
        output, aux = self._finish(states)
        return AppRun(
            self.name, executor, algorithm, self.iterations, output, stats, aux, driver
        )

    def _run_spmd(self, states, backend, algorithm, engine) -> OpStats:
        def rank(cart: CartComm) -> OpStats:
            stats = cart.enable_stats()
            handle = self._exchange(cart, states[cart.rank], algorithm)
            try:
                for it in range(self.iterations):
                    handle.execute()
                    self._step(states[cart.rank], it)
            finally:
                handle.free()
            return stats

        return merge_stats(run_cartesian(
            self.dims, self.nbh, rank, periods=self.periods,
            info={"backend": backend}, engine=engine,
        ))

    def _run_rows(self, states, algorithm) -> tuple[Optional[OpStats], str]:
        """The rows driver, or ``None`` and why not.  It books what the
        SPMD ranks book: one lookup each, one execution each per step."""
        p, k = len(states), self.iterations
        cart = CartComm(None, self._record, backend="batched")
        stats = cart.enable_stats()
        handle = self._exchange(cart, states[0], algorithm)
        try:
            plan, hit = plan_mod.get_or_compile(handle.schedule, cart.topo, handle.buffers)
            if plan.matrix_error is not None:
                return None, f"spmd: {plan.matrix_error}"
            form = plan.staging.split(":")[0]
            if form == "walk":
                return None, f"spmd: {plan.staging}"
            staged = [
                (name, [s[name] for s in states], True)
                for name in handle.buffers if name in states[0]
            ]
            with batched.staged_block(plan, staged) as (rows, run):
                kept = {n: np.stack([s[n] for s in states]) for n in states[0] if n not in rows}
                state = {**kept, **rows}
                for it in range(k):
                    run()
                    self._step(state, it)
            for name, stacked in kept.items():
                for s, row in zip(states, stacked):
                    s[name][...] = row
        finally:
            handle.free()
        stats.record_cache(True, backend="batched", n=p - 1)  # the other ranks' level-1 hits
        # the first start looks the plan up for every rank, later ones run it
        for n, plan_hit in ((1, hit), (k - 1, True))[:k]:
            copied = n * p * handle.schedule.local_copy_bytes
            cart._record(handle, "batched", plan_hit, n * plan.wire_bytes, copied, n * p)
        return stats, f"rows: {p} ranks, one plan, {form}"

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
