"""The one schedule interpreter (Listing 5, transport-agnostic).

Every per-rank execution mode in the library — blocking collectives,
the split-phase ``i*`` operations, persistent handles, the all-ranks
lockstep and shared-memory paths, and the certification helpers in
``verify.py`` — drives a :class:`ScheduleInterpreter` over some
:class:`~repro.core.backend.base.Transport`.  It executes the calling
rank's :class:`~repro.core.plan.RankPlan` — its row view of the
schedule's one lowered plan — and the phase/round walk over that view
lives *only* here:

* per round, the receive is posted before the send (so a self-send
  matches immediately);
* source and target are the plan's resolved peers; a missing
  source/target (non-periodic mesh boundary) skips that half of the
  round — the halo semantics of stencil codes;
* one ``waitall`` completes each phase (reductions then fold the
  phase's staging regions with the rank's rows of the combine steps);
* the final non-communication phase performs the rank-local copies.

Blocking execution is :meth:`run`.  Split-phase front-ends call
:meth:`begin` / :meth:`post_next_phase` / :meth:`complete_phase` /
:meth:`finish` themselves; all-ranks drivers interleave those calls
across ranks to preserve the pack-all-then-unpack discipline.  An
interpreter may run again once an execution has ended: it keeps the
plan view its first execution looked up (a persistent handle's bound
execution on the threaded backend is one interpreter, run per start).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core import plan as plan_mod
from repro.core.backend.base import Transport
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.comm import CARTTAG
from repro.mpisim.exceptions import ScheduleError


class ScheduleInterpreter:
    """Drives one execution of ``schedule`` for one rank over
    ``transport``.

    ``observe`` routes trace marks and progress updates through the
    transport (the blocking collectives do; split-phase operations
    historically do not).  ``skip_empty_phases`` advances silently over
    phases with no rounds (split-phase semantics) instead of issuing an
    empty ``waitall`` for them (blocking semantics).
    """

    def __init__(
        self,
        transport: Transport,
        topo: CartTopology,
        schedule: Schedule,
        buffers: Mapping[str, np.ndarray],
        *,
        tag: int = CARTTAG,
        observe: bool = True,
        skip_empty_phases: bool = False,
        plan: "plan_mod.RankPlan | None" = None,
    ) -> None:
        self.transport = transport
        self.topo = topo
        self.schedule = schedule
        self.buffers = dict(buffers)
        #: scratch bytes each execution takes from the pool (only when
        #: the caller did not bind a "temp" buffer themselves)
        self._temp_nbytes = schedule.temp_nbytes if "temp" not in buffers else 0
        #: the pooled scratch to return in :meth:`finish`
        self._pooled_temp: np.ndarray | None = None
        self._take_temp()
        self.tag = tag
        self.observe = observe
        self.skip_empty_phases = skip_empty_phases
        #: this rank's view of the lowered plan (fetched by the first
        #: :meth:`begin` unless injected here)
        self.plan = plan
        #: None until begin() looks the plan up; then True (cache hit) /
        #: False (this call compiled it); True for every later execution
        self.plan_hit: bool | None = None
        #: wire bytes this execution packed / local bytes it copied
        #: (filled during the run; consumed by OpStats wiring)
        self.bytes_packed = 0
        self.bytes_copied = 0
        #: index of the phase currently posted / next to post
        self._phase_index = 0
        self.pending: list[Any] = []
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._finished

    @property
    def phases_remaining(self) -> int:
        return len(self.schedule.phases) - self._phase_index

    @property
    def outcome(self) -> tuple[bool, int, int]:
        """``(plan_hit, bytes_packed, bytes_copied)`` once finished."""
        return bool(self.plan_hit), self.bytes_packed, self.bytes_copied

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start an execution and open the (optional) trace region.

        The first execution binds: it prepares the schedule and looks
        this rank's plan view up.  A later one (the interpreter run
        again after an execution ended) only resets the walk — no
        lookup, a plan hit."""
        if self._finished:
            self._phase_index, self._finished, self.plan_hit = 0, False, True
            self._take_temp()
        if self.plan is None:
            # Idempotent: cached schedules arrive prepared; one-shot
            # schedules get their coalesced-copy plans computed before
            # the timed phases.
            self.schedule.prepare()
            plan, self.plan_hit = plan_mod.get_or_compile(
                self.schedule, self.topo, self.buffers
            )
            self.plan = plan.for_rank(self.transport.rank)
        if self.plan.pre_program is not None:
            # Seed accumulators from the send buffer *before* phase 0
            # posts any send (phase-0 rounds ship accumulator slots).
            self.plan.pre_program.run(self.buffers)
        if self.observe:
            self.transport.mark(f"begin {self.schedule.kind}")
            self.transport.progress(op=self.schedule.kind)

    def _take_temp(self) -> None:
        if self._temp_nbytes:
            self._pooled_temp = plan_mod.GLOBAL_POOL.acquire(self._temp_nbytes)
            self.buffers["temp"] = self._pooled_temp

    def post_next_phase(self) -> bool:
        """Post the receives (first) and sends of the next phase.

        Returns ``False`` when no phase remains to post.  This is the
        single phase/round interpretation loop of the library.
        """
        assert self.plan is not None, "begin() first"
        phases = self.plan.phases
        while self._phase_index < len(phases):
            phase = phases[self._phase_index]
            if self.skip_empty_phases and not phase:
                self._phase_index += 1
                continue
            if self.observe:
                self.transport.progress(phase=self._phase_index)
            t = self.transport
            buffers = self.buffers
            pending: list[Any] = []
            for round_index, pr in enumerate(phase):
                seq = (self._phase_index, round_index)
                if pr.source is not None:
                    pending.append(
                        t.post_recv(
                            pr.recv, buffers, pr.source, self.tag, seq
                        )
                    )
                if pr.target is not None:
                    pending.append(
                        t.post_send(
                            pr.send, buffers, pr.target, self.tag, seq
                        )
                    )
            self.pending = pending
            return True
        return False

    def complete_phase(self) -> None:
        """Complete the posted phase's operations and advance.

        For reduction schedules, the phase's combine steps fold the
        freshly received staging regions into their accumulators after
        the ``waitall`` — sequentially, so every executor (threaded,
        the walk, batched) applies the operator in the identical
        deterministic order."""
        self.transport.waitall(self.pending)
        self.pending = []
        prog = self.plan.combine_programs[self._phase_index]
        if prog is not None:
            prog.run(self.buffers)
        self._phase_index += 1

    def finish(self) -> None:
        """The final non-communication phase: rank-local copies (and,
        for reductions, the check that every required output received at
        least one contribution)."""
        if not self.plan.reduce_outputs_ok:
            raise ScheduleError(
                "reduction received no contributions "
                "(all neighbors off the mesh)"
            )
        moved = self.plan.run_local_copies(self.buffers)
        self.bytes_packed = self.plan.wire_bytes
        self.bytes_copied = moved
        if self.observe:
            if moved:
                self.transport.record_local(moved, note="self-block copies")
            self.transport.mark(f"end {self.schedule.kind}")
            self.transport.progress(op="idle")
        if self._pooled_temp is not None:
            plan_mod.GLOBAL_POOL.release(self._pooled_temp)
            self._pooled_temp = None
        self._finished = True

    def abort(self) -> None:
        """Tear down a failed execution: drop pending tokens and return
        the pooled scratch.

        :meth:`finish` never runs when a phase raises (fault injection,
        :class:`~repro.mpisim.exceptions.ScheduleError`), which used to
        strand ``_pooled_temp`` in the pool's outstanding count for the
        life of the process.  Idempotent, and safe to call alongside
        :meth:`finish` — whichever runs first takes the release.
        """
        self.pending = []
        if self._pooled_temp is not None:
            plan_mod.GLOBAL_POOL.release(self._pooled_temp)
            self._pooled_temp = None
        self._finished = True

    # ------------------------------------------------------------------
    def run(self) -> tuple[bool, int, int]:
        """One full blocking execution; returns its :attr:`outcome`."""
        try:
            self.begin()
            while self.post_next_phase():
                self.complete_phase()
            self.finish()
        except BaseException:
            self.abort()
            raise
        return self.outcome

    def __repr__(self) -> str:
        return (
            f"ScheduleInterpreter({self.schedule.kind}, "
            f"transport={type(self.transport).__name__}, "
            f"phase={self._phase_index}/{len(self.schedule.phases)}, "
            f"done={self._finished})"
        )
