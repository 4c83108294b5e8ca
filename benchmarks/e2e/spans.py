"""In-memory span recording and self-time arithmetic.

Spans are recorded from this package only: around calls the harness
makes itself (:meth:`Tracer.span`) and, for calls nested inside
``app.run`` or the daemon, by wrapping a declared table of public
callables (:meth:`Tracer.install`; the table lives in
:mod:`benchmarks.e2e.layers`).  Each span holds name, start, end, parent
and thread; they stay in per-thread lists until the round ends.

A span's *self time* is its duration minus the part of its interval its
children cover.  A rank thread's root spans are adopted by the
``mpisim.engine`` span that was open on the spawning thread, so the
time the caller waits on rank 0 is attributed to what rank 0 did.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

#: span opened by the wrapped ``Engine.run`` on the spawning thread
ENGINE_SPAN = "mpisim.engine"
#: span opened on every rank thread around the user's rank function
RANK_FN_SPAN = "rank.fn"
#: the rank whose thread is the path the caller waits on
CRITICAL_RANK_THREAD = "mpisim-rank-0"

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One wrap-table entry: ``path`` is ``"module:function"`` or
    ``"module:Class.attribute"``; ``hook`` names a Tracer method that
    sees (and may replace) the call's arguments."""

    span: str
    path: str
    hook: Optional[str] = None


@dataclass
class Capture:
    """The last schedule a backend was asked to execute (for the replay
    probes): enough to call ``execute_all`` again on fresh buffers."""

    topo: Any
    schedule: Any
    sizes: dict[str, int]


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.unresolved: list[str] = []
        #: schedule.kind -> Capture, filled by the execute hooks
        self.captured: dict[str, Capture] = {}
        #: (num_rounds, volume_bytes) of every executed schedule
        self.executed: list[tuple[int, int]] = []
        self._local = threading.local()
        self._threads: list[tuple[str, list]] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _new_state(self) -> tuple[list, list]:
        state = self._local.state = ([], [])
        with self._lock:
            self._threads.append((threading.current_thread().name, state[0]))
        return state

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        try:
            spans, stack = self._local.state
        except AttributeError:
            spans, stack = self._new_state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            stack.pop()
            spans[index] = (name, t0, t1, parent)

    def wrap(
        self, name: str, fn: Callable, hook: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call.  ``hook(args, kwargs)``
        runs first and returns the (possibly replaced) arguments."""
        local, new_state = self._local, self._new_state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent)

        traced.__e2e_wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- argument hooks ------------------------------------------------
    def hook_engine_run(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """``Engine.run(self, fn, ...)``: trace ``fn`` on every rank."""
        if len(args) >= 2:
            args = (args[0], self.wrap(RANK_FN_SPAN, args[1])) + args[2:]
        elif "fn" in kwargs:
            kwargs = dict(kwargs, fn=self.wrap(RANK_FN_SPAN, kwargs["fn"]))
        return args, kwargs

    def _note(self, topo: Any, schedule: Any, buffers: Any) -> None:
        sizes = {name: int(arr.nbytes) for name, arr in buffers.items()}
        self.captured[schedule.kind] = Capture(topo, schedule, sizes)
        self.executed.append((schedule.num_rounds, schedule.volume_bytes))

    def hook_execute_all(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """``Backend.execute_all(self, topo, schedule, rank_buffers)``."""
        if len(args) >= 4:
            self._note(args[1], args[2], args[3][0])
        return args, kwargs

    def hook_interpreter_run(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """``ScheduleInterpreter.run(self)`` on a per-rank backend; the
        executions are SPMD, so rank 0's stands for all."""
        interp = args[0]
        if getattr(interp.transport, "rank", 0) == 0:
            self._note(interp.topo, interp.schedule, interp.buffers)
        return args, kwargs

    # -- the wrap table ------------------------------------------------
    def install(self, table: Sequence[Target]) -> None:
        """Wrap every resolvable entry; an entry that no longer resolves
        is remembered in :attr:`unresolved` and never raises."""
        for target in table:
            try:
                self._install_one(target)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.unresolved.append(target.path)

    def _install_one(self, target: Target) -> None:
        module_name, _, attr_path = target.path.partition(":")
        module = importlib.import_module(module_name)
        hook = getattr(self, target.hook) if target.hook else None
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(target.span, raw.__func__, hook))
            else:
                wrapped = self.wrap(target.span, raw, hook)
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        if not callable(original):
            raise TypeError(f"{target.path} is not callable")
        wrapped = self.wrap(target.span, original, hook)
        # rebind every ``from module import name`` copy, including the
        # module-level registries (dicts) that captured the function
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(("repro", "benchmarks.e2e")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped

    def threads(self) -> list[tuple[str, list]]:
        with self._lock:
            return [(name, list(spans)) for name, spans in self._threads]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@dataclass
class Node:
    name: str
    t0: int
    t1: int
    #: global index of the parent span, or -1
    parent: int
    thread: str
    self_ns: int = 0

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for t0, t1 in sorted(intervals):
        t0 = max(t0, end)
        t1 = min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def build_nodes(threads: Sequence[tuple[str, list]]) -> list[Node]:
    """Flatten per-thread span lists into one node list with global
    parent indices, adopt rank-0 roots under the engine span that
    contains them, and fill every node's self time.

    Parents always precede their children in the returned list (rank
    threads are placed after the threads that spawned them)."""
    ordered = sorted(
        threads, key=lambda item: item[0].startswith("mpisim-rank-")
    )
    nodes: list[Node] = []
    for thread, spans in ordered:
        index_of: dict[int, int] = {}
        for local, span in enumerate(spans):
            if span is None:  # still open when the snapshot was taken
                continue
            name, t0, t1, parent = span
            index_of[local] = len(nodes)
            nodes.append(Node(name, t0, t1, index_of.get(parent, -1), thread))
    engines = [
        (i, n) for i, n in enumerate(nodes)
        if n.name == ENGINE_SPAN and not n.thread.startswith("mpisim-rank-")
    ]
    for node in nodes:
        if node.parent == -1 and node.thread == CRITICAL_RANK_THREAD:
            containing = [
                (e.dur, i) for i, e in engines
                if e.t0 <= node.t0 and node.t1 <= e.t1
            ]
            if containing:
                node.parent = min(containing)[1]
    children: dict[int, list[tuple[int, int]]] = {}
    for node in nodes:
        if node.parent >= 0:
            children.setdefault(node.parent, []).append((node.t0, node.t1))
    for i, node in enumerate(nodes):
        kids = children.get(i)
        node.self_ns = node.dur - (covered(kids, node.t0, node.t1) if kids else 0)
    return nodes


def under(nodes: Sequence[Node], root: str) -> list[bool]:
    """For every node: is it, or one of its ancestors, named ``root``?"""
    flags = [False] * len(nodes)
    for i, node in enumerate(nodes):
        flags[i] = node.name == root or (node.parent >= 0 and flags[node.parent])
    return flags


def export_chrome(
    threads: Sequence[tuple[str, list]], path: str, until_ns: Optional[int] = None
) -> int:
    """Write the spans that started before ``until_ns`` as Chrome-trace
    JSON (open in ``chrome://tracing`` or https://ui.perfetto.dev).
    Returns the number of events written."""
    events: list[dict] = []
    for tid, (thread, spans) in enumerate(threads):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": thread},
        })
        for span in spans:
            if span is None:
                continue
            name, t0, t1, parent = span
            if until_ns is not None and t0 > until_ns:
                continue
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"parent": parent},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
    return len(events)
