"""CFG-based linearity lint for pool lifetimes, plus lockset passes.

PR 6 certified pool hygiene *dynamically*: a suite-wide sweep asserts
zero outstanding bytes after every test.  This module turns that into a
compile-time guarantee: every ``BufferPool.acquire`` must reach exactly
one ``release`` on **all** control-flow paths, including the exception
edges the dynamic sweep only sees when a fault actually fires.

========  =============================================================
L006      a pooled buffer acquired here may leak: some path to the
          function's normal or exceptional exit neither releases it nor
          transfers ownership
L007      a pooled buffer may be released twice on one path
L008      a condition-variable ``wait``/``notify`` outside ``with`` on
          that condition (or its paired lock); methods named
          ``*_locked`` are the documented caller-holds-the-lock
          convention and count as held context
L009      lock-order inversion: two ``with``-lock nestings acquire the
          same pair of locks in opposite orders (or one lock nests
          inside itself)
========  =============================================================

The L006/L007 analysis is a may-analysis over a per-function control
flow graph with explicit exception edges: every statement containing a
non-whitelisted call may raise, and the exception edge carries the
*pre*-statement state (the effect did not happen).  Ownership follows
the repo's conventions:

* callees **borrow** arguments — passing an acquired array to a call is
  not a transfer (the callee that stores it is analyzed on its own);
* storing into a subscript/attribute, or returning, **is** a transfer;
* appending to a local list that a ``for``-loop release sweep drains
  (the ``wires``/``flats`` pattern) is a transfer to that list.

Acquire sites are identified by receiver name: a ``.acquire(...)`` call
on anything whose terminal name contains ``pool`` (``GLOBAL_POOL``,
``plan_mod.GLOBAL_POOL``, a ``pool`` parameter).  Lock ``acquire`` is
never matched.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.analyze.lint import Finding, _receiver_name, _terminal_name

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: method-call attrs the model treats as never raising (so that e.g.
#: ``wires.append(flat)`` does not create a phantom leak-on-exception
#: path between an acquire and its ownership transfer)
_NON_RAISING_ATTRS = frozenset({"append", "release"})

_HELD = "H"
_RELEASED = "R"
_ESCAPED = "E"

#: fact items: ("bind", var, token) | ("st", token, status)
_Item = tuple[str, str, str]


def _is_pool_call(call: ast.Call, attr: str) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == attr
        and "pool" in _receiver_name(call).lower()
    )


def _contains_raising_call(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _NON_RAISING_ATTRS
            ):
                continue
            return True
    return False


def _catches_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    return _terminal_name(handler.type) in {"BaseException", "Exception"}


def _may_raise(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    return _contains_raising_call(stmt)


# ---------------------------------------------------------------------------
# control flow graph
# ---------------------------------------------------------------------------


class _CFG:
    """Statement-level CFG with typed edges.

    Edge kind ``"n"`` carries the post-statement state; kind ``"e"``
    (exception) carries the pre-statement state — the raising statement's
    effect never happened."""

    def __init__(self) -> None:
        self.stmts: list[Optional[ast.stmt]] = []
        self.succs: list[list[tuple[int, str]]] = []

    def node(self, stmt: Optional[ast.stmt] = None) -> int:
        self.stmts.append(stmt)
        self.succs.append([])
        return len(self.stmts) - 1

    def edge(self, a: int, b: int, kind: str = "n") -> None:
        if (b, kind) not in self.succs[a]:
            self.succs[a].append((b, kind))


class _Builder:
    def __init__(self, cfg: _CFG, normal_exit: int, exc_exit: int) -> None:
        self.cfg = cfg
        self.normal_exit = normal_exit
        self.exc_exit = exc_exit
        #: finalbodies of enclosing try statements, innermost last
        self.finally_stack: list[list[ast.stmt]] = []
        #: (header node, after node, finally depth at loop entry)
        self.loop_stack: list[tuple[int, int, int]] = []
        #: where an exception raised at the current point lands
        self._exc_targets: list[int] = []

    # -- helpers -------------------------------------------------------
    def _inline_finallys(self, cur: int, down_to: int) -> int:
        """Inline copies of the pending finalbodies (innermost first)
        for an early exit (return/break/continue) crossing them."""
        for fb in reversed(self.finally_stack[down_to:]):
            if cur < 0:
                break
            entry = self.cfg.node(None)
            self.cfg.edge(cur, entry)
            cur = self.block(fb, entry)
        return cur

    # -- construction --------------------------------------------------
    def block(self, stmts: Iterable[ast.stmt], entry: int) -> int:
        cur = entry
        for s in stmts:
            if cur < 0:
                break
            cur = self.stmt(s, cur)
        return cur

    def stmt(self, s: ast.stmt, cur: int) -> int:
        """Wire statement ``s`` after node ``cur``; returns the new
        cursor, or -1 when there is no normal fallthrough."""
        cfg = self.cfg
        if isinstance(s, ast.If):
            test = cfg.node(None)
            cfg.edge(cur, test)
            if _contains_raising_call(s.test):
                cfg.edge(test, self.exc_target(), "e")
            after = cfg.node(None)
            bexit = self.block(s.body, test)
            if bexit >= 0:
                cfg.edge(bexit, after)
            oexit = self.block(s.orelse, test)
            if oexit >= 0:
                cfg.edge(oexit, after)
            return after
        if isinstance(s, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.node(s if isinstance(s, (ast.For, ast.AsyncFor)) else None)
            cfg.edge(cur, header)
            guard = s.test if isinstance(s, ast.While) else s.iter
            if _contains_raising_call(guard):
                cfg.edge(header, self.exc_target(), "e")
            after = cfg.node(None)
            cfg.edge(header, after)
            self.loop_stack.append((header, after, len(self.finally_stack)))
            bexit = self.block(s.body, header)
            if bexit >= 0:
                cfg.edge(bexit, header)
            self.loop_stack.pop()
            oexit = self.block(s.orelse, after) if s.orelse else after
            return oexit if oexit >= 0 else after
        if isinstance(s, (ast.With, ast.AsyncWith)):
            for item in s.items:
                enter = cfg.node(None)
                cfg.edge(cur, enter)
                if _contains_raising_call(item.context_expr):
                    cfg.edge(enter, self.exc_target(), "e")
                cur = enter
            return self.block(s.body, cur)
        if isinstance(s, ast.Try):
            return self._try(s, cur)
        if isinstance(s, ast.Return):
            node = cfg.node(s)
            cfg.edge(cur, node)
            if s.value is not None and _contains_raising_call(s.value):
                cfg.edge(node, self.exc_target(), "e")
            tail = self._inline_finallys(node, 0)
            if tail >= 0:
                cfg.edge(tail, self.normal_exit)
            return -1
        if isinstance(s, (ast.Break, ast.Continue)):
            if not self.loop_stack:
                return -1
            header, after, depth = self.loop_stack[-1]
            tail = self._inline_finallys(cur, depth)
            if tail >= 0:
                cfg.edge(tail, after if isinstance(s, ast.Break) else header)
            return -1
        if isinstance(s, ast.Raise):
            node = cfg.node(s)
            cfg.edge(cur, node)
            cfg.edge(node, self.exc_target(), "e")
            return -1
        # atomic statement
        node = cfg.node(s)
        cfg.edge(cur, node)
        if _may_raise(s):
            cfg.edge(node, self.exc_target(), "e")
        return node

    def exc_target(self) -> int:
        return self._exc_targets[-1] if self._exc_targets else self.exc_exit

    def _try(self, s: ast.Try, cur: int) -> int:
        cfg = self.cfg
        after = cfg.node(None)
        outer_exc = self.exc_target()
        if s.finalbody:
            fin_norm = cfg.node(None)
            fexit = self.block(s.finalbody, fin_norm)
            if fexit >= 0:
                cfg.edge(fexit, after)
            fin_exc = cfg.node(None)
            fexit = self.block(s.finalbody, fin_exc)
            if fexit >= 0:
                # the finally ran: carry its post-state to the outer
                # exception target (a releasing finally clears HELD)
                cfg.edge(fexit, outer_exc)
            exc_past_handlers = fin_exc
            normal_target = fin_norm
        else:
            exc_past_handlers = outer_exc
            normal_target = after
        if s.finalbody:
            self.finally_stack.append(s.finalbody)
        if s.handlers:
            dispatch = cfg.node(None)
            if not any(_catches_all(h) for h in s.handlers):
                cfg.edge(dispatch, exc_past_handlers)
            for handler in s.handlers:
                hentry = cfg.node(None)
                cfg.edge(dispatch, hentry)
                self._exc_targets.append(exc_past_handlers)
                hexit = self.block(handler.body, hentry)
                self._exc_targets.pop()
                if hexit >= 0:
                    cfg.edge(hexit, normal_target)
            body_exc = dispatch
        else:
            body_exc = exc_past_handlers
        self._exc_targets.append(body_exc)
        bexit = self.block(s.body, cur)
        self._exc_targets.pop()
        if bexit >= 0 and s.orelse:
            self._exc_targets.append(exc_past_handlers)
            bexit = self.block(s.orelse, bexit)
            self._exc_targets.pop()
        if bexit >= 0:
            cfg.edge(bexit, normal_target)
        if s.finalbody:
            self.finally_stack.pop()
        return after


def build_cfg(fn: FunctionNode) -> tuple[_CFG, int, int, int]:
    """(cfg, entry, normal_exit, exc_exit) for one function body."""
    cfg = _CFG()
    entry = cfg.node(None)
    normal_exit = cfg.node(None)
    exc_exit = cfg.node(None)
    builder = _Builder(cfg, normal_exit, exc_exit)
    tail = builder.block(fn.body, entry)
    if tail >= 0:
        cfg.edge(tail, normal_exit)
    return cfg, entry, normal_exit, exc_exit


# ---------------------------------------------------------------------------
# ownership roles of local lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ListRoles:
    #: local ``L = []`` lists drained by a ``for x in L: …release(x)``
    #: sweep somewhere in the function — appending transfers ownership
    owned: frozenset[str]
    #: lists that are returned or stored — appending escapes the token
    escaping: frozenset[str]


def _list_roles(fn: FunctionNode) -> _ListRoles:
    local_lists: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    local_lists.add(t.id)
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.value, ast.List)
            and isinstance(node.target, ast.Name)
        ):
            local_lists.add(node.target.id)
    owned: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.For):
            continue
        if not (
            isinstance(node.iter, ast.Name) and node.iter.id in local_lists
        ):
            continue
        loop_var = (
            node.target.id if isinstance(node.target, ast.Name) else None
        )
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and _is_pool_call(inner, "release")
                and inner.args
                and isinstance(inner.args[0], ast.Name)
                and (loop_var is None or inner.args[0].id == loop_var)
            ):
                owned.add(node.iter.id)
                break
    escaping: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            if node.value.id in local_lists:
                escaping.add(node.value.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            if node.value.id in local_lists and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                escaping.add(node.value.id)
    return _ListRoles(frozenset(owned), frozenset(escaping))


# ---------------------------------------------------------------------------
# the dataflow
# ---------------------------------------------------------------------------


def _acquire_target(stmt: ast.stmt) -> Optional[tuple[str, ast.Call]]:
    """``v = <pool>.acquire(...)`` → (v, the call)."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    if isinstance(stmt.value, ast.Call) and _is_pool_call(
        stmt.value, "acquire"
    ):
        return target.id, stmt.value
    return None


def _bound_tokens(fact: frozenset[_Item], var: str) -> list[str]:
    return [item[2] for item in fact if item[0] == "bind" and item[1] == var]


def _statuses(fact: frozenset[_Item], token: str) -> set[str]:
    return {item[2] for item in fact if item[0] == "st" and item[1] == token}


def _set_status(fact: set[_Item], token: str, status: str) -> None:
    for item in list(fact):
        if item[0] == "st" and item[1] == token:
            fact.discard(item)
    fact.add(("st", token, status))


class _LinearityChecker:
    """L006/L007 over one function."""

    def __init__(self, path: str, fn: FunctionNode) -> None:
        self.path = path
        self.fn = fn
        self.roles = _list_roles(fn)
        self.findings: set[Finding] = set()

    def run(self) -> set[Finding]:
        has_acquire = any(
            isinstance(n, ast.Call) and _is_pool_call(n, "acquire")
            for n in ast.walk(self.fn)
        )
        if not has_acquire:
            return set()
        cfg, entry, normal_exit, exc_exit = build_cfg(self.fn)
        nnodes = len(cfg.stmts)
        in_facts: list[frozenset[_Item]] = [frozenset() for _ in range(nnodes)]
        # token → acquire line, for messages
        self.token_lines: dict[str, int] = {}
        worklist = [entry]
        visited = {entry}
        while worklist:
            n = worklist.pop()
            visited.add(n)
            fact_in = in_facts[n]
            out = self._transfer(cfg.stmts[n], fact_in)
            for succ, kind in cfg.succs[n]:
                carried = fact_in if kind == "e" else out
                merged = in_facts[succ] | carried
                if merged != in_facts[succ] or succ not in visited:
                    in_facts[succ] = merged
                    if succ not in worklist:
                        worklist.append(succ)
        leaked_via: dict[str, list[str]] = {}
        for exit_node, how in (
            (normal_exit, "return"),
            (exc_exit, "exception"),
        ):
            fact = in_facts[exit_node]
            for item in fact:
                if item[0] == "st" and item[2] == _HELD:
                    leaked_via.setdefault(item[1], []).append(how)
        for token in sorted(leaked_via):
            line = self.token_lines.get(token, self.fn.lineno)
            exits = " and ".join(leaked_via[token])
            self.findings.add(
                Finding(
                    self.path,
                    line,
                    "L006",
                    f"pooled buffer acquired here may leak: a path to "
                    f"the {exits} exit of '{self.fn.name}' neither "
                    f"releases it nor transfers ownership",
                )
            )
        return self.findings

    # -- transfer ------------------------------------------------------
    def _transfer(self, stmt: Optional[ast.stmt], fact_in: frozenset[_Item]) -> frozenset[_Item]:
        if stmt is None:
            return fact_in
        fact = set(fact_in)
        # loop headers rebind their targets (never to tracked tokens)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in self._target_names(stmt.target):
                self._unbind(fact, name)
            return frozenset(fact)
        acq = _acquire_target(stmt)
        if acq is not None:
            var, call = acq
            token = f"{call.lineno}:{call.col_offset}"
            self.token_lines[token] = call.lineno
            for old in _bound_tokens(fact_in, var):
                if _HELD in _statuses(fact_in, old) and not self._aliased(
                    fact_in, old, var
                ):
                    self.findings.add(
                        Finding(
                            self.path,
                            stmt.lineno,
                            "L006",
                            f"pooled buffer acquired at line "
                            f"{self.token_lines.get(old, '?')} is "
                            f"overwritten while still held",
                        )
                    )
            self._unbind(fact, var)
            _set_status(fact, token, _HELD)
            fact.add(("bind", var, token))
            return frozenset(fact)
        released = self._release_arg(stmt)
        if released is not None:
            for token in _bound_tokens(fact_in, released):
                statuses = _statuses(fact_in, token)
                if _RELEASED in statuses:
                    self.findings.add(
                        Finding(
                            self.path,
                            stmt.lineno,
                            "L007",
                            f"pooled buffer acquired at line "
                            f"{self.token_lines.get(token, '?')} may be "
                            f"released twice on this path",
                        )
                    )
                if statuses:
                    _set_status(fact, token, _RELEASED)
            return frozenset(fact)
        appended = self._append_arg(stmt)
        if appended is not None:
            lst, var = appended
            transfers = lst in self.roles.owned or lst in self.roles.escaping
            if transfers:
                for token in _bound_tokens(fact_in, var):
                    if _statuses(fact_in, token):
                        _set_status(fact, token, _ESCAPED)
            return frozenset(fact)
        # stores into attributes/subscripts and returns transfer
        escaped_vars = self._escaping_vars(stmt)
        for var in escaped_vars:
            for token in _bound_tokens(fact_in, var):
                if _statuses(fact_in, token):
                    _set_status(fact, token, _ESCAPED)
        # plain rebinding of a tracked name (aliasing or clobbering)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                var = target.id
                if isinstance(stmt.value, ast.Name):
                    src_tokens = _bound_tokens(fact_in, stmt.value.id)
                    if src_tokens:
                        self._unbind(fact, var)
                        for token in src_tokens:
                            fact.add(("bind", var, token))
                        return frozenset(fact)
                if _bound_tokens(fact_in, var):
                    self._unbind(fact, var)
        return frozenset(fact)

    # -- shape helpers -------------------------------------------------
    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[str] = []
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    out.append(elt.id)
            return out
        return []

    @staticmethod
    def _unbind(fact: set, var: str) -> None:
        for item in list(fact):
            if item[0] == "bind" and item[1] == var:
                fact.discard(item)

    @staticmethod
    def _aliased(fact: frozenset[_Item], token: str, var: str) -> bool:
        return any(
            item[0] == "bind" and item[2] == token and item[1] != var
            for item in fact
        )

    @staticmethod
    def _release_arg(stmt: ast.stmt) -> Optional[str]:
        if not isinstance(stmt, ast.Expr):
            return None
        call = stmt.value
        if (
            isinstance(call, ast.Call)
            and _is_pool_call(call, "release")
            and call.args
            and isinstance(call.args[0], ast.Name)
        ):
            return call.args[0].id
        return None

    @staticmethod
    def _append_arg(stmt: ast.stmt) -> Optional[tuple[str, str]]:
        if not isinstance(stmt, ast.Expr):
            return None
        call = stmt.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "append"
            and isinstance(call.func.value, ast.Name)
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
        ):
            return call.func.value.id, call.args[0].id
        return None

    @staticmethod
    def _escaping_vars(stmt: ast.stmt) -> set[str]:
        out: set[str] = set()
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.value, ast.Name) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in stmt.targets
            ):
                out.add(stmt.value.id)
        if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
            out.add(stmt.value.id)
        return out


# ---------------------------------------------------------------------------
# L008: condition-variable lockset pass
# ---------------------------------------------------------------------------

_COND_CALLS = frozenset({"wait", "wait_for", "notify", "notify_all"})


class _LocksetVisitor(ast.NodeVisitor):
    """Flags ``cond.wait()``/``cond.notify*()`` outside ``with cond``
    (or its paired lock), honouring the ``*_locked`` caller-holds-lock
    naming convention."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: list[Finding] = []
        #: condition attr name → paired lock attr name ('' if inline)
        self.conds: dict[str, str] = {}
        self._with_stack: list[str] = []
        self._func_stack: list[str] = []
        self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and _terminal_name(node.value.func) == "Condition"
            ):
                continue
            lock = ""
            if node.value.args:
                lock = _terminal_name(node.value.args[0])
            for t in node.targets:
                name = _terminal_name(t)
                if name:
                    self.conds[name] = lock

    def _in_held_context(self, cond: str) -> bool:
        lock = self.conds.get(cond, "")
        held = set(self._with_stack)
        if cond in held or (lock and lock in held):
            return True
        return any(name.endswith("_locked") for name in self._func_stack)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        names = [_terminal_name(i.context_expr) for i in node.items]
        self._with_stack.extend(names)
        self.generic_visit(node)
        del self._with_stack[len(self._with_stack) - len(names):]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _COND_CALLS:
            recv = _receiver_name(node)
            if recv in self.conds and not self._in_held_context(recv):
                self.findings.append(
                    Finding(
                        self.path,
                        node.lineno,
                        "L008",
                        f"'.{func.attr}()' on condition {recv!r} outside "
                        f"'with {recv}:' (and not in a '*_locked' "
                        f"method): waiting or notifying without the lock "
                        f"races the predicate",
                    )
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# L009: lock-order inversion pass
# ---------------------------------------------------------------------------


def _lock_order_findings(path: str, tree: ast.Module) -> list[Finding]:
    """Collect ``with``-lock nesting edges per class and flag cycles.

    Lock identity is (enclosing class, terminal name): two classes'
    ``_lock`` attributes are different locks.  An edge A→B means "B was
    acquired while A was held"; any cycle in that graph (including a
    self-loop) is an inversion some interleaving can deadlock on."""
    edges: dict[tuple[str, str], list[tuple[tuple[str, str], int]]] = {}

    def walk(
        node: ast.AST, cls: str, held: tuple[tuple[str, str], ...]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_cls = cls
            child_held = held
            if isinstance(child, ast.ClassDef):
                child_cls = child.name
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    name = _terminal_name(item.context_expr)
                    if "lock" in name.lower() and "unlock" not in name.lower():
                        lock = (cls, name)
                        for h in child_held:
                            edges.setdefault(h, []).append(
                                (lock, child.lineno)
                            )
                        child_held = child_held + (lock,)
            walk(child, child_cls, child_held)

    walk(tree, "", ())
    findings: list[Finding] = []
    # self-loops
    for src, dsts in edges.items():
        for dst, line in dsts:
            if dst == src:
                findings.append(
                    Finding(
                        path,
                        line,
                        "L009",
                        f"lock {src[1]!r} acquired while already held "
                        f"(self-deadlock on a non-reentrant lock)",
                    )
                )
    # cycles between distinct locks
    graph: dict[tuple[str, str], set[tuple[str, str]]] = {}
    lines: dict[tuple[tuple[str, str], tuple[str, str]], int] = {}
    for src, dsts in edges.items():
        for dst, line in dsts:
            if dst != src:
                graph.setdefault(src, set()).add(dst)
                lines.setdefault((src, dst), line)

    def reachable(start: tuple[str, str], goal: tuple[str, str]) -> bool:
        seen = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur == goal:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(graph.get(cur, ()))
        return False

    reported: set[frozenset[tuple[str, str]]] = set()
    for src, dsts in graph.items():
        for dst in dsts:
            pair = frozenset((src, dst))
            if pair in reported:
                continue
            if reachable(dst, src):
                reported.add(pair)
                findings.append(
                    Finding(
                        path,
                        lines[(src, dst)],
                        "L009",
                        f"lock-order inversion: {src[1]!r} is held while "
                        f"acquiring {dst[1]!r}, and elsewhere the "
                        f"opposite order is used",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_tree(path: Union[str, Path], tree: ast.Module) -> list[Finding]:
    """All linearity/lockset findings (L006-L009) for one parsed file."""
    path_str = Path(path).as_posix()
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_LinearityChecker(path_str, node).run())
    lockset = _LocksetVisitor(path_str, tree)
    lockset.visit(tree)
    findings.extend(lockset.findings)
    findings.extend(_lock_order_findings(path_str, tree))
    return sorted(findings, key=lambda f: (f.line, f.rule, f.message))


def analyze_source(source: str, path: str = "<string>") -> list[Finding]:
    """Parse and analyze one source string (the mutant registry's
    source rows lint corrupted copies of real modules through it)."""
    tree = ast.parse(source, filename=path)
    return analyze_tree(path, tree)
