"""Repo-specific concurrency/robustness lint (pure stdlib, AST-based).

The threaded engine makes whole classes of bugs easy to write and hard
to reproduce: a blocking call under a mailbox lock deadlocks only under
contention, a busy-wait loop only burns CPU at scale, a swallowed
exception only matters when a rank dies.  These rules encode the repo's
concurrency discipline so CI catches them on every push:

========  =============================================================
L001      no blocking call (``wait``/``waitall``/``join``/``recv``/…)
          while holding a ``threading.Lock`` (``with self._lock:``);
          condition variables (receivers named ``*cond*``) are exempt —
          ``Condition.wait`` releases the lock.
L002      no ``time.sleep`` busy-wait loops: sleeping inside a
          ``while``/``for`` body is polling, which the event-driven
          ``WaitPolicy`` machinery exists to replace.
L003      no mutation of frozen/shared schedule data: no
          ``object.__setattr__`` outside ``__init__``/``__post_init__``/
          ``__setattr__``, and no attribute assignment to parameters
          annotated with shared schedule/plan types (``Schedule``,
          ``Round``, ``BlockSet``, ``CommRecord``, ``FaultPlan``, …) —
          cached schedules and a communicator's record are shared
          across rank threads and must never be mutated.
L004      every ``except`` in ``mpisim/`` either catches a typed
          ``repro.mpisim.exceptions`` error or re-raises/wraps —
          silently swallowing a generic exception hides rank failures.
L005      public functions/methods in ``core``/``mpisim`` carry complete
          type annotations (every parameter and the return type).
L010      every name an import binds is read (as a name, in a quoted
          annotation or ``__all__``); ``__init__`` modules re-export.
========  =============================================================

Suppression: a trailing comment ``# lint: allow(LXXX)`` on the flagged
line or the line directly above it silences that rule there.  The CLI
(``python -m repro.analyze.lint PATH…``) exits non-zero on any finding.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

RULES: dict[str, str] = {
    "L001": "blocking call while holding a lock",
    "L002": "time.sleep busy-wait loop outside WaitPolicy",
    "L003": "mutation of frozen/shared schedule data",
    "L004": "except neither typed nor re-raising (mpisim)",
    "L005": "public function missing complete type annotations",
    "L006": "pooled buffer may leak on some control-flow path",
    "L007": "pooled buffer may be released twice on one path",
    "L008": "condition wait/notify outside the condition's lock",
    "L009": "lock-order inversion between with-lock nestings",
    "L010": "imported but unused",
}

#: attribute names whose call blocks the calling thread
BLOCKING_CALLS = frozenset(
    {
        "wait",
        "waitall",
        "waitany",
        "join",
        "barrier",
        "bcast",
        "recv",
        "sendrecv",
        "probe",
        "run",
        "gather",
        "allgather",
        "alltoall",
        "allreduce",
        "acquire",
    }
)

#: shared schedule/plan types that must not be mutated through a
#: parameter (cached instances are shared across rank threads)
PROTECTED_TYPES = frozenset(
    {
        "FaultPlan",
        "Round",
        "Phase",
        "Schedule",
        "BlockSet",
        "BlockRef",
        "CommRecord",
        "WaitPolicy",
        "Neighborhood",
        "Datatype",
    }
)

#: typed exception names an mpisim `except` may catch without re-raising
TYPED_EXCEPTIONS = frozenset(
    {
        "MpiSimError",
        "DeadlockError",
        "TruncationError",
        "AbortError",
        "RankFailedError",
        "RecvTimeoutError",
        "FaultError",
        "RankKilledError",
        "DuplicateMessageError",
        "TopologyError",
        "NeighborhoodError",
        "ScheduleError",
        "ScheduleValidationError",
    }
)

#: packages whose public functions must be fully annotated (L005)
ANNOTATED_PACKAGES = ("core", "mpisim")

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([A-Z0-9,\s]+)\)")


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _allowed_rules(source_lines: Sequence[str]) -> dict[int, set[str]]:
    """Line number (1-based) → rules suppressed there, from
    ``# lint: allow(LXXX)`` comments on the line or the line above."""
    allowed: dict[int, set[str]] = {}
    for ln, text in enumerate(source_lines, start=1):
        m = _ALLOW_RE.search(text)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed.setdefault(ln, set()).update(rules)
        allowed.setdefault(ln + 1, set()).update(rules)
    return allowed


def _terminal_name(node: ast.expr) -> str:
    """The final identifier of a dotted expression (``self._lock`` →
    ``_lock``), or '' when there is none."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return ""


def _receiver_name(call: ast.Call) -> str:
    """Terminal name of the object a method is called on
    (``self._cond.wait()`` → ``_cond``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return _terminal_name(func.value)
    return ""


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self.allowed = _allowed_rules(self.lines)
        self.findings: list[Finding] = []
        posix = path.as_posix()
        self.in_mpisim = "/mpisim/" in posix or posix.startswith("mpisim/")
        self.needs_annotations = any(
            f"/{pkg}/" in posix or posix.startswith(f"{pkg}/")
            for pkg in ANNOTATED_PACKAGES
        )
        #: stack of enclosing function names (for L003/L005 scoping)
        self._func_stack: list[str] = []
        #: stack of {param name: annotation terminal name}
        self._param_types: list[dict[str, str]] = []
        #: nesting depth of with-lock bodies (for L001)
        self._lock_depth = 0
        #: nesting depth of loop bodies (for L002)
        self._loop_depth = 0
        #: stack of class names ('' at module level)
        self._class_stack: list[str] = []

    # ------------------------------------------------------------------
    def add(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if rule in self.allowed.get(line, ()):
            return
        self.findings.append(
            Finding(self.path.as_posix(), line, rule, message)
        )

    # ------------------------------------------------------------------
    # scoping
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        self._check_annotations(node)
        params: dict[str, str] = {}
        args = node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if a.annotation is not None:
                params[a.arg] = _terminal_name(a.annotation) or ast.dump(
                    a.annotation
                )
        self._func_stack.append(node.name)
        self._param_types.append(params)
        self.generic_visit(node)
        self._param_types.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------
    # L001: blocking call while holding a lock
    # ------------------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(
            "lock" in _terminal_name(item.context_expr).lower()
            and "cond" not in _terminal_name(item.context_expr).lower()
            for item in node.items
        )
        if holds_lock:
            self._lock_depth += 1
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        if holds_lock:
            self._lock_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else ""
        if (
            self._lock_depth > 0
            and attr in BLOCKING_CALLS
            and "cond" not in _receiver_name(node).lower()
        ):
            self.add(
                "L001",
                node,
                f"'.{attr}()' may block while a lock is held "
                f"(hold-and-wait)",
            )
        if self._loop_depth > 0 and attr == "sleep":
            recv = _receiver_name(node).lower()
            if recv in ("time", "_time"):
                self.add(
                    "L002",
                    node,
                    "time.sleep inside a loop is a busy-wait poll; use "
                    "the event-driven WaitPolicy machinery",
                )
        if (
            isinstance(func, ast.Attribute)
            and attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and self._func_stack
            and self._func_stack[-1]
            not in ("__init__", "__post_init__", "__setattr__", "__new__")
        ):
            self.add(
                "L003",
                node,
                "object.__setattr__ outside __init__/__post_init__ "
                "defeats dataclass immutability",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # L002: sleep loops
    # ------------------------------------------------------------------
    def _visit_loop(self, node: "ast.While | ast.For") -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_While = _visit_loop
    visit_For = _visit_loop

    # ------------------------------------------------------------------
    # L003: attribute assignment through a protected-type parameter
    # ------------------------------------------------------------------
    def _protected_target(self, target: ast.expr) -> Optional[str]:
        if not isinstance(target, ast.Attribute):
            return None
        base = target.value
        if not isinstance(base, ast.Name):
            return None
        for frame in reversed(self._param_types):
            if base.id in frame:
                tname = frame[base.id]
                if tname in PROTECTED_TYPES:
                    return f"{base.id}: {tname}"
                return None
        return None

    def _check_mutation(self, node: ast.stmt, targets: list[ast.expr]) -> None:
        for target in targets:
            hit = self._protected_target(target)
            if hit is not None:
                self.add(
                    "L003",
                    node,
                    f"mutates shared schedule data through parameter "
                    f"{hit} (cached instances are shared across rank "
                    f"threads)",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_mutation(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_mutation(node, [node.target])
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # L004: except discipline in mpisim/
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.in_mpisim and not self._handler_ok(node):
            caught = (
                ast.unparse(node.type) if node.type is not None else "<bare>"
            )
            self.add(
                "L004",
                node,
                f"except {caught} neither catches a typed "
                f"repro.mpisim.exceptions error nor re-raises/wraps",
            )
        self.generic_visit(node)

    def _handler_ok(self, node: ast.ExceptHandler) -> bool:
        def typed(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Tuple):
                return all(typed(e) for e in expr.elts)
            return _terminal_name(expr) in TYPED_EXCEPTIONS

        if node.type is not None and typed(node.type):
            return True
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return True
        return False

    # ------------------------------------------------------------------
    # L005: public API annotations in core/ and mpisim/
    # ------------------------------------------------------------------
    def _check_annotations(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        if not self.needs_annotations:
            return
        if node.name.startswith("_"):
            return
        if self._func_stack:  # nested function: not public API
            return
        if any(cls.startswith("_") for cls in self._class_stack):
            return
        missing: list[str] = []
        args = node.args
        named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for index, a in enumerate(named):
            if index == 0 and a.arg in ("self", "cls") and self._class_stack:
                continue
            if a.annotation is None:
                missing.append(a.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            self.add(
                "L005",
                node,
                f"public function '{node.name}' missing annotations for: "
                f"{', '.join(missing)}",
            )


def unused_imports(path: Path, tree: ast.Module) -> list[Finding]:
    """L010 over one module's ``tree``."""
    bound: dict[str, ast.stmt] = {}
    used: set[str] = set()
    notes: list[Optional[ast.expr]] = []  # annotations and ``__all__``: strings name names
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", "") != "__future__":
                bound.update((a.asname or a.name.split(".")[0], node) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(getattr(node, "annotation", getattr(node, "returns", None)))
        elif isinstance(node, ast.Assign):
            notes += [node.value] * ("__all__" in [getattr(t, "id", 0) for t in node.targets])
    for c in (c for note in filter(None, notes) for c in ast.walk(note)):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", c.value))
    return [
        Finding(path.as_posix(), node.lineno, "L010", f"'{name}' imported but unused")
        for name, node in bound.items()
        if name not in used and name != "*" and path.name != "__init__.py"
    ]


def lint_file(path: Path) -> list[Finding]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path.as_posix(),
                exc.lineno or 0,
                "L000",
                f"syntax error: {exc.msg}",
            )
        ]
    linter = _FileLinter(path, tree, source)
    linter.visit(tree)
    findings = list(linter.findings)
    allowed = linter.allowed
    findings += [f for f in unused_imports(path, tree) if "L010" not in allowed.get(f.line, ())]
    # the CFG linearity/lockset passes (L006-L009) live in their own
    # module, which imports Finding from here — import lazily to keep
    # the dependency one-directional at load time
    from repro.analyze.linearity import analyze_tree

    for finding in analyze_tree(path, tree):
        if finding.rule not in linter.allowed.get(finding.line, ()):
            findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def iter_python_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every ``.py`` file under the given paths; returns all
    findings (empty list == clean)."""
    findings: list[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(lint_file(f))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or any(a in ("-h", "--help") for a in args):
        print(__doc__)
        print("usage: python -m repro.analyze.lint PATH [PATH ...]")
        return 0 if args else 2
    findings = lint_paths(args)
    for f in findings:
        print(f.describe())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
