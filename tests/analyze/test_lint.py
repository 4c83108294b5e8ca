"""Unit tests for the custom lint (rules L001-L005 and L010), plus the
repo-wide gates: the shipped ``src/`` tree must lint clean, and no
module of ``src/``, ``tests/`` or ``examples/`` imports a name it never
uses.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analyze.lint import iter_python_files, lint_file, lint_paths, unused_imports

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint_source(tmp_path: Path, source: str, relpath: str = "mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path)


def _rules(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# L001: blocking call while holding a lock
# ----------------------------------------------------------------------
class TestL001:
    def test_wait_under_lock_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(self):
                with self._lock:
                    self.request.wait()
            """,
        )
        assert _rules(findings) == ["L001"]

    def test_condition_wait_exempt(self, tmp_path):
        # Condition.wait releases the lock — the whole point of a CV.
        findings = _lint_source(
            tmp_path,
            """
            def f(self):
                with self._cond:
                    self._cond.wait(0.1)
            """,
        )
        assert findings == []

    def test_wait_outside_lock_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(self):
                self.request.wait()
            """,
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(self):
                with self._lock:
                    self.request.wait()  # lint: allow(L001)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# L002: time.sleep busy-wait loops
# ----------------------------------------------------------------------
class TestL002:
    def test_sleep_in_loop_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import time

            def f():
                while True:
                    time.sleep(0.001)
            """,
        )
        assert _rules(findings) == ["L002"]

    def test_sleep_outside_loop_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import time

            def f():
                time.sleep(0.001)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# L003: mutation of frozen/shared schedule data
# ----------------------------------------------------------------------
class TestL003:
    def test_object_setattr_outside_init_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(plan):
                object.__setattr__(plan, "seed", 1)
            """,
        )
        assert _rules(findings) == ["L003"]

    def test_object_setattr_in_post_init_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            class C:
                def __post_init__(self):
                    object.__setattr__(self, "seed", 1)
            """,
        )
        assert findings == []

    def test_assignment_through_protected_param_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(sched: Schedule) -> None:
                sched.kind = "other"
            """,
        )
        assert _rules(findings) == ["L003"]

    def test_assignment_through_plain_param_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f(obj: dict) -> None:
                obj.kind = "other"
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# L004: except discipline (mpisim only)
# ----------------------------------------------------------------------
class TestL004:
    def test_untyped_swallow_in_mpisim_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f() -> None:
                try:
                    g()
                except ValueError:
                    pass
            """,
            relpath="mpisim/mod.py",
        )
        assert _rules(findings) == ["L004"]

    def test_typed_catch_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f() -> None:
                try:
                    g()
                except AbortError:
                    pass
            """,
            relpath="mpisim/mod.py",
        )
        assert findings == []

    def test_reraise_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f() -> None:
                try:
                    g()
                except ValueError as exc:
                    raise RuntimeError("wrapped") from exc
            """,
            relpath="mpisim/mod.py",
        )
        assert findings == []

    def test_outside_mpisim_not_checked(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def f() -> None:
                try:
                    g()
                except ValueError:
                    pass
            """,
            relpath="core/mod.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# L005: public API annotations (core/ and mpisim/ only)
# ----------------------------------------------------------------------
class TestL005:
    def test_unannotated_public_function_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def api(x, y):
                return x + y
            """,
            relpath="core/mod.py",
        )
        assert _rules(findings) == ["L005"]
        assert "x, y, return" in findings[0].message

    def test_fully_annotated_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def api(x: int, y: int) -> int:
                return x + y
            """,
            relpath="core/mod.py",
        )
        assert findings == []

    def test_private_and_nested_exempt(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def _helper(x):
                return x

            def api(x: int) -> int:
                def inner(y):
                    return y
                return inner(x)
            """,
            relpath="core/mod.py",
        )
        assert findings == []

    def test_self_exempt_in_methods(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            class C:
                def api(self, x: int) -> int:
                    return x
            """,
            relpath="mpisim/mod.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# L010: imported but unused
# ----------------------------------------------------------------------
class TestL010:
    def test_unused_names_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os, sys
            from typing import TYPE_CHECKING, Optional
            if TYPE_CHECKING:
                from pathlib import Path
            def f(x: "Optional[Path]") -> None:
                print(sys.argv)
            """,
        )
        assert [(f.rule, f.message) for f in findings] == [
            ("L010", "'os' imported but unused")
        ]

    def test_exports_future_and_allow_comments_are_uses(self, tmp_path):
        source = """
            from __future__ import annotations
            from json import dumps, loads  # lint: allow(L010)
            from math import pi
            __all__ = ["pi"]
            """
        assert _lint_source(tmp_path, source) == []
        assert _lint_source(tmp_path, "import os\n", relpath="pkg/__init__.py") == []


# ----------------------------------------------------------------------
# syntax errors surface as findings, and the shipped tree is clean
# ----------------------------------------------------------------------
def test_syntax_error_reported(tmp_path):
    findings = _lint_source(tmp_path, "def f(:\n")
    assert _rules(findings) == ["L000"]


def test_shipped_src_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.describe() for f in findings)


def test_no_import_goes_unused_in_src_tests_or_examples():
    """L010 over everything CI's static job reads (ruff's F401)."""
    findings = [
        finding
        for path in iter_python_files(str(REPO_ROOT / d) for d in ("src", "tests", "examples"))
        for finding in unused_imports(path, ast.parse(path.read_text()))
    ]
    assert findings == [], "\n".join(f.describe() for f in findings)
