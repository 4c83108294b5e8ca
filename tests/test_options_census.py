"""The environment switches are a closed set.

Every ``REPRO_*`` name that code under ``src/repro`` spells as a string
constant (docstrings are longer strings and do not count) is one of the
three below, is spelled in exactly one module — the one that reads it —
and is documented in README.md.  A PR that adds a switch fails here
until it says so in all three places.  (There were four until
``REPRO_SHM_MAX_RANKS`` went with the forked shm backend; the test id
is kept.)
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWITCHES = {
    "REPRO_BACKEND",
    "REPRO_BUFFER_POOL_MAX",
    "REPRO_VERIFY_SCHEDULES",
}
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _spelled():
    """``{name: {module, ...}}`` over the string constants of src/repro."""
    found = {}
    pattern = os.path.join(ROOT, "src", "repro", "**", "*.py")
    for path in glob.glob(pattern, recursive=True):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                found.setdefault(node.value, set()).add(os.path.relpath(path, ROOT))
    return found


def test_environment_switches_are_the_documented_four():
    spelled = _spelled()
    assert set(spelled) == SWITCHES
    assert {n: len(m) for n, m in spelled.items()} == dict.fromkeys(SWITCHES, 1)
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = set(NAME.findall(fh.read()))
    assert SWITCHES <= readme
