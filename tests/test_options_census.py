"""The environment switches and the ``info`` keys are closed sets.

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
#: The keys ``CartComm`` reads from a communicator's ``info`` dict.
INFO_KEYS = {"backend", "collect_stats"}


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


def _info_keys():
    """``{key: {module, ...}}``: every string constant read off an
    ``info`` mapping (``info.get("k")``, ``self.info.get("k")``,
    ``info["k"]``) under src/repro."""

    def is_info(node):
        return (isinstance(node, ast.Name) and node.id == "info") or (
            isinstance(node, ast.Attribute) and node.attr == "info"
        )

    found = {}
    pattern = os.path.join(ROOT, "src", "repro", "**", "*.py")
    for path in glob.glob(pattern, recursive=True):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            key = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and is_info(node.func.value)
                and node.args
            ):
                key = node.args[0]
            elif isinstance(node, ast.Subscript) and is_info(node.value):
                key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                found.setdefault(key.value, set()).add(os.path.relpath(path, ROOT))
    return found


def test_info_keys_are_the_documented_two():
    """A new ``info`` knob fails here until it is pinned above and
    documented in README.md (spelled ``info["key"]`` or in an
    ``info={...}`` example)."""
    read = _info_keys()
    assert set(read) == INFO_KEYS
    assert {k: m for k, m in read.items()} == dict.fromkeys(
        INFO_KEYS, {os.path.join("src", "repro", "core", "cartcomm.py")}
    )
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    for key in INFO_KEYS:
        assert f'info["{key}"]' in readme or f'info={{"{key}"' in readme, key


def _import_with(name, value):
    """``import repro`` in a fresh interpreter with ``name=value``."""
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env[name] = value
    return subprocess.run(
        [sys.executable, "-c", "import repro"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_malformed_pool_bound_names_the_variable():
    proc = _import_with("REPRO_BUFFER_POOL_MAX", "64M")
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == (
        "ValueError: REPRO_BUFFER_POOL_MAX='64M': expected a whole number "
        "of bytes, e.g. 67108864 (0 retains none)"
    )


def test_malformed_verify_switch_names_the_variable():
    proc = _import_with("REPRO_VERIFY_SCHEDULES", "ture")
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == (
        "ValueError: REPRO_VERIFY_SCHEDULES='ture': expected one of "
        "1/true/yes/on (on) or 0/false/no/off (off)"
    )


def test_unknown_backend_names_the_variable_and_the_backends():
    proc = _import_with("REPRO_BACKEND", "bogus")
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == (
        "ValueError: REPRO_BACKEND='bogus': expected one of batched, "
        "threaded (or an alias: lockstep, shm)"
    )
    assert _import_with("REPRO_BACKEND", "lockstep").returncode == 0
