"""Docs cannot point at nothing.

Every back-ticked repository path in the top-level documents and
``docs/*.md`` must name a tracked file (or directory, or a glob that
matches one); a ``::Class::test`` suffix must name definitions in it.
``benchmarks/out/`` is git-ignored output and ``<placeholders>`` are
not paths.
"""

import fnmatch
import glob
import os
import re
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
)
PATH = re.compile(
    r"`((?:src|repro|tests|benchmarks|examples|docs|\.github)/[^`\s]*)`"
)


@pytest.fixture(scope="module")
def tracked():
    try:
        out = subprocess.check_output(["git", "ls-files"], cwd=ROOT, text=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    files = set(out.split())
    dirs = {f.rsplit("/", i)[0] for f in files for i in range(1, f.count("/") + 1)}
    return files | dirs


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_resolve(doc, tracked):
    missing = []
    with open(os.path.join(ROOT, doc)) as fh:
        for lineno, line in enumerate(fh, 1):
            for token in PATH.findall(line):
                if token.startswith("benchmarks/out/") or "<" in token:
                    continue
                path, *names = token.split("::")
                path = re.sub(r":\d.*$", "", path).rstrip("/")
                if path.startswith("repro/"):
                    path = "src/" + path
                if not fnmatch.filter(tracked, path):
                    missing.append(f"{doc}:{lineno}: `{token}`")
                elif names:
                    with open(os.path.join(ROOT, path)) as src:
                        text = src.read()
                    for name in names:
                        if not re.search(rf"\b(def|class) {re.escape(name)}\b", text):
                            missing.append(f"{doc}:{lineno}: `{token}` ({name})")
    assert not missing, "\n".join(missing)
