"""The repository's end-to-end benchmark (see README.md beside this file).

Contract entry point: ``python3 benchmarks/e2e/run.py --workload NAME
--seed N --seconds S --trace 0|1``.  Whole suite and comparison:
``PYTHONPATH=src python -m benchmarks.e2e run|compare``.
"""

from __future__ import annotations

import os

#: the checkout root (two levels above this package)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: results, traces, sockets: git-ignored via ``benchmarks/out/``
OUT_DIR = os.path.join(ROOT, "benchmarks", "out", "e2e")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
