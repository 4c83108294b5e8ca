"""The kill matrix: which check catches which defect.

Reads the mutant registry (``tests/analyze/mutants.py``) and asserts two
things of it:

* every mutant is rejected, by the whole verifier (or the lint) and by
  at least one check on its own;
* every check kills some mutant that no other check kills.  A check
  without such a kill catches nothing the others miss, and goes.

``python tests/analyze/mutants.py`` prints the table committed under
``docs/``; :func:`test_committed_table_is_current` keeps the two equal.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path

import pytest

from repro.analyze import schedule_verifier as sv
from repro.analyze.certificates import CertificateStore
from repro.analyze.lint import RULES
from repro.analyze.linearity import analyze_source
from repro.analyze.report import CODES, ScheduleValidationError
from tests.analyze.mutants import (
    BLOCK_SIZES,
    MESH,
    MUTANTS,
    PLAN_ROWS,
    SCHEDULE_ROWS,
    SOURCE_ROWS,
    _local_copy_size_mismatch,
    kill_matrix,
    plan_mutant,
    render,
    source,
    unique_kills,
)

ROOT = Path(__file__).resolve().parents[2]


def _row(name, block_bytes=4):
    return next(r for r in kill_matrix(block_bytes) if r.name == name)


def test_the_matrix_is_substantial():
    cases = [SCHEDULE_ROWS[name].case for name in SCHEDULE_ROWS]
    assert len(SCHEDULE_ROWS) >= 20
    assert any(case.topo == MESH for case in cases)
    assert any(case.nbh.has_self for case in cases)
    # floors that stop rows (or their expected codes) being dropped
    assert len(MUTANTS) >= 71
    assert sum(row.expect is not None for row in MUTANTS.values()) >= 38


@pytest.mark.parametrize("name", sorted(SCHEDULE_ROWS))
def test_every_schedule_mutant_is_rejected(name):
    row = _row(name)
    assert row.verdict, f"{name} certified"
    assert row.kills or row.refused, f"{name}: no check kills it alone"


def test_every_plan_mutant_is_killed_by_a_check():
    for name in (*PLAN_ROWS, *SOURCE_ROWS):
        row = _row(name)
        assert row.verdict and row.kills, f"{name}: no check kills it alone"


@pytest.mark.parametrize("name", sorted(PLAN_ROWS))
def test_every_plan_mutant_is_killed_where_its_witness_is_on_file(
    name, monkeypatch
):
    """The clean lowering of the mutant's schedule is certified through
    a store first, so its shape and plan digest are on file; the
    corrupted plan must still be refused, on whichever path its key
    takes it."""
    schedule, topo, plan = plan_mutant(name)
    store = CertificateStore()
    sv.certify_schedule(copy.deepcopy(schedule), topo.dims, topo.periods, inherit=store)
    assert store.info().entries == 1
    monkeypatch.setattr(sv, "_lower", lambda *_: plan)
    with pytest.raises(ScheduleValidationError):
        sv.certify_schedule(
            copy.deepcopy(schedule), topo.dims, topo.periods, inherit=store
        )


def test_every_harness_mutant_is_still_killed():
    """Each row with an expected code reports it, at either block size."""
    for block_bytes in BLOCK_SIZES:
        missed = [
            (row.name, row.expect, row.verdict)
            for row in kill_matrix(block_bytes)
            if row.expect is not None and row.expect not in row.verdict
        ]
        assert missed == [], block_bytes


def test_every_check_has_a_unique_kill():
    alone = unique_kills()
    assert [check for check, names in alone.items() if not names] == []


def test_v103_comes_from_one_check():
    """A round whose two sides differ in size is reported once per
    matched pair, by matching, naming both ranks."""
    row = _row("round-byte-mismatch")
    assert [c for c, codes in row.kills.items() if "V103" in codes] == [
        "matching+deadlock"
    ]


#: codes and lint rules no row raises, and the test that makes each fire
ELSEWHERE = {
    "V104": "tests/analyze/test_kill_matrix.py::test_v104_is_the_runtime_validation",
    "V601": "tests/apps/test_broadcast_bounds.py",
    "V602": "tests/apps/test_broadcast_bounds.py",
    "V603": "tests/apps/test_broadcast_bounds.py",
    "V804": "tests/analyze/test_reduce_verifier.py",
    "L001": "tests/analyze/test_lint.py::TestL001::test_wait_under_lock_flagged",
    "L002": "tests/analyze/test_lint.py::TestL002::test_sleep_in_loop_flagged",
    "L003": "tests/analyze/test_lint.py::TestL003::test_object_setattr_outside_init_flagged",
    "L004": "tests/analyze/test_lint.py::TestL004::test_untyped_swallow_in_mpisim_flagged",
    "L005": "tests/analyze/test_lint.py::TestL005::test_unannotated_public_function_flagged",
}


def test_every_code_fires_somewhere():
    seen = {
        code
        for row in kill_matrix()
        for codes in (row.verdict, *row.kills.values())
        for code in codes
    }
    assert (set(CODES) | set(RULES)) - seen == set(ELSEWHERE)
    for code, where in ELSEWHERE.items():
        path, *test = where.split("::")
        text = (ROOT / path).read_text()
        assert re.search(rf"def {test[-1]}\(", text) if test else code in text, where


def test_v104_is_the_runtime_validation():
    case = SCHEDULE_ROWS["local-copy-size-mismatch"].case
    schedule = case.build(4)
    _local_copy_size_mismatch(schedule, case.topology())
    with pytest.raises(ScheduleValidationError) as caught:
        schedule.validate()
    assert caught.value.codes == {"V104"}


def test_committed_table_is_current():
    [doc] = ROOT.glob("docs/*kill_matrix.md")
    assert render() in doc.read_text()


def test_every_case_is_clean_before_it_is_corrupted():
    """A dirty baseline would let every mutant be "killed" by a finding
    that was there before the corruption."""
    for case in {row.case for row in MUTANTS.values() if not isinstance(row.case, str)}:
        for block_bytes in BLOCK_SIZES:
            report = sv.verify_schedule(case.build(block_bytes), *case.topo)
            assert report.ok, (case, block_bytes, report.codes())
    for module in {row.case for row in SOURCE_ROWS.values()}:
        assert analyze_source(*source(module)) == [], module
