"""The mutant registry must keep its 100% kill rate.

``tests/analyze/mutants.py`` seeds defects into builder schedules, their
lowered plans and the runtime's own sources; the analyzers are
certified by killing every mutant, each with its expected code where it
has one.  ``python tests/analyze/mutants.py`` is the CI gate.
"""

from repro.analyze import schedule_verifier as sv
from repro.analyze.report import VerificationReport
from tests.analyze.mutants import MUTANTS, PLAN_ROWS, kill_matrix, main


def test_every_mutant_killed_with_expected_code():
    rows = kill_matrix()
    assert len(rows) == len(MUTANTS) >= 20, "the adversary must stay substantial"
    survivors = [(r.name, r.expect, r.verdict) for r in rows if not r.killed]
    assert not survivors, f"surviving mutants: {survivors}"


#: rows whose codes depend on the block size by construction, each with
#: its reason; they must still be killed by the same checks
SIZE_DEPENDENT = {
    # the stale lane widens a 4-byte word lane (8-byte reads overrun the
    # block: V506, V702, V708) but narrows a 24-byte block lane to its
    # word lane (the tail goes unread: V709)
    "lane-widened-without-rescale",
}


def test_every_mutant_dies_alike_at_another_block_size():
    """The analyzer's kills are not an accident of 4-byte blocks: at 24
    (block lanes of 24 and 72 bytes instead of word lanes of 4 and 8)
    every mutant is killed, with the same codes from the same checks."""
    small, large = kill_matrix(), kill_matrix(24)
    assert all(r.killed for r in large)
    assert SIZE_DEPENDENT <= set(MUTANTS)

    def codes(rows):
        return [
            (r.name, r.refused, r.verdict, r.kills)
            for r in rows
            if r.name not in SIZE_DEPENDENT
        ]

    def checks(rows):
        return [(r.name, r.refused, set(r.kills)) for r in rows]

    assert codes(large) == codes(small)
    assert checks(large) == checks(small)


def test_expected_codes_span_all_families():
    """The expected codes cover the lowering conformance checks, every
    V7xx effect family, the V80x reduce checks, and the
    linearity/lockset rules — a registry that drifts to one family
    stops certifying the rest."""
    expects = {row.expect for row in MUTANTS.values()}
    for code in (
        "V502",
        "V503",
        "V701",
        "V702",
        "V703",
        "V704",
        "V708",
        "V709",
        "V801",
        "V802",
        "V803",
        "V806",
        "L006",
        "L007",
        "L008",
        "L009",
    ):
        assert code in expects, f"no mutant expects {code}"


def test_lane_that_does_not_divide_a_capacity_is_refused():
    """The widened-lane mutant at the case's own capacities (60 and 36
    bytes, not whole 8-byte words) cannot even be viewed: the lowering
    check must report that as V501, not die of a ValueError inside a
    kernel."""
    row = PLAN_ROWS["lane-widened-without-rescale"]
    case = row.case._replace(words=False)
    schedule = case.build(4)
    plan = row.corrupt(case.lower(schedule))
    report = VerificationReport(schedule.kind, case.topo[0], case.topo[1])
    sv._check_plan_kernels(schedule, report, plan)
    assert report.codes() == {"V501"}


def test_cli_exit_code_is_zero(capsys):
    """The CI gate's script kills every mutant at both block sizes."""
    assert main() == 0
    assert capsys.readouterr().out.endswith(
        f"{len(MUTANTS)}/{len(MUTANTS)} mutants killed at 4 B and 24 B\n"
    )
