"""The mutation-adversary harness must keep its 100% kill rate.

``repro.analyze.mutations`` seeds defects into real compiled plans,
batched rounds and runtime sources; the analyzers are
certified by killing every mutant with its expected code.  This test is
the tier-1 mirror of the ``python -m repro.analyze mutations`` CI gate.
"""

from repro.analyze.mutations import (
    _Fixture,
    _widen_one_lane,
    main,
    run_mutations,
)


def test_every_mutant_killed_with_expected_code():
    results = run_mutations()
    assert len(results) >= 20, "the adversary must stay substantial"
    survivors = [
        (r.name, r.expect, sorted(r.reported))
        for r in results
        if not r.killed
    ]
    assert not survivors, f"surviving mutants: {survivors}"


def test_every_mutant_dies_alike_at_another_block_size():
    """The analyzer's kills are not an accident of 4-byte blocks: at 24
    (block lanes of 24 and 72 bytes instead of word lanes of 4 and 8)
    each mutant reports the same codes."""
    small, large = run_mutations(), run_mutations(24)
    assert len(small) == len(large)
    assert all(r.killed for r in large)
    assert [(r.name, r.reported) for r in large] == [
        (r.name, r.reported) for r in small
    ]


def test_expected_codes_span_all_families():
    """The adversary must cover the lowering conformance check, every
    V7xx effect family, the V80x reduce checks, and the
    linearity/lockset rules — a mutator set that
    drifts to one family stops certifying the rest."""
    expects = {r.expect for r in run_mutations()}
    for code in (
        "V503",
        "V701",
        "V702",
        "V703",
        "V704",
        "V705",
        "V706",
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
        assert code in expects, f"no mutator targets {code}"


def test_lane_that_does_not_divide_a_capacity_is_refused():
    """The widened-lane mutant at the fixture's own capacities (60 and
    36 bytes, not whole 8-byte words) cannot even be viewed: the
    lowering check must report that as V501, not die of a ValueError
    inside a kernel."""
    fx = _Fixture()
    assert _widen_one_lane(fx, fx.sizes) == {"V501"}


def test_cli_exit_code_is_zero():
    assert main() == 0
