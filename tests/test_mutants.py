"""The mutant ledger stays applicable: every entry's old text occurs exactly
once in its file (run the mutants themselves with python -m tests.mutants)."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (mutant.killed_by or mutant.not_pinnable) and mutant.old != mutant.new, mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
