"""The mutant ledger stays applicable: every entry's old text occurs exactly
once in its file, and every test it names is defined in its file (run the
mutants themselves with python -m tests.mutants)."""

import re

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (mutant.killed_by or mutant.not_pinnable) and mutant.old != mutant.new, mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name


def test_every_killing_test_is_defined():
    for mutant in MUTANTS:
        for test in mutant.killed_by:
            path, _, name = test.partition("::")
            source = ROOT / path
            assert source.is_file(), (mutant.name, test)
            assert re.search(rf"^def {name.split('[')[0]}\(", source.read_text(), re.M), (mutant.name, test)
