import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# tools/mutants.py takes minutes and stays out of tier-1. Its list is loaded
# here without running it: a change that moves listed code must update the
# list with it.
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_kill_list_names_at_least_twenty_distinct_mutants():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 20


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_kill_list_entry_finds_its_text_and_its_tests(mutant):
    assert mutants.stale_reason(mutant) is None
