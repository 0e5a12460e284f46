import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def ground():
    """Loader for the bundled .ground fixture problems."""
    from htnsat.hddl import parse_ground

    def _load(name):
        return parse_ground((FIXTURES / f"{name}.ground").read_text())

    return _load


def _record_fallbacks(monkeypatch, method):
    """Record every call of the bulk SatSession method that adds clauses
    one by one through add_clause: the list gains, for each, its literal
    arguments as lists, then the level-0 values of their literals at the
    call (None for an unallocated variable)."""
    from htnsat.sat import SatSession

    add_clause, bulk = SatSession.add_clause, getattr(SatSession, method)
    fallbacks, inside = [], []

    def counting_add_clause(self, lits):
        if inside:
            inside[-1] += 1
        return add_clause(self, lits)

    def watched(self, *groups):
        values = [[self.assign[abs(x)] * (1 if x > 0 else -1)
                   if 0 < abs(x) <= self.num_vars else None for x in g]
                  for g in groups]
        inside.append(0)
        try:
            return bulk(self, *groups)
        finally:
            if inside.pop():
                fallbacks.append((*map(list, groups), *values))

    monkeypatch.setattr(SatSession, "add_clause", counting_add_clause)
    monkeypatch.setattr(SatSession, method, watched)
    return fallbacks


@pytest.fixture
def pairwise_fallbacks(monkeypatch):
    """(group, level-0 values) for each add_pairwise call that went
    pair by pair."""
    return _record_fallbacks(monkeypatch, "add_pairwise")


@pytest.fixture
def implication_fallbacks(monkeypatch):
    """(lits, heads, level-0 values of each) for each add_implications
    call that went clause by clause."""
    return _record_fallbacks(monkeypatch, "add_implications")
