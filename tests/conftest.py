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


@pytest.fixture
def pairwise_fallbacks(monkeypatch):
    """Record every SatSession.add_pairwise call that adds clauses one by
    one through add_clause: the list gains (group, level-0 values of its
    literals at the call) for each."""
    from htnsat.sat import SatSession

    add_clause, add_pairwise = SatSession.add_clause, SatSession.add_pairwise
    fallbacks, inside = [], []

    def counting_add_clause(self, lits):
        if inside:
            inside[-1] += 1
        return add_clause(self, lits)

    def watched_add_pairwise(self, lits):
        values = [self.assign[abs(x)] * (1 if x > 0 else -1)
                  if 0 < abs(x) <= self.num_vars else None for x in lits]
        inside.append(0)
        try:
            return add_pairwise(self, lits)
        finally:
            calls = inside.pop()
            if calls:
                fallbacks.append((list(lits), values))

    monkeypatch.setattr(SatSession, "add_clause", counting_add_clause)
    monkeypatch.setattr(SatSession, "add_pairwise", watched_add_pairwise)
    return fallbacks
