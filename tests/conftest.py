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
    """(group, level-0 values) for each add_pairwise call that went pair
    by pair through add_clause; a value is None for an unallocated
    variable."""
    from htnsat.sat import SatSession

    add_clause, add_pairwise = SatSession.add_clause, SatSession.add_pairwise
    fallbacks, calls = [], [0]

    def counting_add_clause(self, lits):
        calls[0] += 1
        return add_clause(self, lits)

    def watched(self, lits):
        values = [self.assign[abs(x)] * (1 if x > 0 else -1)
                  if 0 < abs(x) <= self.num_vars else None for x in lits]
        before = calls[0]
        try:
            return add_pairwise(self, lits)
        finally:
            if calls[0] > before:
                fallbacks.append((list(lits), values))

    monkeypatch.setattr(SatSession, "add_clause", counting_add_clause)
    monkeypatch.setattr(SatSession, "add_pairwise", watched)
    return fallbacks
