"""Solver and AMO encoding tests against brute-force oracles."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from htnsat.sat import (
    AmoConfig,
    BINARY,
    BIMANDER_HALF,
    BIMANDER_SQRT,
    PAIRWISE,
    SCHEMES,
    SatSession,
    SolverUsageError,
    dump_dimacs,
    encode_amo,
    load_into_session,
    luby,
    parse_dimacs,
)
from oracles import enumerate_session_models, truth_table_sat


def random_3cnf(rng: random.Random, nvars: int, nclauses: int) -> list[list[int]]:
    clauses = []
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def solve_clauses(nvars, clauses, assumptions=()):
    s = SatSession()
    for _ in range(nvars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s.solve(assumptions)


def check_model(clauses, model):
    for c in clauses:
        assert any(model[abs(l)] == (l > 0) for l in c), f"clause {c} falsified"


def test_trivial_sat_and_unsat():
    assert solve_clauses(1, [[1]]) is not None
    assert solve_clauses(1, [[1], [-1]]) is None
    assert solve_clauses(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]]) is None


def test_empty_clause_marks_store_unsat():
    s = SatSession()
    s.new_var()
    s.add_clause([])
    assert s.solve() is None
    assert s.solve([1]) is None


def test_tautology_accepted():
    s = SatSession()
    v = s.new_var()
    s.add_clause([v, -v])
    assert s.solve() is not None


def test_unallocated_var_rejected():
    s = SatSession()
    s.new_var()
    with pytest.raises(SolverUsageError):
        s.add_clause([2])
    with pytest.raises(SolverUsageError):
        s.solve([5])


def test_first_var_is_one():
    assert SatSession().new_var() == 1


def test_model_covers_every_var():
    s = SatSession()
    vs = [s.new_var() for _ in range(5)]
    s.add_clause([vs[0]])
    m = s.solve()
    assert m is not None and len(m) == 6


def test_assumptions_do_not_stick():
    s = SatSession()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    assert s.solve([-a]) is not None
    assert s.solve([a]) is not None  # earlier assumption must not persist
    m = s.solve([-a])
    assert m is not None and not m[a] and m[b]


def test_assumption_unsat_vs_store_unsat():
    s = SatSession()
    a = s.new_var()
    s.add_clause([a])
    assert s.solve([-a]) is None  # UNSAT under assumptions only
    assert s.solve() is not None  # store still satisfiable


def test_incremental_clause_addition():
    s = SatSession()
    a, b, c = (s.new_var() for _ in range(3))
    s.add_clause([a, b])
    assert s.solve() is not None
    s.add_clause([-a])
    s.add_clause([-b, c])
    m = s.solve()
    assert m is not None and not m[a] and m[b] and m[c]
    s.add_clause([-c])
    assert s.solve() is None


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_random_agreement_small():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(4, 12)
        clauses = random_3cnf(rng, n, rng.randint(3, int(4.4 * n)))
        model = solve_clauses(n, clauses)
        expect = truth_table_sat(n, clauses)
        assert (model is not None) == expect
        if model is not None:
            check_model(clauses, model)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_agreement_property(data):
    n = data.draw(st.integers(min_value=3, max_value=9))
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=n).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=30,
        )
    )
    model = solve_clauses(n, clauses)
    assert (model is not None) == truth_table_sat(n, clauses)
    if model is not None:
        check_model(clauses, model)


# -- clause ingestion ---------------------------------------------------------


def _lit(n):
    return st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v]))


def _ingestion_clause(n):
    lit = _lit(n)
    return st.one_of(
        st.lists(lit, min_size=2, max_size=2),  # binary, maybe duplicate or tautology
        st.lists(lit, min_size=1, max_size=1),  # unit
        lit.map(lambda l: [l, l]),  # duplicate literal
        lit.map(lambda l: [l, -l]),  # tautology
        st.lists(lit, min_size=3, max_size=4),
        st.lists(lit, min_size=2, max_size=4).map(tuple),  # not a list
        st.just([]),
        st.just([n + 1, 1]),  # unallocated variable, rejected
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ingestion_matches_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    s = SatSession()
    for _ in range(n):
        s.new_var()
    accepted: list[list[int]] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        if data.draw(st.integers(min_value=0, max_value=3)) == 0:
            assumptions = data.draw(st.lists(_lit(n), max_size=3))
            model = s.solve(assumptions)
            units = [[a] for a in assumptions]
            assert (model is not None) == truth_table_sat(n, accepted + units)
            if model is not None:
                check_model(accepted + units, model)
            continue
        clause = data.draw(_ingestion_clause(n))
        try:
            s.add_clause(clause)
        except SolverUsageError:
            assert any(abs(l) > n for l in clause)
        else:
            accepted.append(list(clause))
        assert s.num_clauses == len(accepted)
    model = s.solve()
    assert (model is not None) == truth_table_sat(n, accepted)


@pytest.mark.parametrize("clause", [[3, 4], [4, 3], [-4, -3], [1, 4],
                                    [1, 2, 4], [4], (3, 4), [4, 4]])
def test_unallocated_literal_leaves_store_unchanged(clause):
    # var 1 is fixed when the clause comes, vars 2 and 3 are free
    s = SatSession()
    for _ in range(3):
        s.new_var()
    s.add_clause([1, 2])
    s.add_clause([-1])
    before = dump_dimacs(s)
    with pytest.raises(SolverUsageError, match="4 uses unallocated"):
        s.add_clause(clause)
    assert s.num_clauses == 2
    assert dump_dimacs(s) == before
    m = s.solve()
    assert m is not None and not m[1] and m[2]


def test_dimacs_round_trip_keeps_clauses_as_added():
    s = SatSession()
    for _ in range(3):
        s.new_var()
    s.add_clause([1, -1])  # tautologies: exported, never watched
    s.add_clause((2, 1, -2))
    assert not any(s.watches.values())
    s.add_clause([-2, 3, -2])  # duplicate merged, first-seen order kept
    s.add_clause([3])
    s.add_clause([2, -1])
    text = dump_dimacs(s)
    assert text == "p cnf 3 5\n1 -1 0\n2 1 -2 0\n-2 3 0\n3 0\n2 -1 0\n"
    nvars, clauses = parse_dimacs(text)
    assert (nvars, clauses) == (3, [[1, -1], [2, 1, -2], [-2, 3], [3], [2, -1]])
    t = SatSession()
    load_into_session(text, t)
    assert t.num_clauses == 5 and dump_dimacs(t) == text


def test_determinism_identical_history():
    def run():
        s = SatSession()
        vs = [s.new_var() for _ in range(30)]
        rng = random.Random(11)
        for c in random_3cnf(rng, 30, 100):
            s.add_clause(c)
        out = []
        m = s.solve()
        out.append(None if m is None else tuple(m))
        s.add_clause([vs[0], vs[1]])
        m = s.solve([-vs[0]])
        out.append(None if m is None else tuple(m))
        return out, s.stats()

    r1, st1 = run()
    r2, st2 = run()
    assert r1 == r2
    assert st1 == st2


# -- AMO encodings -----------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", range(2, 9))
def test_amo_projection_model_count(scheme, n):
    s = SatSession()
    vs = [s.new_var() for _ in range(n)]
    encode_amo(s, vs, AmoConfig(scheme))
    models = enumerate_session_models(s, vs)
    assert len(models) == n + 1
    assert all(sum(m) <= 1 for m in models)


def test_amo_clause_counts():
    s = SatSession()
    vs = [s.new_var() for _ in range(3)]
    encode_amo(s, vs, AmoConfig(PAIRWISE))
    assert s.num_clauses == 3
    s = SatSession()
    vs = [s.new_var() for _ in range(4)]
    aux = encode_amo(s, vs, AmoConfig(BINARY))
    assert s.num_clauses == 8 and len(aux) == 2


def test_amo_trivial_sizes():
    s = SatSession()
    v = s.new_var()
    assert encode_amo(s, [v]) == []
    assert s.num_clauses == 0
    assert encode_amo(s, []) == []


@pytest.mark.parametrize("scheme", [BIMANDER_HALF, BIMANDER_SQRT])
def test_bimander_group_shapes(scheme):
    # n=8: half rule gives 4 groups of 2, sqrt rule gives 3 groups (3,3,2)
    s = SatSession()
    vs = [s.new_var() for _ in range(8)]
    aux = encode_amo(s, vs, AmoConfig(scheme))
    assert len(aux) == 2  # ceil(log2(4)) == ceil(log2(3)) == 2
    models = enumerate_session_models(s, vs)
    assert len(models) == 9


def test_dimacs_round_trip():
    s = SatSession()
    for _ in range(3):
        s.new_var()
    s.add_clause([1, -2])
    s.add_clause([2, 3])
    text = dump_dimacs(s)
    nvars, clauses = parse_dimacs(text)
    assert nvars == 3
    assert clauses == [[1, -2], [2, 3]]
