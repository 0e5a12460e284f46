"""Solver and AMO encoding tests against brute-force oracles."""
from __future__ import annotations

import functools
import itertools
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from htnsat.sat import (
    AUTO_THRESHOLD,
    SatSession,
    SolverTimeout,
    SolverUsageError,
    dump_dimacs,
    encode_amo,
    load_into_session,
    luby,
    parse_dimacs,
)
from htnsat.sat import amo
from oracles import (
    DecisionCheckingSession,
    enumerate_session_models,
    truth_table,
    truth_table_sat,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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


def test_pigeonhole_is_unsat_across_restarts():
    # seven pigeons, six holes: v(i, j) puts pigeon i in hole j
    pigeons, holes = 7, 6
    s = SatSession()
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in v:
        s.add_clause(row)
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                s.add_clause([-v[a][j], -v[b][j]])
    assert s.solve() is None
    st = s.stats()
    assert st["restarts"] >= 1
    assert (st["conflicts"], st["decisions"], st["propagations"], st["restarts"]) \
        == (805, 977, 10373, 6)


def test_model_found_after_restarts_satisfies_every_clause():
    n = 120
    clauses = random_3cnf(random.Random(3), n, int(4.2 * n))
    s = SatSession()
    for _ in range(n):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    model = s.solve()
    assert s.restarts >= 1
    assert model is not None
    check_model(clauses, model)


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
        # the store may leave out what level 0 satisfies, but it stays
        # equivalent to every clause accepted
        stored = list(s.clauses())
        assert s.num_clauses == len(stored) <= len(accepted)
        assert (truth_table(n, stored) == truth_table(n, accepted)).all()
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


_intake_lit = st.integers(-7, 7)  # over 6 variables: 0 and 7 are unallocated


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.lists(_intake_lit, min_size=3, max_size=3),
                          st.lists(_intake_lit, min_size=1, max_size=1),
                          st.lists(_intake_lit, max_size=5)), max_size=30))
def test_add_clause_takes_a_list_and_an_iterator_alike(clauses):
    # a list of three literals may take the fast path, an iterator never
    # does. Drawn clauses repeat literals, hold tautologies and
    # unallocated variables, meet units true or false at level 0, and
    # keep coming once the empty clause made the store UNSAT.
    by_list, by_iter = SatSession(), SatSession()
    for s in (by_list, by_iter):
        for _ in range(6):
            s.new_var()

    def attempt(s, lits):
        try:
            s.add_clause(lits)
        except SolverUsageError as e:
            return str(e)

    def state(s):
        return s.store, s.num_clauses, s.watches, s.trail, s.hard_unsat

    for c in clauses:
        assert attempt(by_list, list(c)) == attempt(by_iter, iter(c))
        assert state(by_list) == state(by_iter)


def test_dimacs_round_trip_keeps_clauses_as_added():
    s = SatSession()
    for _ in range(3):
        s.new_var()
    s.add_clause([1, -1])  # tautologies: neither stored nor watched
    s.add_clause((2, 1, -2))
    assert s.num_clauses == 0 and not any(s.watches.values())
    s.add_clause([-2, 3, -2])  # duplicate merged, first-seen order kept
    s.add_clause([3])
    s.add_clause([2, -1])
    s.add_clause([1, 3])  # satisfied at level 0 by the unit: not stored
    text = dump_dimacs(s)
    assert text == "p cnf 3 3\n-2 3 0\n3 0\n2 -1 0\n"
    nvars, clauses = parse_dimacs(text)
    assert (nvars, clauses) == (3, [[-2, 3], [3], [2, -1]])
    t = SatSession()
    load_into_session(text, t)
    assert t.num_clauses == 3 and dump_dimacs(t) == text


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


def test_past_deadline_stops_a_conflict_free_search():
    # 3000 free variables: 3000 decisions and no conflict or restart
    s = SatSession()
    for _ in range(3000):
        s.new_var()
    with pytest.raises(SolverTimeout):
        s.solve(deadline=time.monotonic() - 1.0)
    assert s.decisions < 3000 and s.conflicts == 0
    assert s.trail_lim == []
    assert s.solve() is not None


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("seed", range(4))
def test_exception_in_search_leaves_level_zero(seed):
    """An exception raised mid-search leaves the session at level 0, and
    clauses and solves after it agree with a session never interrupted."""
    rng = random.Random(seed)
    clauses = random_3cnf(rng, 40, 170)
    s, fresh = SatSession(), SatSession()
    for sess in (s, fresh):
        for _ in range(40):
            sess.new_var()
        for c in clauses:
            sess.add_clause(c)

    def interrupt(confl):
        raise _Interrupt

    s._analyze = interrupt  # the first conflict ends the search
    with pytest.raises(_Interrupt):
        s.solve()
    del s._analyze
    assert s.trail_lim == []
    assert all(s.level[abs(lit)] == 0 for lit in s.trail)

    later = [c[:2] for c in random_3cnf(rng, 40, 10)] + random_3cnf(rng, 40, 10)
    for sess in (s, fresh):
        for c in later:
            sess.add_clause(c)
    for _ in range(6):
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 41), 3)]
        got, want = s.solve(assumptions), fresh.solve(assumptions)
        assert (got is None) == (want is None)
        if got is not None:
            check_model(clauses + later + [[a] for a in assumptions], got)
        assert s.trail_lim == []


def test_level0_assignments_simplify_what_gets_watched():
    s = SatSession()
    for _ in range(5):
        s.new_var()
    s.add_clause([-1])  # var 1 is false from here on
    s.add_clause([-1, 2])  # satisfied at level 0: not stored
    s.add_clause([-3, 4, -1])  # nor is this one, on the general path
    assert dump_dimacs(s).splitlines()[1:] == ["-1 0"]
    assert not any(s.watches.values())
    s.add_clause([1, 3])  # the other literal is false: 3 becomes a unit
    s.add_clause([1, -3, 4])
    assert s.trail == [-1, 3, 4]
    assert not any(s.watches.values())
    s.add_clause([5, 1, 2])  # the false literal is left out of the watch
    # what is left is binary: each watch entry is the other literal
    assert s.watches[2] == [5] and s.watches[5] == [2]
    s.add_clause([-4, 1])  # every literal false
    assert s.hard_unsat and s.solve() is None
    # once the store is UNSAT nothing more is stored
    s.add_clause([-2, 5, -3])
    s.add_clause([5])
    s.add_clause([-2, 5])
    s.add_pairwise([2, 5])
    # a stored clause keeps its literals false at level 0
    assert dump_dimacs(s).splitlines()[1:] == [
        "-1 0", "1 3 0", "1 -3 4 0", "5 1 2 0", "-4 1 0"]
    assert s.num_clauses == 5


def _replay_bulk_both_ways(nvars: int, steps: list[tuple]) -> None:
    """Replay steps on two sessions, one taking each AMO step through
    add_pairwise, the other pair by pair through add_clause; after every
    step the two must be in the same state."""
    bulk, loop = SatSession(), SatSession()
    for s in (bulk, loop):
        for _ in range(nvars):
            s.new_var()

    def pairs_by_clauses(lits):
        for i, a in enumerate(lits):
            for b in lits[i + 1:]:
                loop.add_clause([-a, -b])

    def attempt(add, lits):
        try:
            add(lits)
        except SolverUsageError as e:
            return str(e)

    def state(s):
        return (s.store.tolist(), s.num_clauses, s.trail, s.hard_unsat,
                s.watches, s.stats())

    for kind, lits in steps:
        if kind == "clause":
            bulk.add_clause(list(lits))
            loop.add_clause(list(lits))
        elif kind == "amo":
            assert (attempt(bulk.add_pairwise, lits)
                    == attempt(pairs_by_clauses, lits))
        else:
            assert bulk.solve(lits) == loop.solve(lits)
        assert state(bulk) == state(loop)


@pytest.mark.parametrize("units", [[-1], [3], [-1, 3], [-4, 2, -6]])
def test_add_pairwise_goes_in_bulk_past_literals_false_at_level0(
        units, pairwise_fallbacks):
    # units make some group literals false at level 0 and leave the rest
    # free; no group literal is true, so no pair goes through add_clause
    steps = [("clause", [u]) for u in units]
    steps += [("amo", [1, -2, -3, 4, 5, 6]), ("amo", [6, 7, 1]),
              ("clause", [-5, 7]), ("solve", [5]), ("amo", [5, 1, -3]),
              ("solve", [])]
    _replay_bulk_both_ways(7, steps)
    assert pairwise_fallbacks == []


def _drawn_history(data, kinds: list[str]) -> tuple[int, list[tuple]]:
    """Clauses of 1-3 literals, AMO groups and solves under 0-2
    assumptions, of the kinds given. A group may repeat a variable, take
    both signs, reuse a literal fixed by an earlier unit, or, rarely,
    name an unallocated variable."""
    nvars = data.draw(st.integers(2, 8))

    def lits(top, size):
        v = st.integers(1, top)
        return data.draw(st.lists(v.flatmap(lambda v: st.sampled_from([v, -v])),
                                  min_size=size[0], max_size=size[1]))

    def top():
        return nvars + data.draw(st.sampled_from([0] * 9 + [1]))

    steps = []
    for _ in range(data.draw(st.integers(1, 14))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "clause":
            steps.append((kind, lits(nvars, (1, 3))))
        elif kind == "amo":
            steps.append((kind, lits(top(), (0, 8))))
        else:
            steps.append((kind, lits(nvars, (0, 2))))
    return nvars, steps


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_add_pairwise_matches_one_add_clause_per_pair(data):
    _replay_bulk_both_ways(
        *_drawn_history(data, ["clause", "clause", "amo", "solve"]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_store_leaves_out_only_what_level_0_satisfies(data):
    # histories of units, longer clauses, AMO groups and solves: no
    # stored clause is a tautology or held a literal true at level 0
    # when it went in, the store stays equivalent to every clause passed
    # in, and its DIMACS dump reloads to itself
    nvars, steps = _drawn_history(data, ["clause", "clause", "amo", "solve"])
    s = SatSession()
    for _ in range(nvars):
        s.new_var()
    passed: list[list[int]] = []
    for kind, lits in steps:
        if kind == "solve":
            s.solve(lits)
            continue
        before, values = s.num_clauses, s.assign[:]
        if kind == "clause":
            clauses, add = [lits], lambda: s.add_clause(list(lits))
        else:
            clauses = [[-a, -b] for i, a in enumerate(lits) for b in lits[i + 1:]]
            add = functools.partial(s.add_pairwise, lits)
        try:
            add()
        except SolverUsageError:
            # the clauses before the first unallocated variable went in
            clauses = list(itertools.takewhile(
                lambda c: all(abs(x) <= nvars for x in c), clauses))
        passed += clauses
        for c in list(s.clauses())[before:]:
            assert not any(-x in c for x in c), c
            assert not any(values[abs(x)] == (1 if x > 0 else -1) for x in c), c
    stored = list(s.clauses())
    assert s.num_clauses == len(stored)
    assert (truth_table(nvars, stored) == truth_table(nvars, passed)).all()
    text = dump_dimacs(s)
    t = SatSession()
    load_into_session(text, t)
    assert dump_dimacs(t) == text


def _planted_history(seed: int, units: bool) -> tuple[int, list[tuple]]:
    """Clauses, AMO groups and solves that all hold under a hidden
    assignment, so the store stays satisfiable and the solves in between
    do conflicts and learning. With units, some steps are unit clauses
    true under it, which fix group literals false at level 0. Without
    units, no extra random number is drawn."""
    rng = random.Random(seed)
    nvars = 50
    hidden = [rng.random() < 0.5 for _ in range(nvars + 1)]

    def lit(v=None):
        v = v or rng.randint(1, nvars)
        return v if rng.random() < 0.5 else -v

    def false_lit(v):
        return -v if hidden[v] else v

    steps = []
    for _ in range(250):
        if units and rng.random() < 0.08:
            steps.append(("clause", [-false_lit(rng.randint(1, nvars))]))
        r = rng.random()
        if r < 0.7:
            c = [lit() for _ in range(3)]
            if not any(hidden[abs(x)] == (x > 0) for x in c):
                c[0] = -c[0]
            steps.append(("clause", c))
        elif r < 0.85:
            vs = rng.sample(range(1, nvars + 1), rng.randint(2, 8))
            group = [false_lit(v) for v in vs]
            if rng.random() < 0.5:  # one literal true under the hidden one
                group[0] = -group[0]
            elif rng.random() < 0.2:  # a repeated variable, either sign
                group.append(lit(vs[-1]))
            steps.append(("amo", group))
        else:
            steps.append(("solve", [lit() for _ in range(rng.randint(0, 3))]))
    return nvars, steps


@pytest.mark.parametrize("seed", range(12))
def test_add_pairwise_matches_add_clause_on_planted_histories(seed):
    _replay_bulk_both_ways(*_planted_history(seed, units=False))


@pytest.mark.parametrize("seed", range(12))
def test_add_pairwise_matches_add_clause_on_planted_histories_with_units(seed):
    # AMO groups over false_lit meet literals false at level 0, from the
    # units and from what the solves in between learn
    _replay_bulk_both_ways(*_planted_history(seed, units=True))


def _seeded_history(var_inc: float) -> list[tuple]:
    """Clauses, units and solves under assumptions, interleaved."""
    rng = random.Random(19)
    s = SatSession()
    s.var_inc = var_inc
    n = 80
    for _ in range(n):
        s.new_var()

    def lit():
        v = rng.randint(1, n)
        return v if rng.random() < 0.5 else -v

    out = []
    for step in range(8):
        for _ in range(45):
            r = rng.random()
            s.add_clause([lit() for _ in range(1 if r < 0.02 else 2 if r < 0.1 else 3)])
        m = s.solve([lit() for _ in range(step % 3)])
        out.append((s.conflicts, s.decisions, s.propagations,
                    None if m is None else "".join("1" if x else "0" for x in m[1:])))
    return out


# (conflicts, decisions, propagations, model) after each solve. A change
# to these is a change of the search, and has to be made on purpose.
_HISTORY_PREFIX = [
    (0, 69, 80, "00000000000000000000000000000000000100000001000000000100010000010001000001000000"),
    (0, 125, 160, "00000000000000000000000000000000000101000001000100000100010000010010100011010001"),
    (0, 161, 240, "00000000010000000000001000000010000110010011000101000110110001110010101011110100"),
    (3, 207, 370, "00000000010000000001101000010010000110010011100001110110010111110011100010100001"),
    (7, 230, 543, "11011000111001011011011110101010011111011000100111110001011110001111100011000111"),
]


def test_seeded_history_is_pinned():
    assert _seeded_history(1.0) == _HISTORY_PREFIX + [
        (22, 250, 836, None), (43, 272, 1249, None), (43, 272, 1249, None)]


def test_seeded_history_with_activity_rescale_is_pinned():
    # The first bumps push activities past the rescale threshold. A
    # rescale multiplies every activity by one factor and rebuilds the
    # decision heap, so the decisions, and with them the whole history,
    # are those of the run that starts at var_inc 1.0.
    assert _seeded_history(1e99) == _HISTORY_PREFIX + [
        (22, 250, 836, None), (43, 272, 1249, None), (43, 272, 1249, None)]


# perfbench cnf seed 1, the first 20 planted formulas and both
# pigeonhole ones, which learn clauses longer than 3 and restart: per
# formula (conflicts, decisions, propagations, learnt, restarts). A change
# to these is a change of the search, and has to be made on purpose.
PINNED_CNF_SEARCH = {
    "planted-70-0": (7, 25, 180, 7, 0),
    "planted-70-1": (18, 31, 395, 18, 0),
    "planted-70-2": (22, 44, 395, 22, 0),
    "planted-70-3": (69, 94, 1229, 69, 0),
    "planted-70-4": (23, 48, 533, 23, 0),
    "planted-70-5": (90, 122, 1657, 90, 0),
    "planted-70-6": (16, 42, 337, 16, 0),
    "planted-70-7": (7, 26, 280, 7, 0),
    "planted-70-8": (3, 21, 112, 3, 0),
    "planted-70-9": (29, 46, 585, 29, 0),
    "planted-70-10": (8, 31, 203, 8, 0),
    "planted-70-11": (42, 62, 847, 42, 0),
    "planted-70-12": (14, 37, 296, 14, 0),
    "planted-70-13": (19, 44, 473, 19, 0),
    "planted-70-14": (51, 77, 1030, 51, 0),
    "planted-70-15": (0, 22, 70, 0, 0),
    "planted-70-16": (14, 27, 352, 14, 0),
    "planted-70-17": (3, 18, 109, 3, 0),
    "planted-70-18": (7, 22, 126, 7, 0),
    "planted-70-19": (38, 57, 882, 38, 0),
    "php-7-6-0": (933, 1118, 11912, 932, 6),
    "php-7-6-1": (747, 914, 9814, 746, 5),
}


def test_benchmark_cnf_search_is_pinned():
    spec = dict(workloads.SPECS["cnf"])
    spec["planted"] = (spec["planted"][0], 20)
    got = {}
    for inst in workloads.build("cnf", 1, spec):
        s = SatSession()
        load_into_session(inst.dimacs, s)
        assert (s.solve() is not None) == inst.satisfiable
        stats = s.stats()
        got[inst.name] = tuple(stats[k] for k in (
            "conflicts", "decisions", "propagations", "learnt", "restarts"))
    assert got == PINNED_CNF_SEARCH


def _guarded_history(seed: int, var_inc: float, solves: int, idle: int = 0,
                     session=DecisionCheckingSession) -> DecisionCheckingSession:
    """Incremental solves on one decision-checking session. Before each
    solve comes a random 3-CNF block at the threshold ratio over one pool
    of 30 variables, guarded by a fresh selector, and sometimes a
    pairwise group over the pool; a unit retires the selector three
    solves later. Each solve assumes some of the live selectors and a few
    pool literals, so it meets conflicts, while the store stays
    satisfiable with every variable false. ``idle`` variables in no
    clause are made before each pool variable."""
    rng = random.Random(seed)
    s = session()
    s.var_inc = var_inc
    pool = []
    for _ in range(30):
        for _ in range(idle):
            s.new_var()
        pool.append(s.new_var())
    live: list[int] = []
    for _ in range(solves):
        if len(live) == 3:
            s.add_clause([-live.pop(0)])
        sel = s.new_var()
        live.append(sel)
        for _ in range(int(4.3 * len(pool))):
            s.add_clause([-sel] + [v if rng.random() < 0.5 else -v
                                   for v in rng.sample(pool, 3)])
        if rng.random() < 0.3:
            s.add_pairwise(rng.sample(pool, rng.randint(2, 4)))
        assumptions = rng.sample(live, rng.randint(1, len(live)))
        assumptions += [v if rng.random() < 0.5 else -v
                        for v in rng.sample(pool, rng.randint(0, 2))]
        rng.shuffle(assumptions)
        s.solve(assumptions)
    assert not s.hard_unsat
    return s


@pytest.mark.parametrize("var_inc", [1.0, 1e99])
@pytest.mark.parametrize("seed", range(3))
def test_each_decision_takes_the_most_active_free_variable(seed, var_inc):
    # at 1e99 the first bumps cross the rescale threshold
    s = _guarded_history(seed, var_inc, 60)
    assert s.checked > 150 and s.conflicts > 150


def test_decision_heap_stays_within_twice_the_variables():
    s = _guarded_history(7, 1.0, 240)
    assert s.conflicts > 400
    assert s.order_excess <= 2


def test_a_conflict_free_solve_decides_fresh_variables_by_index():
    # no variable is bumped, so none is queued: each decision takes the
    # lowest free variable, and the model is the saved phases
    s = SatSession()
    for _ in range(1000):
        s.new_var()
    assert s.solve() == [False] * 1001
    assert s.decisions == 1000 and s.conflicts == 0
    assert s.order == []


@pytest.mark.parametrize("seed", range(3))
def test_only_bumped_variables_are_queued(seed):
    s = _guarded_history(seed, 1.0, 30, idle=2)
    assert s.conflicts > 50 and s.order
    assert all(s.act[v] > 0 for _, v in s.order)
    free = [v for v in range(1, s.num_vars + 1) if s.assign[v] == 0]
    entries = set(s.order)
    assert all(s.queued[v] and (-s.act[v], v) in entries
               for v in free if s.act[v] > 0)
    assert all(v >= s.low for v in free if s.act[v] == 0)


class _BackjumpWatchingSession(DecisionCheckingSession):
    """Counts the never-bumped variables that backjumps unassign below
    the point where the scan for activity 0 stands."""

    def __init__(self):
        super().__init__()
        self.seen_conflicts = 0
        self.below_low = 0

    def _cancel_to(self, lvl):
        if self.conflicts > self.seen_conflicts:  # the backjump after a conflict
            self.seen_conflicts = self.conflicts
            if len(self.trail_lim) > lvl:
                undone = (abs(x) for x in self.trail[self.trail_lim[lvl]:])
                self.below_low += sum(v < self.low and self.act[v] == 0
                                      for v in undone)
        super()._cancel_to(lvl)


def test_a_backjump_below_the_scan_point_keeps_the_decision_order():
    # deciding 1..15 false makes x16 conflict; the learnt (x5 | x15)
    # backjumps to level 5 and frees 6..14, never bumped, below the scan
    s = _BackjumpWatchingSession()
    for _ in range(20):
        s.new_var()
    s.add_clause([5, 15, 16])
    s.add_clause([5, 15, -16])
    model = s.solve()
    assert s.conflicts == 1 and s.below_low == 9
    assert s.checked == s.decisions == 15 + 1 + 9 + 4
    assert model[15] and not any(model[v] for v in range(1, 15))


@pytest.mark.parametrize("var_inc", [1.0, 1e99])
@pytest.mark.parametrize("seed", range(3))
def test_backjumps_over_idle_variables_keep_the_decision_order(seed, var_inc):
    # two variables in no clause before each pool variable: decisions by
    # index run through them, and backjumps free them below the scan; at
    # 1e99 the first bumps cross the rescale threshold
    s = _guarded_history(seed, var_inc, 60, idle=2, session=_BackjumpWatchingSession)
    assert s.checked == s.decisions > 200 and s.conflicts > 150
    assert s.below_low > 5
    assert var_inc == 1.0 or s.var_inc < var_inc  # a rescale came


def _planted_incremental_history(seed: int):
    """Solves on one session whose level 0 grows between the calls, by
    units, and during them, by what they learn and propagate; every
    clause holds under one hidden assignment. Yields the session, each
    model right after its solve, and the trail length before it."""
    rng = random.Random(seed)
    s = SatSession()
    n = 60
    hidden = [None] + [rng.random() < 0.5 for _ in range(n)]
    for _ in range(n):
        s.new_var()

    def lit(v=None):
        v = v or rng.randint(1, n)
        return v if rng.random() < 0.5 else -v

    def true_lit(v=None):
        x = lit(v)
        return x if hidden[abs(x)] == (x > 0) else -x

    for _ in range(8):
        for _ in range(int(3.8 * n / 8)):
            c = [lit() for _ in range(2 if rng.random() < 0.25 else 3)]
            if not any(hidden[abs(x)] == (x > 0) for x in c):
                c[0] = -c[0]
            s.add_clause(c)
        s.add_clause([true_lit()])  # a unit between the calls
        before = len(s.trail)
        model = s.solve([true_lit() for _ in range(rng.randint(0, 2))])
        yield s, model, before


@pytest.mark.parametrize("seed", range(6))
def test_models_follow_the_store_and_level_0_and_stay_as_returned(seed):
    held = []
    grew_between = grew_during = 0
    last = 0
    for s, model, before in _planted_incremental_history(seed):
        assert model is not None and model is not s.saved
        assert len(model) == s.num_vars + 1 and model[0] is False
        assert all(type(x) is bool for x in model)
        assert all(any(model[abs(x)] == (x > 0) for x in c) for c in s.clauses())
        assert not s.trail_lim
        assert all(model[abs(x)] == (x > 0) for x in s.trail)
        grew_between += before > last
        grew_during += len(s.trail) > before
        last = len(s.trail)
        held.append((model, list(model)))
    assert grew_between and grew_during
    assert all(model == copy for model, copy in held)


# -- AMO encodings -----------------------------------------------------------


ENCODINGS = {
    "auto": encode_amo,
    "pairwise": SatSession.add_pairwise,
    "product": amo._product,
}


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("n", range(2, 9))
def test_amo_projection_model_count(encoding, n):
    s = SatSession()
    vs = [s.new_var() for _ in range(n)]
    ENCODINGS[encoding](s, vs)
    models = enumerate_session_models(s, vs)
    assert len(models) == n + 1
    assert all(sum(m) <= 1 for m in models)


def test_amo_clause_counts():
    s = SatSession()
    vs = [s.new_var() for _ in range(3)]
    assert encode_amo(s, vs) == []
    assert s.num_clauses == 3
    # 4 literals on a 2x2 grid: 4 row and 4 column implications, one
    # pair of row bits and one of column bits
    s = SatSession()
    vs = [s.new_var() for _ in range(4)]
    aux = amo._product(s, vs)
    assert s.num_clauses == 10 and len(aux) == 4


def test_amo_trivial_sizes():
    s = SatSession()
    v = s.new_var()
    assert encode_amo(s, [v]) == []
    assert s.num_clauses == 0
    assert encode_amo(s, []) == []


def product_clauses(vs, first_aux):
    """Chen's product encoding of vs, clause by clause: each variable
    implies its row bit, then its column bit, on a grid of ceil(sqrt n)
    columns filled row-major; then pairwise over the row bits and over
    the column bits. The auxiliaries are numbered from first_aux, rows
    first."""
    q = math.ceil(math.sqrt(len(vs)))
    p = math.ceil(len(vs) / q)
    rows = list(range(first_aux, first_aux + p))
    cols = list(range(first_aux + p, first_aux + p + q))
    clauses = [[-v, rows[i // q]] for i, v in enumerate(vs)]
    clauses += [[-v, cols[j]] for j in range(q) for v in vs[j::q]]
    clauses += [[-a, -b] for a, b in itertools.combinations(rows, 2)]
    clauses += [[-a, -b] for a, b in itertools.combinations(cols, 2)]
    return rows + cols, clauses


def test_auto_is_pairwise_up_to_the_threshold_and_product_above():
    s = SatSession()
    vs = [s.new_var() for _ in range(AUTO_THRESHOLD)]
    assert encode_amo(s, vs) == []
    assert list(s.clauses()) == [
        [-a, -b] for a, b in itertools.combinations(vs, 2)]

    n = AUTO_THRESHOLD + 1
    s = SatSession()
    vs = [s.new_var() for _ in range(n)]
    aux, clauses = product_clauses(vs, n + 1)
    assert encode_amo(s, vs) == aux
    assert list(s.clauses()) == clauses


@pytest.mark.parametrize("n", [33, 40, 57, 151])
def test_auto_above_the_threshold_admits_exactly_n_plus_one(n):
    q = math.ceil(math.sqrt(n))
    p = math.ceil(n / q)
    s = SatSession()
    vs = [s.new_var() for _ in range(n)]
    aux = encode_amo(s, vs)
    assert len(aux) == p + q
    assert s.num_clauses == 2 * n + math.comb(p, 2) + math.comb(q, 2)
    models = enumerate_session_models(s, vs)
    assert len(models) == n + 1
    assert all(sum(m) <= 1 for m in models)


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


def test_dimacs_parse_comments_header_and_an_unterminated_last_clause():
    text = "c made by hand\np cnf 5 4\n1 -2 0\nc between\n\n  -3 0 2\n0 0\n4 -1"
    assert parse_dimacs(text) == (5, [[1, -2], [-3], [2], [], [4, -1]])
    assert parse_dimacs("1 2 0\n-7\n") == (7, [[1, 2], [-7]])
    assert parse_dimacs("p cnf 0 0\n") == (0, [])


@pytest.mark.parametrize("header", ["p cnf", "p", "  p cnf  "])
def test_dimacs_parse_rejects_a_header_without_a_variable_count(header):
    with pytest.raises(ValueError, match=re.escape(repr(header))):
        parse_dimacs(header + "\n1 0\n")


def _reference_parse_dimacs(text):
    """Token by token: the plain reading parse_dimacs must agree with."""
    nvars, clauses, cur = 0, [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            nvars = int(line.split()[2])
            continue
        for tok in line.split():
            if int(tok) == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(int(tok))
    if cur:
        clauses.append(cur)
    return max([nvars] + [abs(l) for c in clauses for l in c]), clauses


_dimacs_line = st.one_of(
    st.lists(st.integers(-9, 9), max_size=6).map(lambda ls: " ".join(map(str, ls))),
    st.just("c a comment"), st.just(""), st.just("   "),
    st.integers(0, 12).map(lambda n: f"p cnf {n} 3"))


@settings(max_examples=150, deadline=None)
@given(st.lists(_dimacs_line, max_size=8))
def test_dimacs_parse_matches_a_token_by_token_reading(lines):
    text = "\n".join(lines)
    assert parse_dimacs(text) == _reference_parse_dimacs(text)
