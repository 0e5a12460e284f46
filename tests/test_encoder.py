import functools
import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from htnsat import encoder
from htnsat.encoder import Encoder
from htnsat.hddl import ground as ground_lifted, parse, parse_ground
from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, METHOD, TaskRef, bits
from htnsat.pdt import Pdt
from htnsat.planner import PlannerConfig, plan, verify
from htnsat.sat import (AUTO_THRESHOLD, SCHEMES, SatSession, dump_dimacs,
                        encode_amo, parse_dimacs)

from domains import chain, countdown, wide_choice
from oracles import (
    DecisionCheckingSession,
    enumerate_session_models,
    relaxed_leaves_by_tree_walk,
    relaxed_plan_realizable,
    solvable_by_enumeration,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

TOYS = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
        "unsolvable", "empty_goal", "empty_method"]


def setup(problem, **kw):
    prof = compute_profiles(problem)
    pdt = Pdt(problem, prof)
    return prof, pdt, Encoder(problem, prof, pdt, **kw)


def strict_assumptions(enc):
    """The assumptions the encoder's strict query poses."""
    posed = []
    solve = enc.sess.solve

    def record(assumptions=(), deadline=None):
        posed.extend(assumptions)
        return solve(assumptions, deadline)

    enc.sess.solve = record
    try:
        enc.solve_solution()
    finally:
        del enc.sess.solve
    return posed


def grow(pdt, enc):
    """Expand everything expandable once and bring the encoding up to date."""
    targets = [q for q in pdt.pending_positions() if pdt.expandable(q)]
    if targets:
        pdt.expand(targets)
        enc.sync()
    return targets


def frontier_names(problem, cand):
    return tuple(problem.ref_name(r) for r in cand.frontier)


class TestFreshGrid:
    def test_solution_query_rejects_abstract_root(self, ground):
        _, _, enc = setup(ground("fork3"))
        assert enc.solve_solution() is None

    def test_relaxed_answer_is_the_bare_root(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        cand = enc.solve_relaxed()
        assert cand is not None
        assert frontier_names(p, cand) == ("main",)
        assert cand.targets == [pdt.root]
        assert cand.frontier == [TaskRef(ABSTRACT, p.root)]

    @pytest.mark.parametrize("name", TOYS)
    def test_first_relaxed_verdict_matches_realizability(self, ground, name):
        p = ground(name)
        prof, _, enc = setup(p)
        expected = relaxed_plan_realizable(
            p, [TaskRef(ABSTRACT, p.root)], prof, prof.mutex_groups)
        assert (enc.solve_relaxed() is not None) == expected


class TestSolutions:
    def test_empty_method_yields_empty_plan(self, ground):
        p = ground("empty_method")
        _, pdt, enc = setup(p)
        assert enc.solve_solution() is None
        grow(pdt, enc)
        tree = enc.solve_solution()
        assert tree is not None and tree.plan() == []

    def test_fork_round_two_candidates(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        grow(pdt, enc)
        cand = enc.solve_relaxed()
        assert frontier_names(p, cand) in {
            ("begin-left", "finish-left"),
            ("start-right", "mid-right", "finish-right"),
        }
        assert all(q.tasks for q in cand.targets)

    def test_fork_solves_after_two_expansions(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        grow(pdt, enc)
        assert enc.solve_solution() is None
        grow(pdt, enc)
        tree = enc.solve_solution()
        assert tree is not None and len(tree.plan()) == 3

    def test_taxi_solves_with_a_two_step_plan(self, ground):
        p = ground("taxi")
        _, pdt, enc = setup(p)
        while grow(pdt, enc):
            pass
        tree = enc.solve_solution()
        assert tree is not None
        assert len(tree.plan()) == 2
        assert [p.actions[a].name for a in tree.plan()][1].startswith("call")

    def test_recursive_tower_solves_under_blocking(self, ground):
        p = ground("tower")
        _, pdt, enc = setup(p)
        while grow(pdt, enc):
            pass
        tree = enc.solve_solution()
        assert tree is not None
        assert [p.actions[a].name for a in tree.plan()] == ["pop(2,1)"]

    def test_deep_chain_decodes_and_renders(self):
        # one layer per task, far past Python's recursion limit, so
        # decoding and the DOT marking must not recurse
        n = 1200
        p = parse_ground(chain(n))
        prof = compute_profiles(p)
        pdt = Pdt(p, prof)
        while pending := [q for q in pdt.pending_positions()
                          if pdt.expandable(q)]:
            pdt.expand(pending)
        assert len(pdt.layers) == n + 1
        tree = Encoder(p, prof, pdt).solve_solution()
        assert tree is not None and tree.plan() == [0]
        assert len(tree.nodes) == 2 * n + 1
        # depth-first node order: task i, its method, then task i + 1
        assert [(nd.kind, nd.ref) for nd in tree.nodes[:4]] == [
            (ABSTRACT, 0), (METHOD, 0), (ABSTRACT, 1), (METHOD, 1)]
        assert pdt.to_dot(tree).count("fillcolor") == 2 * n + 1

    def test_relaxed_reads_stay_linear_in_grid_depth(self, monkeypatch):
        # a relaxed answer reads the bottom layer alone, so greedy search
        # down the chain looks at each position a bounded number of times
        n = 1200
        calls = 0
        selected = Encoder._selected

        def counted(self, model, pos):
            nonlocal calls
            calls += 1
            return selected(self, model, pos)

        monkeypatch.setattr(Encoder, "_selected", counted)
        res = plan(parse_ground(chain(n)))
        assert res.status == "solved" and res.plan == [0]
        assert calls <= 3 * n

    def test_greedy_memory_stays_linear_in_grid_depth(self):
        # what a position holds must not grow with its depth, so doubling
        # the chain about doubles the traced peak
        def peak(n):
            p = parse_ground(chain(n))
            tracemalloc.start()
            try:
                assert plan(p).status == "solved"
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1600) / peak(800) <= 2.5

    def test_unsolvable_has_hard_unsat_goal(self, ground):
        p = ground("unsolvable")
        _, pdt, enc = setup(p)
        for _ in range(3):
            assert enc.solve_solution() is None
            assert enc.solve_relaxed() is None
            grow(pdt, enc)


class TestRelaxedSoundness:
    @pytest.mark.parametrize("name", TOYS)
    def test_relaxed_answers_always_realizable(self, ground, name):
        p = ground(name)
        prof, pdt, enc = setup(p)
        for _ in range(5):
            cand = enc.solve_relaxed()
            if cand is not None:
                assert relaxed_plan_realizable(
                    p, cand.frontier, prof, prof.mutex_groups), \
                    frontier_names(p, cand)
            if not grow(pdt, enc):
                break

    @pytest.mark.parametrize("name", TOYS)
    def test_dropping_mutexes_never_loses_answers(self, ground, name):
        p = ground(name)
        _, pdt_a, enc_a = setup(p)
        _, pdt_b, enc_b = setup(p, use_mutex=False)
        for _ in range(5):
            with_mutex = enc_a.solve_relaxed()
            without = enc_b.solve_relaxed()
            if with_mutex is not None:
                assert without is not None
            grow(pdt_a, enc_a)
            if not grow(pdt_b, enc_b):
                break


@functools.cache
def generated(name):
    """A walker or wide instance of the benchmark's seed 1, by name."""
    for inst in workloads.build(name.split("-")[0], 1):
        if inst.name == name:
            if inst.ground_text is not None:
                return parse_ground(inst.ground_text)
            return ground_lifted(*parse(inst.domain_text, inst.problem_text))
    raise KeyError(name)


GENERATED = [inst.name for wl in ("walker", "wide")
             for inst in workloads.build(wl, 1)]


# The benchmark's own instances, seed 1. Per query: (kind, conflicts,
# decisions, propagations); then methods developed and plan length. A
# change to these is a change of the search, and has to be made on purpose.
PINNED_BENCH_SEARCH = {
    ("walker-8x3", "greedy"): (
        [("s", 0, 0, 46), ("r", 0, 24, 24), ("s", 0, 0, 6), ("r", 0, 24, 40),
         ("s", 0, 0, 76), ("r", 0, 0, 0), ("s", 0, 0, 35), ("r", 0, 1, 10),
         ("s", 0, 0, 20), ("r", 0, 4, 53), ("s", 0, 0, 17), ("r", 0, 7, 123),
         ("s", 0, 0, 14), ("r", 0, 10, 214), ("s", 0, 0, 11),
         ("r", 0, 13, 326), ("s", 1, 0, 19), ("r", 0, 22, 459),
         ("s", 1, 0, 495), ("r", 0, 31, 615), ("s", 0, 0, 727)],
        349, 49),
    ("wide-100x4", "greedy"): (
        [("s", 0, 0, 9), ("r", 0, 6, 6), ("s", 0, 0, 229), ("r", 0, 5, 5),
         ("s", 0, 0, 230), ("r", 0, 4, 4), ("s", 0, 0, 230), ("r", 0, 3, 3),
         ("s", 0, 0, 232), ("r", 0, 0, 0), ("s", 0, 0, 3)],
        405, 5),
    ("wide-100x4", "bfs"): (
        [("s", 0, 0, 9), ("s", 0, 0, 229), ("s", 0, 0, 357), ("s", 0, 0, 483),
         ("s", 0, 0, 610), ("s", 0, 0, 506)],
        1405, 5),
    ("wide-150x4", "greedy"): (
        [("s", 0, 0, 9), ("r", 0, 6, 6), ("s", 0, 0, 333), ("r", 0, 5, 5),
         ("s", 0, 0, 334), ("r", 0, 4, 4), ("s", 0, 0, 334), ("r", 0, 3, 3),
         ("s", 0, 0, 336), ("r", 0, 0, 0), ("s", 0, 0, 3)],
        605, 5),
    ("wide-150x4", "bfs"): (
        [("s", 0, 0, 9), ("s", 0, 0, 333), ("s", 0, 0, 515), ("s", 0, 0, 695),
         ("s", 0, 0, 876), ("s", 0, 0, 722)],
        2105, 5),
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_BENCH_SEARCH))
def test_search_on_benchmark_instances_is_pinned(name, mode):
    res = plan(generated(name), PlannerConfig(mode=mode))
    assert res.status == "solved"
    work = [(q["kind"][0], q["conflicts"], q["decisions"], q["propagations"])
            for q in res.stats.queries]
    assert (work, res.stats.methods_developed, res.stats.plan_length) == \
        PINNED_BENCH_SEARCH[name, mode]


class TestRelaxedRead:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", TOYS + GENERATED)
    def test_bottom_layer_read_matches_a_tree_walk(self, ground, name, seed):
        p = generated(name) if name in GENERATED else ground(name)
        prof, pdt, enc = setup(p)
        models = []
        solve = enc.sess.solve

        def keep(*args, **kw):
            models.append(solve(*args, **kw))
            return models[-1]

        enc.sess.solve = keep
        rng = random.Random(seed)
        compared = 0
        for _ in range(8):
            ans = enc.solve_relaxed()
            if ans is None:
                assert models[-1] is None
            else:
                assert tuple(ans) == relaxed_leaves_by_tree_walk(
                    enc, models[-1])
                compared += 1
            pending = pdt.pending_positions()
            if not pending:
                break
            pdt.expand([q for q in pending if rng.random() < 0.5])
            enc.sync()
        assert compared or name == "unsolvable"


class TestIncrementality:
    def test_store_only_grows_and_verdicts_are_stable(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        sizes = [enc.sess.num_clauses]
        for _ in range(3):
            first = enc.solve_relaxed() is not None
            assert (enc.solve_relaxed() is not None) == first
            grow(pdt, enc)
            sizes.append(enc.sess.num_clauses)
        assert sizes == sorted(sizes)

    def test_solution_method_choices_replay_as_assumptions(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        grow(pdt, enc)
        grow(pdt, enc)
        tree = enc.solve_solution()
        assert tree is not None
        # every method id occurs at a single site in this domain, so the
        # tree's method choices map straight onto selector variables
        picked = {n.ref for n in tree.nodes if n.kind == "method"}
        chosen_vars = [var for sel in enc.mvar.values()
                       for mid, var in sel.items() if mid in picked]
        assert len(chosen_vars) == len(picked)
        replay = enc.sess.solve(strict_assumptions(enc) + chosen_vars)
        assert replay is not None

    @pytest.mark.parametrize("name", TOYS)
    def test_strict_query_adds_no_variable_and_no_clause(self, ground, name):
        _, pdt, enc = setup(ground(name))
        for _ in range(6):
            size = enc.sess.num_vars, enc.sess.num_clauses
            enc.solve_solution()
            assert (enc.sess.num_vars, enc.sess.num_clauses) == size
            if not grow(pdt, enc):
                break

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", TOYS)
    def test_strict_query_reads_the_grid_when_asked(self, ground, name, seed):
        # one grid syncs after every expansion, the other after every
        # second one; both expand the same pending positions
        p = ground(name)
        _, pdt, enc = setup(p)
        _, lazy_pdt, lazy = setup(p)
        rng = random.Random(seed)
        for _ in range(4):
            for _ in range(2):
                pending = pdt.pending_positions()
                if not pending:
                    break
                picks = [i for i in range(len(pending)) if rng.random() < 0.5]
                pdt.expand([pending[i] for i in picks])
                enc.sync()
                lazy_pending = lazy_pdt.pending_positions()
                lazy_pdt.expand([lazy_pending[i] for i in picks])
            lazy.sync()
            got, want = lazy.solve_solution(), enc.solve_solution()
            assert (got is None) == (want is None)
            if got is not None:
                assert all(n.children for n in got.nodes if n.kind == ABSTRACT)
                assert verify(p, got) == []
            if not pdt.pending_positions():
                break

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", TOYS)
    def test_random_schedule_matches_a_fresh_encoding(self, ground, name, seed):
        # expanding random subsets leaves positions pending across rounds,
        # so later rounds expand positions that first appeared long before
        p = ground(name)
        prof, pdt, enc = setup(p)
        rng = random.Random(seed)
        for _ in range(8):
            pending = pdt.pending_positions()
            if not pending:
                break
            pdt.expand([q for q in pending if rng.random() < 0.5])
            enc.sync()
        fresh = Encoder(p, prof, pdt)
        assert list(enc.sess.clauses()) == list(fresh.sess.clauses())
        got, want = enc.solve_solution(), fresh.solve_solution()
        assert (got and got.plan()) == (want and want.plan())

    def test_no_amo_is_encoded_twice(self, monkeypatch):
        # a mutex group whose facts the position cannot change keeps the
        # variables of the column before, whose AMO is already stored
        p = parse_ground("""\
problem tokens
fact at(a,l1)
fact at(a,l2)
fact at(b,l1)
fact at(b,l2)
action ma pre at(a,l1) add at(a,l2) del at(a,l1)
action mb pre at(b,l1) add at(b,l2) del at(b,l1)
task top
method m top -> ma mb
init at(a,l1) at(b,l1)
goal at(a,l2) at(b,l2)
root top
""")
        calls = []

        def record(sess, lits, *args):
            calls.append(tuple(lits))
            return encode_amo(sess, lits, *args)

        monkeypatch.setattr(encoder, "encode_amo", record)
        assert plan(p).status == "solved"
        assert len(calls) == len(set(calls))


def walker_fixture():
    fixtures = Path(__file__).parent / "fixtures"
    return ground_lifted(*parse((fixtures / "walker.hddl").read_text(),
                                (fixtures / "walker1.hddl").read_text()))


@pytest.mark.parametrize("name, mode", [
    ("walker-hddl", "greedy"), ("countdown30", "greedy"), ("countdown30", "bfs"),
    ("wide3", "greedy")])
def test_planner_sessions_decide_the_most_active_free_variable(monkeypatch, name, mode):
    # a planner's session decides mostly variables no conflict has bumped,
    # which random 3-CNF hardly leaves, and the plan is the plain one
    def load():
        if name == "walker-hddl":
            return walker_fixture()
        return parse_ground(countdown(30) if name == "countdown30" else wide_choice(3))

    expected = plan(load(), PlannerConfig(mode=mode))
    sessions = []

    class Checked(DecisionCheckingSession):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(encoder, "SatSession", Checked)
    res = plan(load(), PlannerConfig(mode=mode))
    assert res.status == expected.status == "solved" and res.plan == expected.plan
    assert sum(s.checked for s in sessions) == sum(s.decisions for s in sessions) > 0


def test_pairwise_groups_go_in_bulk_on_walker(pairwise_fallbacks):
    # only a repeated variable or a literal true at level 0 sends a group
    # through add_clause pair by pair
    assert plan(walker_fixture()).status == "solved"
    for group, values in pairwise_fallbacks:
        assert (len({abs(x) for x in group}) < len(group)
                or 1 in values), group


@pytest.mark.parametrize("name", ["walker-hddl", "walker-8x3"])
def test_no_action_selector_is_false_at_level_0_when_made(monkeypatch, name):
    # an action with a precondition fact false at level 0 gets no selector
    # at all, so no selector is made only to be fixed false at once
    p = walker_fixture() if name == "walker-hddl" else generated(name)
    encode = Encoder._encode_position
    made, dead = [], []

    def checked(self, pos):
        encode(self, pos)
        for ref, v in self.ops[pos].items():
            if ref is not None and ref.is_action():
                made.append(v)
                if self.sess.assign[v] < 0:
                    dead.append(v)

    monkeypatch.setattr(Encoder, "_encode_position", checked)
    assert plan(p).status == "solved"
    assert made and dead == []


@pytest.mark.parametrize("name, mode", [("wide-100x4", "greedy"),
                                        ("wide-100x4", "bfs"),
                                        ("walker-8x3", "greedy")])
def test_no_method_block_for_a_task_false_at_level_0(monkeypatch, name, mode):
    # a task whose selector is false at level 0 gets no method selector
    # when its position is linked, and no assumption in a strict query
    link, solve = Encoder._encode_linkage, SatSession.solve
    live, dead, posed = [], [], []

    def linked(self, pos):
        was = {t: self.sess.assign[self.ops[pos][TaskRef(ABSTRACT, t)]]
               for t in pos.tasks}
        link(self, pos)
        for t, x in was.items():
            made = [m for m in self.p.abstracts[t].methods if m in self.mvar[pos]]
            (dead if x < 0 else live).extend(made)

    def solved(self, assumptions=(), deadline=None):
        posed.extend(assumptions)
        dead.extend(-lit for lit in assumptions if self.assign[-lit] < 0)
        return solve(self, assumptions, deadline)

    monkeypatch.setattr(Encoder, "_encode_linkage", linked)
    monkeypatch.setattr(SatSession, "solve", solved)
    assert plan(generated(name), PlannerConfig(mode=mode)).status == "solved"
    assert live and posed and dead == []


def test_no_method_selector_for_a_slot_without_one(monkeypatch):
    # a method with a subtask slot that has no selector at its child
    # position (an action ruled out there at level 0) gets no selector
    link = Encoder._encode_linkage
    live, dead = [], []

    def linked(self, pos):
        link(self, pos)
        kids = [self.ops[q] for q in pos.children]
        for mid, mv in self.mvar[pos].items():
            subs = self.p.methods[mid].subtasks
            slots = [subs[i] if i < len(subs) else None for i in range(len(kids))]
            missing = any(ref not in kid for ref, kid in zip(slots, kids))
            (dead if missing else live).append(mv)

    monkeypatch.setattr(Encoder, "_encode_linkage", linked)
    assert plan(generated("walker-8x3")).status == "solved"
    assert live and dead == []


# Per case: the clause count and a digest of the plan and the final
# store of a run whose encoder built every clause and left it to the
# session to drop those level 0 satisfies (taken before the encoder
# skipped any).
FULL_ENCODING = {
    "fork3": (85, "dccd4da596cdda70"),
    "taxi": (56, "2630b8b459a9a29e"),
    "tower": (40, "d0ec35ead8d283a9"),
    "mpre": (27, "ec0899bcdf3fe028"),
    "addonly": (10, "13d82f86535a642d"),
    "reinsert": (69, "fc98edb51870fd84"),
    "unsolvable": (5, "39c9490a66d5c99b"),
    "empty_goal": (5, "fffbc18277c37a03"),
    "empty_method": (4, "eee3d6de49d66dfe"),
    "walker-hddl": (1635, "c12ff889cedb406b"),
    "countdown30": (4208, "81706a172ac80c74"),
}

# the clause families the encoder leaves out once level 0 satisfies them
SKIPPED = {"precondition", "frame", "method link", "blank link"}


def skip_case(ground, name):
    if name == "walker-hddl":
        return walker_fixture()
    if name == "countdown30":
        return parse_ground(countdown(30))
    return ground(name)


def planned_store(monkeypatch, problem):
    """Plan greedily; num_clauses and a digest of the plan and store."""
    sessions = []
    init = Encoder.__init__

    def captured(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sessions.append(self.sess)

    monkeypatch.setattr(Encoder, "__init__", captured)
    res = plan(problem)
    sess = sessions[-1]
    text = repr(res.plan).encode() + bytes(sess.store)
    return sess.num_clauses, hashlib.sha256(text).hexdigest()[:16]


@pytest.mark.parametrize("name", TOYS + ["walker-hddl", "countdown30"])
def test_encoder_builds_no_clause_level_0_satisfies(monkeypatch, ground, name):
    # no precondition, frame or linkage clause reaches the session with
    # the literal it is skipped on true at level 0; the store is the one
    # the full encoding leaves, since the session would store none of them
    where = []  # (encoder method, encoder, position), innermost last
    sent, satisfied = Counter(), []

    def inside(tag, f):
        def wrapped(*args):
            where.append((tag, args[0], args[1] if len(args) > 1 else None))
            try:
                return f(*args)
            finally:
                where.pop()
        return wrapped

    def family(lits):
        """The skipped family of a clause and the literals it is skipped
        on, or None."""
        tag, enc, pos = where[-1]
        if tag == "frame":
            return "frame", lits[:2]
        if tag == "position" and len(lits) == 2:
            pre, post = enc.cols[pos]
            for ref, v in enc.ops[pos].items():
                if v == -lits[0] and ref is not None and ref.is_action():
                    act = enc.p.actions[ref.id]
                    if (lits[1] in {pre[f] for f in bits(act.precond)}
                            and lits[1] not in {post[f] for f in bits(act.eff_pos)}):
                        return "precondition", lits[1:]
        if tag == "linkage" and len(lits) == 2:
            if -lits[0] in enc.mvar[pos].values():
                return "method link", lits[1:]
            if pos.has_blank and lits[0] == -enc.ops[pos][None]:
                return "blank link", lits
        return None

    add = SatSession.add_clause

    def add_clause(self, lits):
        if where and where[-1][0] in ("position", "frame", "linkage"):
            hit = family(list(lits))
            if hit is not None:
                sent[hit[0]] += 1
                if any(self.assign[abs(x)] * (1 if x > 0 else -1) > 0
                       for x in hit[1]):
                    satisfied.append((hit[0], list(lits)))
        return add(self, lits)

    monkeypatch.setattr(SatSession, "add_clause", add_clause)
    monkeypatch.setattr(SatSession, "add_pairwise",
                        inside("pairwise", SatSession.add_pairwise))
    monkeypatch.setattr(encoder, "encode_amo", inside("amo", encoder.encode_amo))
    for tag, attr in (("position", "_encode_position"), ("frame", "_frame"),
                      ("linkage", "_encode_linkage")):
        monkeypatch.setattr(Encoder, attr, inside(tag, getattr(Encoder, attr)))
    assert planned_store(monkeypatch, skip_case(ground, name)) == FULL_ENCODING[name]
    assert satisfied == []
    if name == "walker-hddl":
        assert set(sent) == SKIPPED


# two methods with the same subtask sequence: only a method group tells
# them apart
TWINS = """\
problem twins
fact start
fact done
action go pre start add done del start
task main
method first main -> go
method second main -> go
init start
goal done
root main
"""


def method_groups(monkeypatch, problem):
    """The root's method selectors after one expansion, and every AMO
    group of two or more made over some of them (encode_amo adds nothing
    for a single literal)."""
    calls = []

    def record(sess, lits, *args):
        calls.append(list(lits))
        return encode_amo(sess, lits, *args)

    monkeypatch.setattr(encoder, "encode_amo", record)
    _, pdt, enc = setup(problem)
    grow(pdt, enc)
    mvars = [enc.mvar[pdt.root][m] for m in problem.abstracts[problem.root].methods]
    return enc, mvars, [c for c in calls if len(c) > 1 and set(c) & set(mvars)]


def test_methods_with_the_same_slots_keep_a_method_group(monkeypatch):
    p = parse_ground(TWINS)
    enc, mvars, groups = method_groups(monkeypatch, p)
    assert groups == [mvars]
    tree = enc.solve_solution()
    methods = [n for n in tree.nodes if n.kind == METHOD]
    assert len(methods) == 1
    # at most one of the two methods in every model of the store
    models = enumerate_session_models(enc.sess, mvars)
    assert models == {(True, False), (False, True)}


def test_methods_with_different_slots_get_no_method_group(monkeypatch, ground):
    # go-left and go-right differ in their first slot, whose position's
    # at-most-one already excludes one when the other is chosen
    p = ground("fork3")
    enc, mvars, groups = method_groups(monkeypatch, p)
    assert len(mvars) == 2 and groups == []
    models = enumerate_session_models(enc.sess, mvars)
    assert models == {(True, False), (False, True)}


def test_wide_groups_above_the_threshold_get_product_auxiliaries(monkeypatch):
    # wide is the planning workload whose groups pass the threshold. Each
    # such group gets its p row and q column bits, and no literal of it is
    # fixed at level 0, so every one of its clauses is stored
    sizes = []

    def record(sess, lits, *args):
        n, before = len(lits), sess.num_clauses
        aux = encode_amo(sess, lits, *args)
        if n > AUTO_THRESHOLD:
            q = math.ceil(math.sqrt(n))
            p = math.ceil(n / q)
            assert len(aux) == p + q
            assert (sess.num_clauses - before
                    == 2 * n + math.comb(p, 2) + math.comb(q, 2))
        sizes.append(n)
        return aux

    monkeypatch.setattr(encoder, "encode_amo", record)
    assert plan(generated("wide-100x4")).status == "solved"
    assert max(sizes) > AUTO_THRESHOLD


class TestSchemesAndDumps:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_amo_schemes_reach_the_same_plan(self, ground, scheme):
        p = ground("taxi")
        _, pdt, enc = setup(p, amo=scheme)
        while grow(pdt, enc):
            pass
        tree = enc.solve_solution()
        assert tree is not None and len(tree.plan()) == 2

    def test_binary_scheme_gives_the_method_choice_commander_bits(
            self, monkeypatch):
        calls = []

        def record(sess, lits, *args):
            bits = encode_amo(sess, lits, *args)
            calls.append((list(lits), args, bits))
            return bits

        monkeypatch.setattr(encoder, "encode_amo", record)
        p = parse_ground(TWINS)
        _, pdt, enc = setup(p, amo="binary")
        grow(pdt, enc)
        choice = [enc.mvar[pdt.root][m] for m in p.abstracts[p.root].methods]
        assert len(choice) == 2
        assert [(args, len(bits)) for lits, args, bits in calls
                if lits == choice] == [(("binary",), 1)]

    @pytest.mark.parametrize("name", ["fork3", "taxi", "tower", "mpre",
                                      "addonly", "reinsert", "empty_goal",
                                      "empty_method"])
    @pytest.mark.parametrize("mode", ["greedy", "bfs"])
    def test_binary_scheme_plans_validate(self, ground, name, mode):
        p = ground(name)
        res = plan(p, PlannerConfig(mode=mode, amo_scheme="binary"))
        assert res.status == "solved"
        assert verify(p, res.tree) == []

    def test_dimacs_dump_round_trips(self, ground):
        p = ground("fork3")
        _, pdt, enc = setup(p)
        grow(pdt, enc)
        nvars, clauses = parse_dimacs(dump_dimacs(enc.sess))
        assert nvars == enc.sess.num_vars
        assert len(clauses) == enc.sess.num_clauses


class TestEnumerationAgreement:
    @pytest.mark.parametrize("name", ["fork3", "taxi", "mpre", "addonly",
                                      "unsolvable", "empty_goal"])
    def test_exhaustive_expansion_matches_enumeration(self, ground, name):
        p = ground(name)
        _, pdt, enc = setup(p)
        verdict = False
        for _ in range(6):
            if enc.solve_solution() is not None:
                verdict = True
                break
            if not grow(pdt, enc):
                break
        assert verdict == solvable_by_enumeration(p)
