import time

import pytest

from htnsat.encoder import Encoder
from htnsat.hddl import parse_ground
from htnsat.model import ABSTRACT, ACTION, TaskRef
from htnsat.pdt import Pdt
from htnsat.planner import (BFS, GREEDY, PlannerConfig, plan, profiles_of,
                            verify)
from htnsat.sat import SolverTimeout

from conftest import FIXTURES
from domains import random_acyclic, random_recursive, wide_choice
from oracles import count_dts, plans_to_depth, solvable_by_enumeration

SOLVABLE = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
            "empty_goal", "empty_method"]
GROUND_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.ground"))


class TestGreedy:
    @pytest.mark.parametrize("name", SOLVABLE)
    def test_solves_and_validates(self, ground, name):
        p = ground(name)
        res = plan(p)
        assert res.status == "solved"
        assert verify(p, res.tree) == []

    def test_unsolvable_reported(self, ground):
        res = plan(ground("unsolvable"))
        assert res.status == "unsolvable"
        assert res.tree is None

    def test_walkthrough_rounds(self, ground):
        p = ground("fork3")
        res = plan(p)
        relaxed = [q for q in res.stats.queries if q["kind"] == "relaxed"]
        assert relaxed[0]["round"] == 1
        assert relaxed[0]["frontier"] == ["main"]
        assert tuple(relaxed[1]["frontier"]) in {
            ("begin-left", "finish-left"),
            ("start-right", "mid-right", "finish-right"),
        }
        assert res.stats.rounds == 3
        assert res.stats.plan_length == 3

    def test_solution_queries_precede_expansion(self, ground):
        res = plan(ground("taxi"))
        kinds = [q["kind"] for q in res.stats.queries if q["round"] == 1]
        assert kinds[0] == "solution"


class TestBfs:
    @pytest.mark.parametrize("name", SOLVABLE)
    def test_same_verdicts_as_greedy(self, ground, name):
        p = ground(name)
        res = plan(p, PlannerConfig(mode=BFS))
        assert res.status == "solved"
        assert verify(p, res.tree) == []

    def test_never_poses_relaxed_queries(self, ground):
        res = plan(ground("taxi"), PlannerConfig(mode=BFS))
        assert all(q["kind"] == "solution" for q in res.stats.queries)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(mode="dfs")


def countdown(n):
    """The reinsert fixture's countdown, n deep."""
    lines = [f"problem countdown{n}"]
    lines += [f"fact n{k}" for k in range(n, -1, -1)] + ["fact done"]
    lines += [f"action pop({k},{k - 1}) pre n{k} add n{k - 1} del n{k}"
              for k in range(n, 0, -1)]
    lines += ["action check pre n0 add done", "task countdown", "task dec",
              "method base countdown -> check",
              "method again countdown -> dec countdown"]
    lines += [f"method dec({k},{k - 1}) dec -> pop({k},{k - 1})"
              for k in range(n, 0, -1)]
    lines += [f"init n{n}", "goal done", "root countdown"]
    return parse_ground("\n".join(lines) + "\n")


class TestReinsertion:
    def test_reinsertion_domain_needs_one_round(self, ground):
        p = ground("reinsert")
        res = plan(p)
        assert res.status == "solved"
        assert res.stats.reinsertions == 1
        assert any("fixpoint, reinserting" in e for e in res.stats.events)
        assert [p.actions[a].name for a in res.plan] == \
            ["pop(2,1)", "pop(1,0)", "check"]

    @pytest.mark.parametrize("mode", [GREEDY, BFS])
    def test_nesting_limit_doubles_per_reinsertion(self, mode):
        # 16 nested uses of "again" need a limit of 16, reached from 1 by
        # four doublings; each holds the countdown with its two methods
        p = countdown(16)
        res = plan(p, PlannerConfig(mode=mode))
        assert res.status == "solved"
        assert res.stats.reinsertions == 4
        assert [e for e in res.stats.events if e.startswith("fixpoint")] == [
            f"fixpoint, reinserting 2 blocked pairs, nesting limit {k} -> {2 * k}"
            for k in (1, 2, 4, 8)]
        assert res.stats.plan_length == 16 + 1
        assert verify(p, res.tree) == []

    @pytest.mark.parametrize("mode", [GREEDY, BFS])
    def test_one_encoder_across_reinsertions(self, ground, monkeypatch, mode):
        built = []
        init = Encoder.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Encoder, "__init__", counted)
        for p in (ground("reinsert"), countdown(16)):
            built.clear()
            res = plan(p, PlannerConfig(mode=mode))
            assert res.status == "solved" and res.stats.reinsertions >= 1
            assert len(built) == 1

    def test_tower_needs_none(self, ground):
        res = plan(ground("tower"))
        assert res.status == "solved"
        assert res.stats.reinsertions == 0


class TestGuidance:
    def test_greedy_develops_less_than_half_of_bfs(self):
        p = parse_ground(wide_choice(4))
        greedy = plan(p)
        bfs = plan(p, PlannerConfig(mode=BFS))
        assert greedy.status == bfs.status == "solved"
        assert greedy.stats.methods_developed <= 0.5 * bfs.stats.methods_developed

    def test_greedy_ignores_noise_subtrees(self):
        p = parse_ground(wide_choice(8))
        res = plan(p)
        assert res.status == "solved"
        expanded = {name for q in res.stats.queries
                    for name in q.get("frontier", [])}
        assert not any(name.startswith("trap") for name in expanded)


class TestEnumerationAgreement:
    @staticmethod
    def ended_by_relaxed_unsat(res):
        return res.status == "unsolvable" and \
            res.stats.events[-1].startswith("relaxed query unsatisfiable")

    def test_verdicts_match_exhaustive_enumeration(self):
        # acceptance criterion 4, with enough instances that many runs
        # end at an UNSAT relaxed query
        ended = 0
        for seed in range(1, 301):
            p = parse_ground(random_acyclic(seed))
            if count_dts(p) > 10_000:
                continue
            res = plan(p)
            expected = solvable_by_enumeration(p)
            assert (res.status == "solved") == expected, f"seed {seed}"
            if res.status == "solved":
                assert verify(p, res.tree) == [], f"seed {seed}"
            ended += self.ended_by_relaxed_unsat(res)
        assert ended >= 30

    def test_unsolvable_verdicts_on_recursive_domains(self):
        # enumeration cannot exhaust a recursive domain, so an
        # unsolvable verdict is checked against every plan of
        # decomposition depth 5
        ended = 0
        for seed in range(150):
            p = parse_ground(random_recursive(seed))
            res = plan(p, PlannerConfig(timeout=0.2))
            if res.status == "solved":
                assert verify(p, res.tree) == [], f"seed {seed}"
            elif res.status == "unsolvable":
                for seq in plans_to_depth(p, TaskRef(ABSTRACT, p.root), 5):
                    end = p.apply_seq(p.init, seq)
                    assert end is None or not p.is_goal(end), f"seed {seed}"
                ended += self.ended_by_relaxed_unsat(res)
        assert ended >= 10


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fork3", "taxi", "reinsert"])
    def test_identical_reruns(self, ground, name):
        p = ground(name)
        a, b = plan(p), plan(p)
        assert a.plan == b.plan
        assert a.stats.methods_developed == b.stats.methods_developed
        assert [q["verdict"] for q in a.stats.queries] == \
            [q["verdict"] for q in b.stats.queries]


# Per query: (kind, conflicts, decisions, propagations), then the plan.
# A change to these is a change of the search, and has to be made on purpose.
PINNED_SEARCH = {
    ("fork3", GREEDY): (
        [("s", 0, 0, 9), ("r", 0, 6, 6), ("s", 0, 0, 18), ("r", 0, 7, 22),
         ("s", 0, 0, 31)],
        ["begin-left", "mid-left", "end-left"]),
    ("fork3", BFS): (
        [("s", 0, 0, 9), ("s", 0, 0, 18), ("s", 0, 6, 39)],
        ["begin-left", "mid-left", "end-left"]),
    ("tower", GREEDY): (
        [("s", 0, 0, 5), ("r", 0, 2, 2), ("s", 1, 0, 17), ("r", 0, 1, 1),
         ("s", 0, 0, 10)],
        ["pop(2,1)"]),
    ("tower", BFS): (
        [("s", 0, 0, 5), ("s", 1, 0, 17), ("s", 0, 0, 10)],
        ["pop(2,1)"]),
    ("reinsert", GREEDY): (
        [("s", 0, 0, 6), ("r", 0, 3, 3), ("s", 0, 0, 5), ("r", 0, 5, 6),
         ("s", 0, 0, 13), ("r", 0, 3, 4), ("s", 0, 0, 6), ("r", 0, 1, 1),
         ("s", 0, 0, 12)],
        ["pop(2,1)", "pop(1,0)", "check"]),
    ("reinsert", BFS): (
        [("s", 0, 0, 6), ("s", 0, 0, 5), ("s", 0, 0, 13), ("s", 0, 0, 6),
         ("r", 0, 1, 1), ("s", 0, 0, 12)],
        ["pop(2,1)", "pop(1,0)", "check"]),
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_SEARCH))
def test_solver_work_per_query_is_pinned(ground, name, mode):
    p = ground(name)
    res = plan(p, PlannerConfig(mode=mode))
    work = [(q["kind"][0], q["conflicts"], q["decisions"], q["propagations"])
            for q in res.stats.queries]
    assert (work, [p.actions[a].name for a in res.plan]) == \
        PINNED_SEARCH[name, mode]


class TestLimits:
    def test_zero_timeout(self, ground):
        res = plan(ground("taxi"), PlannerConfig(timeout=0.0))
        assert res.status == "timeout"
        assert res.tree is None

    def test_zero_timeout_ends_before_the_first_round(self, ground):
        res = plan(ground("taxi"), PlannerConfig(timeout=0.0))
        assert res.stats.rounds == 0
        assert res.stats.queries == []
        assert res.stats.events == ["budget exhausted before round 1"]

    def test_timeout_inside_a_query_names_the_query(self, ground, monkeypatch):
        def expire(self, deadline=None):
            raise SolverTimeout

        monkeypatch.setattr(Encoder, "solve_relaxed", expire)
        res = plan(ground("taxi"))
        assert res.status == "timeout"
        assert res.stats.rounds == 1
        assert res.stats.events == [
            "budget exhausted in the relaxed query of round 1"]

    @pytest.mark.parametrize("mode", [GREEDY, BFS])
    def test_timeout_while_encoding_after_a_reinsertion(
            self, ground, monkeypatch, mode):
        # the reinsertion spends the budget; the same round's next layer
        # then stops before it is encoded
        nap = 0.5
        reinsert = Pdt.reinsert_blocked

        def slow(self):
            reinsert(self)
            time.sleep(nap)

        monkeypatch.setattr(Pdt, "reinsert_blocked", slow)
        res = plan(ground("reinsert"), PlannerConfig(mode=mode, timeout=0.3))
        assert res.status == "timeout"
        assert res.stats.reinsertions == 1
        assert res.stats.rounds == 4
        assert res.stats.events[-1] == "budget exhausted while encoding round 4"
        assert res.stats.wall_time < 0.3 + nap

    def test_round_budget(self, ground):
        # the deadline is the only budget: a round that spends it ends
        # the run before the next one starts
        res = plan(ground("fork3"), PlannerConfig(timeout=0.3),
                   on_round=lambda rounds, sess: time.sleep(0.4))
        assert res.status == "timeout"
        assert res.stats.rounds == 1
        assert res.stats.events == ["budget exhausted before round 2"]


class TestOnRound:
    @pytest.mark.parametrize("mode", [GREEDY, BFS])
    @pytest.mark.parametrize("name", GROUND_FIXTURES)
    def test_called_after_each_round_with_the_next_query_store(
            self, ground, name, mode):
        # each round but the last encodes the grid it expanded; the next
        # round's strict query adds nothing, so it records the same store
        seen = []
        res = plan(ground(name), PlannerConfig(mode=mode),
                   on_round=lambda rounds, sess: seen.append(
                       (rounds, sess.num_vars, sess.num_clauses)))
        assert res.status in ("solved", "unsolvable")
        assert [r for r, _, _ in seen] == list(range(1, res.stats.rounds))
        strict = {q["round"]: (q["vars"], q["clauses"])
                  for q in res.stats.queries if q["kind"] == "solution"}
        for r, num_vars, num_clauses in seen:
            assert strict[r + 1] == (num_vars, num_clauses)

    def test_no_mutex_keeps_the_shared_profiles(self, ground):
        # --dump-profiles and every mode of a bench run read the cached
        # profiles, so a run without mutexes must not clear their groups
        p = ground("taxi")
        groups = profiles_of(p).mutex_groups
        assert groups
        sizes = [plan(p, PlannerConfig(use_mutex=flag)).stats.queries[-1]["clauses"]
                 for flag in (False, True)]
        assert p.profiles.mutex_groups is groups
        assert groups == [[0, 1, 2]]
        assert sizes[0] < sizes[1]


class TestValidator:
    def corrupt_cases(self, p, tree):
        import copy
        # drop the root's method: undeveloped abstract node
        t1 = copy.deepcopy(tree)
        t1.nodes[t1.root].method = None
        yield t1
        # point an action leaf at a different action
        t2 = copy.deepcopy(tree)
        leaf = next(n for n in t2.nodes if n.kind == "action")
        leaf.ref = (leaf.ref + 1) % len(p.actions)
        yield t2
        # give a developed node an extra child
        t3 = copy.deepcopy(tree)
        t3.nodes[t3.root].children.append(t3.root)
        yield t3
        # develop the root by a method of another task
        t4 = copy.deepcopy(tree)
        root = t4.nodes[t4.root]
        root.method = next(m.id for m in p.methods if m.task != root.ref)
        yield t4
        # name a method id past either end of the method list
        for mid in (-1, len(p.methods)):
            t5 = copy.deepcopy(tree)
            t5.nodes[t5.root].method = mid
            yield t5

    def test_rejects_corrupted_trees(self, ground):
        p = ground("fork3")
        res = plan(p)
        assert verify(p, res.tree) == []
        for bad in self.corrupt_cases(p, res.tree):
            assert verify(p, bad) != []

    def test_reports_foreign_and_out_of_range_methods(self, ground):
        p = ground("fork3")
        *_, foreign, below, above = self.corrupt_cases(p, plan(p).tree)
        assert any("does not refine task main" in m for m in verify(p, foreign))
        assert verify(p, below) == ["method id -1 out of range"]
        assert verify(p, above) == [f"method id {len(p.methods)} out of range"]

    @pytest.mark.parametrize("name", ["fork3", "taxi"])
    def test_every_corrupted_field_is_reported_without_raising(self, ground,
                                                               name):
        import copy
        p = ground(name)
        tree = plan(p).tree
        assert verify(p, tree) == []
        n = len(tree.nodes)
        pool = {ACTION: len(p.actions), ABSTRACT: len(p.abstracts)}

        def corruptions(node, nid):
            for kind in (ACTION, ABSTRACT, "method", "bogus"):
                if kind != node.kind:
                    yield "kind", kind
            for ref in (-1, len(p.actions) + len(p.abstracts),
                        (node.ref + 1) % pool[node.kind]):
                if ref != node.ref:
                    yield "ref", ref
            if node.kind == ACTION:
                yield "method", 0
            else:
                foreign = [m.id for m in p.methods if m.task != node.ref]
                for mid in [None, -1, len(p.methods)] + foreign:
                    yield "method", mid
            for extra in (-1, n, nid):
                yield "children", node.children + [extra]
            if node.children:
                yield "children", node.children[:-1]

        cases = 0
        for nid, node in enumerate(tree.nodes):
            for field, value in corruptions(node, nid):
                bad = copy.deepcopy(tree)
                setattr(bad.nodes[nid], field, value)
                assert verify(p, bad) != [], (nid, field, value)
                cases += 1
        for root in [-1, n] + [i for i in range(n) if i != tree.root]:
            bad = copy.deepcopy(tree)
            bad.root = root
            assert verify(p, bad) != [], ("root", root)
            cases += 1
        assert cases > 10 * n

    def test_rejects_inexecutable_plan(self, ground):
        from htnsat.model import DecompositionTree
        p = ground("taxi")

        def method_id(name):
            return next(m.id for m in p.methods if m.name == name)

        # structurally fine refinement that skips the walk: staying at s3
        # and calling from s1 is not executable
        t = DecompositionTree()
        t.root = t.add(ABSTRACT, next(a.id for a in p.abstracts
                                      if a.name == "calltaxi"),
                       method_id("via(s1)"))
        go = t.add(ABSTRACT, next(a.id for a in p.abstracts
                                  if a.name == "go(s1)"),
                   method_id("stay(s1)"))
        call = t.add(ACTION, next(a.id for a in p.actions
                                  if a.name == "call(s1)"))
        t.nodes[t.root].children = [go, call]
        msgs = verify(p, t)
        assert any("inapplicable" in m for m in msgs)