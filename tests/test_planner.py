import pytest

from htnsat.encoder import Encoder
from htnsat.hddl import parse_ground
from htnsat.planner import BFS, GREEDY, PlannerConfig, plan, verify
from htnsat.sat import SolverTimeout

from domains import random_acyclic, wide_choice
from oracles import count_dts, solvable_by_enumeration

SOLVABLE = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
            "empty_goal", "empty_method"]


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


class TestReinsertion:
    def test_reinsertion_domain_needs_one_round(self, ground):
        p = ground("reinsert")
        res = plan(p)
        assert res.status == "solved"
        assert res.stats.reinsertions == 1
        assert any("fixpoint, reinserting" in e for e in res.stats.events)
        assert [p.actions[a].name for a in res.plan] == \
            ["pop(2,1)", "pop(1,0)", "check"]

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
    def test_verdicts_match_exhaustive_enumeration(self):
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            p = parse_ground(random_acyclic(seed))
            if count_dts(p) > 10_000:
                continue
            checked += 1
            res = plan(p)
            expected = solvable_by_enumeration(p)
            assert (res.status == "solved") == expected, f"seed {seed}"
            if res.status == "solved":
                assert verify(p, res.tree) == [], f"seed {seed}"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fork3", "taxi", "reinsert"])
    def test_identical_reruns(self, ground, name):
        p = ground(name)
        a, b = plan(p), plan(p)
        assert a.plan == b.plan
        assert a.stats.methods_developed == b.stats.methods_developed
        assert [q["verdict"] for q in a.stats.queries] == \
            [q["verdict"] for q in b.stats.queries]


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

    def test_round_budget(self, ground):
        res = plan(ground("fork3"), PlannerConfig(max_rounds=1))
        assert res.status == "timeout"
        assert any("budget" in e for e in res.stats.events)


class TestValidator:
    def corrupt_cases(self, p, tree):
        import copy
        # drop the root's method child: undeveloped abstract node
        t1 = copy.deepcopy(tree)
        t1.nodes[t1.root].children.clear()
        yield t1
        # point an action leaf at a different action
        t2 = copy.deepcopy(tree)
        leaf = next(n for n in t2.nodes if n.kind == "action")
        leaf.ref = (leaf.ref + 1) % len(p.actions)
        yield t2
        # give a method node an extra child
        t3 = copy.deepcopy(tree)
        mnode = next(n for n in t3.nodes if n.kind == "method")
        mnode.children.append(t3.root)
        yield t3

    def test_rejects_corrupted_trees(self, ground):
        p = ground("fork3")
        res = plan(p)
        assert verify(p, res.tree) == []
        for bad in self.corrupt_cases(p, res.tree):
            assert verify(p, bad) != []

    def test_rejects_inexecutable_plan(self, ground):
        from htnsat.model import ABSTRACT, ACTION, METHOD, new_tree
        p = ground("taxi")

        def method_id(name):
            return next(m.id for m in p.methods if m.name == name)

        # structurally fine refinement that skips the walk: staying at s3
        # and calling from s1 is not executable
        t = new_tree()
        t.root = t.add(ABSTRACT, next(a.id for a in p.abstracts
                                      if a.name == "calltaxi"))
        via = t.add(METHOD, method_id("via(s1)"))
        t.nodes[t.root].children.append(via)
        go = t.add(ABSTRACT, next(a.id for a in p.abstracts
                                  if a.name == "go(s1)"))
        stay = t.add(METHOD, method_id("stay(s1)"))
        t.nodes[go].children.append(stay)
        call = t.add(ACTION, next(a.id for a in p.actions
                                  if a.name == "call(s1)"))
        t.nodes[via].children = [go, call]
        msgs = verify(p, t)
        assert any("inapplicable" in m for m in msgs)