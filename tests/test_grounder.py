"""Lifted front end: reader subset enforcement and instantiation."""
import pathlib

import pytest

from htnsat.hddl import (
    GroundingError,
    HddlParseError,
    dump_ground,
    ground,
    parse,
    parse_ground,
)
from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, ACTION
from htnsat.planner import PlannerConfig, plan, verify

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_taxi():
    return parse((FIXTURES / "taxi.hddl").read_text(),
                 (FIXTURES / "taxi1.hddl").read_text(),
                 domain_src="taxi.hddl", problem_src="taxi1.hddl")


def ground_taxi():
    return ground(*load_taxi())


TOGGLE_DOMAIN = """
(define (domain toggle)
  (:requirements :typing :hierarchy :negative-preconditions)
  (:predicates (on))
  (:task main :parameters ())
  (:method flip :task (main) :ordered-subtasks (and (turn-on)))
  (:action turn-on :precondition (not (on)) :effect (on))
  (:action turn-off :precondition (on) :effect (not (on))))
"""

TOGGLE_PROBLEM = """
(define (problem toggle1)
  (:domain toggle)
  (:htn :subtasks (main))
  (:init)
  (:goal (on)))
"""


class TestParser:
    def test_taxi_shapes(self):
        dom, prob = load_taxi()
        assert set(dom.types) == {"street", "person"}
        assert set(dom.predicates) == {"at", "booth", "called"}
        assert dom.predicates["at"] == ["person", "street"]
        assert [t.name for t in dom.tasks] == ["calltaxi", "go"]
        assert [a.name for a in dom.actions] == ["walk", "call"]
        via = dom.methods[0]
        assert via.name == "via"
        assert via.task == ("calltaxi", ("?p",))
        assert via.precond == [("booth", ("?s",), True)]
        assert via.subtasks == [("go", ("?p", "?s")),
                                ("call", ("?p", "?s"))]
        stay = dom.methods[1]
        assert stay.subtasks == []
        assert prob.top_tasks == [("calltaxi", ("p",))]
        assert ("at", ("p", "s3")) in prob.init
        assert prob.goal == [("called", ())]

    def test_equality_literal_kept(self):
        dom, _ = load_taxi()
        walk = dom.actions[0]
        assert ("=", ("?from", "?to"), False) in walk.precond

    def test_unlabeled_and_labeled_subtasks_agree(self):
        base = TOGGLE_DOMAIN.replace("(and (turn-on))",
                                     "(and (s1 (turn-on)))")
        dom, _ = parse(base, TOGGLE_PROBLEM)
        assert dom.methods[0].subtasks == [("turn-on", ())]

    def test_error_names_source_and_line(self):
        bad = (FIXTURES / "taxi.hddl").read_text().replace(
            "(:task calltaxi :parameters (?p - person))",
            "(:task calltaxi :parameters (?p - person) :junk 1)")
        with pytest.raises(HddlParseError) as err:
            parse(bad, (FIXTURES / "taxi1.hddl").read_text(),
                  domain_src="taxi.hddl")
        assert err.value.src == "taxi.hddl"
        assert err.value.line > 0
        assert "taxi.hddl line" in str(err.value)

    @pytest.mark.parametrize("patch, needle", [
        ((":precondition (booth ?s)",
          ":precondition (booth ?s) :ordering (< t1 t2)"), ":ordering"),
        (("(at ?p ?from) (not (= ?from ?to))",
          "(or (at ?p ?from) (booth ?from))"), "'or'"),
        (("(and (at ?p ?to) (not (at ?p ?from)))",
          "(when (booth ?to) (called))"), "'when'"),
        (("(:requirements :typing :hierarchy :method-preconditions)",
          "(:constants c1 - street)"), ":constants"),
    ])
    def test_rejected_constructs(self, patch, needle):
        old, new = patch
        dom_text = (FIXTURES / "taxi.hddl").read_text()
        assert old in dom_text
        with pytest.raises(HddlParseError) as err:
            parse(dom_text.replace(old, new),
                  (FIXTURES / "taxi1.hddl").read_text())
        assert needle in str(err.value)

    def test_rejects_negative_goal(self):
        bad = TOGGLE_PROBLEM.replace("(:goal (on))",
                                     "(:goal (not (on)))")
        with pytest.raises(HddlParseError, match="negative goal"):
            parse(TOGGLE_DOMAIN, bad)

    def test_rejects_arity_mismatch(self):
        bad = TOGGLE_DOMAIN.replace("(:action turn-on :precondition (not (on))",
                                    "(:action turn-on :precondition (on x)")
        with pytest.raises(HddlParseError, match="expects 0 arguments"):
            parse(bad, TOGGLE_PROBLEM)

    def test_rejects_unknown_predicate(self):
        bad = TOGGLE_PROBLEM.replace("(:goal (on))", "(:goal (shiny))")
        with pytest.raises(HddlParseError, match="unknown predicate shiny"):
            parse(TOGGLE_DOMAIN, bad)

    def test_rejects_unknown_type(self):
        bad = TOGGLE_DOMAIN.replace("(:task main :parameters ())",
                                    "(:task main :parameters (?x - gizmo))")
        with pytest.raises(HddlParseError, match="unknown type gizmo"):
            parse(bad, TOGGLE_PROBLEM)

    def test_rejects_unbound_variable(self):
        bad = TOGGLE_DOMAIN.replace("(:action turn-on :precondition (not (on))",
                                    "(:action turn-on :precondition (at ?q)")
        bad = bad.replace("(:predicates (on))",
                          "(:predicates (on) (at ?x))")
        with pytest.raises(HddlParseError, match=r"unbound variable \?q"):
            parse(bad, TOGGLE_PROBLEM)

    def test_rejects_partial_order_htn(self):
        bad = TOGGLE_PROBLEM.replace("(:htn :subtasks (main))",
                                     "(:htn :subtasks (and (a (main)))"
                                     " :ordering (< a a))")
        with pytest.raises(HddlParseError, match="ordering"):
            parse(TOGGLE_DOMAIN, bad)

    def test_rejects_method_without_task(self):
        bad = TOGGLE_DOMAIN.replace(":task (main) ", "")
        with pytest.raises(HddlParseError, match="lacks a :task"):
            parse(bad, TOGGLE_PROBLEM)

    def test_rejects_duplicate_action_name(self):
        bad = TOGGLE_DOMAIN.replace(
            "(:action turn-off :precondition (on) :effect (not (on))))",
            "(:action turn-off :precondition (on) :effect (not (on)))\n"
            "  (:action turn-on :effect (on)))")
        with pytest.raises(HddlParseError, match="duplicate action"):
            parse(bad, TOGGLE_PROBLEM)


class TestTaxiGrounding:
    def test_root_methods_need_a_booth(self):
        p = ground_taxi()
        root = p.abstracts[p.root]
        assert root.name == "calltaxi(p)"
        names = sorted(p.methods[m].name for m in root.methods)
        assert names == ["via(p,s1)", "via(p,s2)"]

    def test_boothless_street_leaves_no_trace(self):
        p = ground_taxi()
        names = {f.name for f in p.facts}
        assert "booth(s1)" in names and "booth(s2)" in names
        assert "booth(s3)" not in names
        assert all(t.name != "go(p,s3)" for t in p.abstracts)
        assert all("s3)" != a.name[-3:] or not a.name.startswith("walk")
                   for a in p.actions)  # no walk into s3

    def test_method_precondition_becomes_first_guard(self):
        p = ground_taxi()
        via = next(m for m in p.methods if m.name == "via(p,s1)")
        first = via.subtasks[0]
        assert first.kind == ACTION
        guard = p.actions[first.id]
        assert guard.name == "guard-via(p,s1)"
        assert {p.facts[f].name for f in guard.precond} == {"booth(s1)"}
        assert not guard.eff_pos and not guard.eff_neg
        assert [r.kind for r in via.subtasks] == [ACTION, ABSTRACT, ACTION]

    def test_empty_method_grows_only_its_guard(self):
        p = ground_taxi()
        stay = next(m for m in p.methods if m.name == "stay(p,s1)")
        assert len(stay.subtasks) == 1
        assert p.actions[stay.subtasks[0].id].name == "guard-stay(p,s1)"

    def test_self_walks_filtered_by_equality(self):
        p = ground_taxi()
        names = {a.name for a in p.actions}
        assert "walk(p,s1,s1)" not in names
        assert "walk(p,s3,s1)" in names
        assert all(m.name != "walkto(p,s1,s1)" for m in p.methods)

    def test_solves_and_guards_bind_the_route(self):
        p = ground_taxi()
        res = plan(p, PlannerConfig())
        assert res.status == "solved"
        assert verify(p, res.tree) == []
        steps = [p.actions[a].name for a in res.plan]
        assert len(steps) == 3
        assert steps[0].startswith("guard-via")
        assert steps[1].startswith("walk(p,s3,")
        assert steps[2].startswith("call(p,s")

    def test_position_facts_stay_mutex(self):
        p = ground_taxi()
        groups = [set(g) for g in compute_profiles(p).mutex_groups]
        at = {p.fact_id(f"at(p,s{i})") for i in (1, 2, 3)}
        assert at in groups


class TestCompilations:
    def test_negative_precondition_uses_complement_fact(self):
        p = ground(*parse(TOGGLE_DOMAIN, TOGGLE_PROBLEM))
        names = {f.name for f in p.facts}
        assert {"on", "not-on"} <= names
        on, noton = p.fact_id("on"), p.fact_id("not-on")
        turn_on = next(a for a in p.actions if a.name == "turn-on")
        assert turn_on.precond == {noton}
        assert turn_on.eff_pos == {on} and turn_on.eff_neg == {noton}
        assert p.init == 1 << noton
        res = plan(p, PlannerConfig())
        assert res.status == "solved"
        assert [p.actions[a].name for a in res.plan] == ["turn-on"]

    def test_complement_maintained_by_deleters(self):
        dom = TOGGLE_DOMAIN.replace(
            "(and (turn-on))", "(and (turn-on) (turn-off) (turn-on))")
        p = ground(*parse(dom, TOGGLE_PROBLEM))
        turn_off = next(a for a in p.actions if a.name == "turn-off")
        noton = p.fact_id("not-on")
        assert noton in turn_off.eff_pos
        res = plan(p, PlannerConfig())
        assert res.status == "solved"
        assert len(res.plan) == 3

    def test_equality_only_precondition_makes_no_guard(self):
        dom = """
        (define (domain pick)
          (:types thing)
          (:predicates (have ?x - thing) (goalp))
          (:task main :parameters ())
          (:method pair
            :parameters (?a - thing ?b - thing)
            :task (main)
            :precondition (not (= ?a ?b))
            :ordered-subtasks (and (grab ?a) (grab ?b) (cash)))
          (:action grab :parameters (?x - thing) :effect (have ?x))
          (:action cash :effect (goalp)))
        """
        prob = """
        (define (problem pick1)
          (:domain pick)
          (:objects a b - thing)
          (:htn :subtasks (main))
          (:init)
          (:goal (goalp)))
        """
        p = ground(*parse(dom, prob))
        root = p.abstracts[p.root]
        names = sorted(p.methods[m].name for m in root.methods)
        assert names == ["pair(a,b)", "pair(b,a)"]
        for m in p.methods:
            assert len(m.subtasks) == 3  # equality filtered, no guard added
        assert not any(a.name.startswith("guard-") for a in p.actions)

    def test_typed_exclusion_drops_instances(self):
        dom = """
        (define (domain typed)
          (:types tool food)
          (:predicates (eaten ?f - food))
          (:task main :parameters ())
          (:method eat-it
            :parameters (?f - food)
            :task (main)
            :ordered-subtasks (eat ?f))
          (:action eat :parameters (?f - food) :effect (eaten ?f)))
        """
        prob = """
        (define (problem typed1)
          (:domain typed)
          (:objects hammer - tool)
          (:htn :subtasks (main))
          (:init)
          (:goal ))
        """
        p = ground(*parse(dom, prob))
        assert not p.actions
        root = p.abstracts[p.root]
        assert root.methods == [] and root.unrefinable

    def test_subtype_objects_fill_supertype_slots(self):
        dom = """
        (define (domain sub)
          (:types snack - item item)
          (:predicates (stored ?x - item))
          (:task main :parameters ())
          (:method keep
            :parameters (?x - item)
            :task (main)
            :ordered-subtasks (store ?x))
          (:action store :parameters (?x - item) :effect (stored ?x)))
        """
        prob = """
        (define (problem sub1)
          (:domain sub)
          (:objects chips - snack box - item)
          (:htn :subtasks (main))
          (:init)
          (:goal (stored chips)))
        """
        p = ground(*parse(dom, prob))
        assert {a.name for a in p.actions} == {"store(box)", "store(chips)"}
        res = plan(p, PlannerConfig())
        assert res.status == "solved"
        assert [p.actions[a].name for a in res.plan] == ["store(chips)"]

    def test_multiple_top_tasks_get_a_synthesized_root(self):
        prob = TOGGLE_PROBLEM.replace(
            "(:htn :subtasks (main))",
            "(:htn :subtasks (and (t1 (main)) (t2 (turn-off)) (t3 (main))))")
        p = ground(*parse(TOGGLE_DOMAIN, prob))
        root = p.abstracts[p.root]
        assert root.name == "__top__"
        assert len(root.methods) == 1
        m = p.methods[root.methods[0]]
        assert [p.ref_name(r) for r in m.subtasks] \
            == ["main", "turn-off", "main"]
        res = plan(p, PlannerConfig())
        assert res.status == "solved" and verify(p, res.tree) == []
        assert len(res.plan) == 3

    def test_primitive_top_task_gets_a_synthesized_root(self):
        prob = TOGGLE_PROBLEM.replace("(:htn :subtasks (main))",
                                      "(:htn :subtasks (turn-on))")
        p = ground(*parse(TOGGLE_DOMAIN, prob))
        root = p.abstracts[p.root]
        assert root.name == "__top__"
        assert [r.kind for r in p.methods[root.methods[0]].subtasks] \
            == [ACTION]

    def test_unrefinable_task_prunes_its_callers(self):
        dom = """
        (define (domain dead)
          (:predicates (win) (blocked))
          (:task main :parameters ())
          (:task stuck :parameters ())
          (:method good :task (main) :ordered-subtasks (score))
          (:method bad :task (main) :ordered-subtasks (and (detour) (score)))
          (:method never :task (stuck) :ordered-subtasks (impossible))
          (:action score :effect (win))
          (:action detour :precondition (blocked))
          (:action impossible :precondition (blocked)))
        """
        # 'stuck' is not reachable at all; 'bad' falls because detour can
        # never fire, which leaves main with the single good method.
        prob = """
        (define (problem dead1)
          (:domain dead)
          (:htn :subtasks (main))
          (:init)
          (:goal (win)))
        """
        p = ground(*parse(dom, prob))
        assert [m.name for m in p.methods] == ["good"]
        assert [t.name for t in p.abstracts] == ["main"]
        assert {a.name for a in p.actions} == {"score"}


class TestDeterminismAndRoundTrip:
    def test_grounding_is_reproducible(self):
        a = dump_ground(ground_taxi())
        b = dump_ground(ground_taxi())
        assert a == b

    def test_ground_text_round_trips(self):
        text = dump_ground(ground_taxi())
        again = dump_ground(parse_ground(text, "taxi"))
        assert again == text

    def test_reparsed_problem_plans_identically(self):
        p = ground_taxi()
        q = parse_ground(dump_ground(p), "taxi")
        rp = plan(p, PlannerConfig())
        rq = plan(q, PlannerConfig())
        assert rp.status == rq.status == "solved"
        assert [p.actions[a].name for a in rp.plan] \
            == [q.actions[a].name for a in rq.plan]

    def test_instantiation_cap_aborts_clearly(self):
        dom, prob = load_taxi()
        with pytest.raises(GroundingError, match="cap of 5"):
            ground(dom, prob, cap=5)
