"""Lifted front end: reader subset enforcement and instantiation."""
import pathlib
import time

import pytest

from htnsat.hddl import (
    GroundingError,
    HddlParseError,
    dump_ground,
    ground,
    parse,
    parse_ground,
)
from htnsat.hddl.parser import _read_forms, _tokenize
from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, ACTION, bits, split_name
from htnsat.planner import PlannerConfig, plan, verify
from htnsat.sat import SolverTimeout

from domains import random_lifted
from oracles import ground_by_enumeration

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

    @pytest.mark.parametrize("old, new", [
        ("(and (at ?p ?s) (booth ?s))", "(and (and (at ?p ?s)) (booth ?s))"),
        ("(and (at ?p ?to) (not (at ?p ?from)))",
         "(and (at ?p ?to) (and (and (not (at ?p ?from)))))"),
        ("(:goal (and (called)))", "(:goal (and (and (called))))"),
        ("(:goal (and (called)))",
         "(:goal " + "(and " * 5000 + "(called)" + ")" * 5000 + ")"),
    ], ids=["precondition", "effect", "goal", "deep-goal"])
    def test_nested_conjunctions_flatten(self, old, new):
        texts = [(FIXTURES / name).read_text()
                 for name in ("taxi.hddl", "taxi1.hddl")]
        nested = [text.replace(old, new) for text in texts]
        assert nested != texts
        assert parse(*nested) == parse(*texts)

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

    @pytest.mark.parametrize("old, new, needle", [
        ("(t2 (call ?p ?s))", "(t2 (call ?p))",
         "method via: call expects 2 arguments, got 1"),
        (":task (calltaxi ?p)", ":task (calltaxi ?p ?s)",
         "method via: calltaxi expects 1 arguments, got 2"),
    ])
    def test_rejects_method_arity_mismatch(self, old, new, needle):
        dom_text = (FIXTURES / "taxi.hddl").read_text()
        assert old in dom_text
        with pytest.raises(HddlParseError, match=needle):
            parse(dom_text.replace(old, new),
                  (FIXTURES / "taxi1.hddl").read_text())

    def test_rejects_htn_task_arity_mismatch(self):
        prob_text = (FIXTURES / "taxi1.hddl").read_text()
        assert "(calltaxi p)" in prob_text
        with pytest.raises(HddlParseError,
                           match="calltaxi expects 1 arguments, got 2"):
            parse((FIXTURES / "taxi.hddl").read_text(),
                  prob_text.replace("(calltaxi p)", "(calltaxi p s1)"))

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


    @pytest.mark.parametrize("old, new, line", [
        ("(:predicates (on))", "(:predicates (on) ())", 4),
        ("(:predicates (on))", "(:predicates foo (on))", 4),
        ("(:predicates (on))", "(:predicates\n  (on) (()))", 5),
    ])
    def test_malformed_predicate_names_its_line(self, old, new, line):
        with pytest.raises(HddlParseError, match="expected \\(predicate") as err:
            parse(TOGGLE_DOMAIN.replace(old, new), TOGGLE_PROBLEM)
        assert err.value.line == line

    @pytest.mark.parametrize("new", ["(:domain)", "(:domain a b)",
                                     "(:domain (toggle))"])
    def test_malformed_domain_reference_names_its_line(self, new):
        bad = TOGGLE_PROBLEM.replace("(:domain toggle)", new)
        with pytest.raises(HddlParseError, match="expected \\(:domain NAME\\)") as err:
            parse(TOGGLE_DOMAIN, bad)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, want", [
        ("(a b)\r\n(C d)\r\n",
         [("(", 1), ("a", 1), ("b", 1), (")", 1),
          ("(", 2), ("c", 2), ("d", 2), (")", 2)]),
        ("(a)\n; a comment at the end", [("(", 1), ("a", 1), (")", 1)]),
        ("abc;x", [("abc", 1)]),
        ("(a\vb c\fd)", [("(", 1), ("a\vb", 1), ("c\fd", 1), (")", 1)]),
        ("(DEFINE (Domain X))",
         [("(", 1), ("define", 1), ("(", 1), ("domain", 1), ("x", 1),
          (")", 1), (")", 1)]),
        ("(a\n ;c ) (\n b)\n", [("(", 1), ("a", 1), ("b", 3), (")", 3)]),
    ], ids=["crlf", "comment-at-eof", "comment-after-name", "vt-ff-in-name",
            "lowered", "comment-hides-parens"])
    def test_tokens_and_their_lines(self, text, want):
        assert [(str(t), t.line) for t in _tokenize(text)] == want

    @pytest.mark.parametrize("text, message", [
        ("(a)\n; a comment (\n)", "unbalanced ')'"),
        ("(a)\n;c\n  b", "stray token 'b'"),
    ], ids=["paren", "name"])
    def test_error_after_a_comment_line_names_its_line(self, text, message):
        with pytest.raises(HddlParseError) as err:
            _read_forms(text, "src")
        assert (err.value.line, err.value.message) == (3, message)


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
        assert [p.facts[f].name for f in bits(guard.precond)] == ["booth(s1)"]
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
        assert turn_on.precond == 1 << noton
        assert turn_on.eff_pos == 1 << on and turn_on.eff_neg == 1 << noton
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
        assert turn_off.eff_pos >> noton & 1
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
        assert root.methods == []

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

    def test_passed_deadline_stops_grounding(self):
        dom, prob = load_taxi()
        with pytest.raises(SolverTimeout):
            ground(dom, prob, deadline=time.monotonic() - 1)
        later = ground(dom, prob, deadline=time.monotonic() + 60)
        assert dump_ground(later) == dump_ground(ground_taxi())


def _ground_or_error(grounder, dom, prob) -> str:
    try:
        return dump_ground(grounder(dom, prob))
    except GroundingError as e:
        return f"GroundingError: {e}"


def _features(dom, prob, text: str) -> set[str]:
    """What a random lifted pair exercises, read off the domain and the
    kept problem's dump."""
    out = set()
    static = set(dom.predicates) - {
        n for a in dom.actions for n, _ in a.eff_pos + a.eff_neg}
    consts = {o for o, _ in prob.objects}
    for x in dom.actions + dom.methods:
        for name, args, positive in x.precond:
            if name == "=":
                out.add("=" if positive else "not =")
            elif name in static:
                out.add("static +" if positive else "static -")
                if consts & set(args):
                    out.add("constant in a static literal")
    for m in dom.methods:
        targs = m.task[1]
        if len(set(targs)) < len(targs):
            out.add("repeated task variable")
    if text.startswith("GroundingError"):
        return out
    kept = parse_ground(text, "kept")
    heads = {split_name(t.name)[0] for t in kept.abstracts}
    if any(t.name not in heads for t in dom.tasks):
        out.add("unreachable task")
    if any(not t.methods for t in kept.abstracts):
        out.add("unrefinable task")
    if any(a.name.startswith("guard-") for a in kept.actions):
        out.add("kept method guard")
    sigs = {x.name: [ty for _, ty in x.params] for x in dom.actions}
    for a in kept.actions:
        head, args = split_name(a.name)
        if any(ty == "item" and o.startswith("g")
               for o, ty in zip(args, sigs.get(head, []))):
            out.add("subtype object")
    return out


class TestReachabilityGrounding:
    """The reachability grounder against instantiating every typed
    binding and pruning afterwards (``oracles.ground_by_enumeration``)."""

    SEEDS = range(400)

    @pytest.mark.parametrize("chunk", range(8))
    def test_same_problem_as_enumeration(self, chunk):
        for seed in self.SEEDS[chunk::8]:
            dom, prob = parse(*random_lifted(seed))
            assert _ground_or_error(ground, dom, prob) == \
                _ground_or_error(ground_by_enumeration, dom, prob), seed

    def test_random_domains_cover_every_feature(self):
        seen = set()
        for seed in self.SEEDS:
            dom, prob = parse(*random_lifted(seed))
            seen |= _features(dom, prob, _ground_or_error(ground, dom, prob))
        assert seen == {"=", "not =", "static +", "static -",
                        "constant in a static literal",
                        "repeated task variable", "unreachable task",
                        "unrefinable task", "kept method guard",
                        "subtype object"}

    def test_reaches_fewer_candidates_than_enumeration(self):
        dom, prob = load_taxi()
        cap = 20
        assert dump_ground(ground(dom, prob, cap=cap)) == \
            dump_ground(ground_by_enumeration(dom, prob))
        with pytest.raises(GroundingError, match=f"cap of {cap}"):
            ground_by_enumeration(dom, prob, cap=cap)

    def test_budget_counts_rejected_partial_bindings(self):
        # every binding of ?a fails the static (mark ?a), so nothing below
        # depth one is tried, yet each of the 40 objects tried costs a unit,
        # as does making the action finish
        dom = """
        (define (domain reject)
          (:types thing)
          (:predicates (mark ?x - thing) (done))
          (:task main :parameters ())
          (:method pick :parameters (?a - thing ?b - thing) :task (main)
            :precondition (mark ?a) :ordered-subtasks (finish))
          (:action finish :effect (done)))
        """
        objs = " ".join(f"o{i}" for i in range(40))
        prob = f"""
        (define (problem reject1)
          (:domain reject)
          (:objects {objs} - thing)
          (:htn :subtasks (main))
          (:init)
          (:goal (done)))
        """
        lifted = parse(dom, prob)
        with pytest.raises(GroundingError, match="cap of 40"):
            ground(*lifted, cap=40)
        assert ground(*lifted, cap=41).abstracts[0].methods == []

    def test_task_arguments_unify_before_any_binding_step(self):
        # pair(a,b) is reached; `same` needs both arguments equal and
        # `fixed` needs the second to be c, so neither binds ?w at all
        dom = """
        (define (domain unify)
          (:types thing)
          (:predicates (done))
          (:task main :parameters ())
          (:task pair :parameters (?x - thing ?y - thing))
          (:method start :parameters () :task (main)
            :ordered-subtasks (pair a b))
          (:method same :parameters (?z - thing ?w - thing) :task (pair ?z ?z)
            :ordered-subtasks (finish ?w))
          (:method fixed :parameters (?z - thing ?w - thing) :task (pair ?z c)
            :ordered-subtasks (finish ?w))
          (:action finish :parameters (?w - thing) :effect (done)))
        """
        prob = """
        (define (problem unify1)
          (:domain unify)
          (:objects a b c - thing)
          (:htn :subtasks (main))
          (:init)
          (:goal (done)))
        """
        lifted = parse(dom, prob)
        p = ground(*lifted, cap=0)
        assert dump_ground(p) == dump_ground(ground_by_enumeration(*lifted))
        assert [t.name for t in p.abstracts] == ["main"]

    def test_guard_name_collision_is_still_raised(self):
        dom_text = (FIXTURES / "taxi.hddl").read_text()
        assert "(:action call" in dom_text
        dom_text = dom_text.replace(
            "(:action call",
            "(:action guard-via :parameters (?p - person ?s - street)"
            " :effect (called))\n  (:action call")
        dom, prob = parse(dom_text, (FIXTURES / "taxi1.hddl").read_text())
        for grounder in (ground, ground_by_enumeration):
            with pytest.raises(GroundingError,
                               match="collides with a compiled method guard"):
                grounder(dom, prob)

    def test_synthesized_root_is_named_apart_from_an_unreached_task(self):
        dom_text = TOGGLE_DOMAIN.replace(
            "(:task main :parameters ())",
            "(:task main :parameters ())\n  (:task __top__ :parameters ())")
        prob_text = TOGGLE_PROBLEM.replace(
            "(:htn :subtasks (main))",
            "(:htn :subtasks (and (t1 (main)) (t2 (turn-off))))")
        dom, prob = parse(dom_text, prob_text)
        p = ground(dom, prob)
        assert p.abstracts[p.root].name == "__top___"
        assert dump_ground(p) == dump_ground(ground_by_enumeration(dom, prob))

    def test_wide_method_binds_without_recursion(self):
        n = 1500
        params = " ".join(f"?x{i} - one" for i in range(n))
        dom = f"""
        (define (domain wide)
          (:types one)
          (:predicates (done))
          (:task main :parameters ())
          (:method all :parameters ({params}) :task (main)
            :precondition (= ?x0 ?x{n - 1}) :ordered-subtasks (finish))
          (:action finish :effect (done)))
        """
        prob = """
        (define (problem wide1)
          (:domain wide)
          (:objects solo - one)
          (:htn :subtasks (main))
          (:init)
          (:goal (done)))
        """
        p = ground(*parse(dom, prob))
        assert [m.name.count("solo") for m in p.methods] == [n]
        assert plan(p, PlannerConfig()).status == "solved"
