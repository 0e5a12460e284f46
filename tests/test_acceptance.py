"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria execute.
"""
import itertools
import math
import pathlib
import random
import time

from htnsat.cli import ipc_score, parse_plan, quality_score, write_plan
from htnsat.hddl import parse_ground
from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, TaskRef
from htnsat.planner import BFS, GREEDY, PlannerConfig, plan, verify
from htnsat.sat import SCHEMES, SatSession, encode_amo

from domains import random_acyclic, wide_choice
from oracles import (
    count_dts,
    enumerate_session_models,
    plans_to_depth,
    reachable_states,
    solvable_by_enumeration,
    truth_table_sat,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GROUND_TOYS = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
               "empty_goal", "empty_method", "unsolvable"]
SOLVABLE_TOYS = [n for n in GROUND_TOYS if n != "unsolvable"]


def toy(name):
    if name.startswith("wide"):
        return parse_ground(wide_choice(int(name[4:])), name)
    return parse_ground((FIXTURES / f"{name}.ground").read_text(), name)


def suite():
    """The bundled toy suite: nine ground fixtures plus the wide family."""
    return GROUND_TOYS + ["wide4", "wide8", "wide16"]


def report(num, label, ok):
    print(f"criterion {num:2d} {'pass' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_01_sat_oracle_agreement():
    t0 = time.monotonic()
    rng = random.Random(2024)
    agree = 0
    for _ in range(500):
        nvars = rng.randint(3, 10)
        nclauses = rng.randint(1, 3 * nvars)
        clauses = []
        for _ in range(nclauses):
            vs = rng.sample(range(1, nvars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        sess = SatSession()
        for _ in range(nvars):
            sess.new_var()
        for c in clauses:
            sess.add_clause(c)
        got = sess.solve() is not None
        agree += got == truth_table_sat(nvars, clauses)
    took = time.monotonic() - t0
    report(1, f"CDCL vs truth table on 500 random 3-CNF ({took:.1f}s)",
           agree == 500 and took < 30)


def test_02_amo_projection_counts():
    ok = True
    for scheme, n in itertools.product(SCHEMES, range(2, 9)):
        sess = SatSession()
        vs = [sess.new_var() for _ in range(n)]
        encode_amo(sess, vs, scheme)
        models = enumerate_session_models(sess, vs)
        ok &= len(models) == n + 1 and all(sum(m) <= 1 for m in models)
    report(2, "every AMO scheme admits exactly n+1 projected models", ok)


def test_03_planner_soundness_on_toy_suite():
    names = suite()
    violations = 0
    solved = 0
    for name in names:
        p = toy(name)
        res = plan(p, PlannerConfig())
        if res.status != "solved":
            continue
        solved += 1
        msgs = verify(p, res.tree)
        round_trip = parse_plan(p, write_plan(p, res.tree))
        msgs += verify(p, round_trip)
        violations += len(msgs)
    report(3, f"{solved} solved instances across {len(names)} toy domains, "
              f"{violations} validator violations",
           len(names) >= 8 and solved >= 8 and violations == 0)


def test_04_verdicts_match_enumeration():
    t0 = time.monotonic()
    checked = 0
    mismatches = 0
    for seed in itertools.count():
        if checked == 20:
            break
        p = parse_ground(random_acyclic(seed))
        if count_dts(p) > 10_000:
            continue
        checked += 1
        res = plan(p, PlannerConfig())
        expected = solvable_by_enumeration(p)
        if (res.status == "solved") != expected:
            mismatches += 1
        elif res.status == "solved" and verify(p, res.tree):
            mismatches += 1
    took = time.monotonic() - t0
    report(4, f"greedy verdicts match exhaustive enumeration on 20 random "
              f"instances ({took:.1f}s)", mismatches == 0 and took < 60)


def test_05_guidance_trend_on_wide_choice():
    ok = True
    for w in (4, 8, 16):
        p = parse_ground(wide_choice(w), f"wide{w}")
        developed = {}
        for mode in (GREEDY, BFS):
            t0 = time.monotonic()
            res = plan(p, PlannerConfig(mode=mode))
            took = time.monotonic() - t0
            ok &= res.status == "solved" and took < 10
            developed[mode] = res.stats.methods_developed
        ok &= developed[GREEDY] <= 0.5 * developed[BFS]
    report(5, "greedy develops at most half of bfs's methods for "
              "w in {4, 8, 16}", ok)


def test_06_inference_soundness():
    effect_violations = 0
    blocking_failures = 0
    for name in suite():
        p = toy(name)
        prof = compute_profiles(p)
        pos, neg, mand = prof.poss_eff_pos, prof.poss_eff_neg, prof.mand_pre
        states = reachable_states(p)
        for t in p.abstracts:
            ref = TaskRef(ABSTRACT, t.id)
            refinements = plans_to_depth(p, ref, 6)
            for steps in refinements:
                adds = dels = 0
                for aid in steps:
                    adds |= p.actions[aid].eff_pos
                    dels |= p.actions[aid].eff_neg
                if adds & ~pos[t.id] or dels & ~neg[t.id]:
                    effect_violations += 1
            for s in states:
                if s & mand[t.id] == mand[t.id]:
                    continue
                if any(p.apply_seq(s, steps) is not None
                       for steps in refinements):
                    blocking_failures += 1
    report(6, f"refinement effects within possible-effect sets "
              f"({effect_violations} violations), mandatory preconditions "
              f"block execution ({blocking_failures} counterexamples)",
           effect_violations == 0 and blocking_failures == 0)


def test_07_mutex_validity_and_optionality():
    group_violations = 0
    for name in suite():
        p = toy(name)
        prof = compute_profiles(p)
        states = reachable_states(p)
        for group in prof.mutex_groups:
            for s in states:
                if sum(s >> f & 1 for f in group) > 1:
                    group_violations += 1
    bare_solves = all(
        plan(toy(n), PlannerConfig(use_mutex=False)).status == "solved"
        for n in SOLVABLE_TOYS)
    report(7, f"mutex groups hold in all reachable states "
              f"({group_violations} violations) and --no-mutex still solves "
              f"the suite", group_violations == 0 and bare_solves)


def test_08_reinsertion_mechanism():
    rres = plan(toy("reinsert"), PlannerConfig())
    reinsert_ok = (
        rres.status == "solved"
        and rres.stats.reinsertions == 1
        and any("reinserting" in e for e in rres.stats.events)
        and verify(toy("reinsert"), rres.tree) == [])
    tres = plan(toy("tower"), PlannerConfig())
    tower_ok = tres.status == "solved" and tres.stats.reinsertions == 0
    report(8, "blocked fixpoint solved after one reinsertion; recursive "
              "tower needs none", reinsert_ok and tower_ok)


def test_09_scoring_formulas():
    eps = 1e-12
    cases = [
        abs(ipc_score(1.0, 600.0, True) - 1.0) <= eps,
        abs(ipc_score(600.0, 600.0, True) - 0.0) <= eps,
        abs(ipc_score(math.sqrt(600.0), 600.0, True) - 0.5) <= eps,
        ipc_score(0.2, 600.0, True) == 1.0,
        ipc_score(10.0, 600.0, False) == 0.0,
        abs(quality_score(7, 7, True) - 1.0) <= eps,
        abs(quality_score(14, 7, True) - 0.5) <= eps,
        quality_score(9, 4, False) == 0.0,
        quality_score(0, 0, True) == 1.0,
        quality_score(4, 0, True) == 0.0,
    ]
    report(9, "time and quality scores hit the analytic cases to 1e-12",
           all(cases))


def test_10_determinism():
    ok = True
    for name in suite():
        outputs = []
        for _ in range(2):
            p = toy(name)
            res = plan(p, PlannerConfig())
            text = write_plan(p, res.tree) if res.status == "solved" else ""
            outputs.append((res.status, text, res.stats.methods_developed))
        ok &= outputs[0] == outputs[1]
    report(10, "repeated runs give byte-identical plan files and method counts",
           ok)


def test_11_walkthrough_fidelity():
    p = toy("fork3")
    res = plan(p, PlannerConfig())
    relaxed = [q for q in res.stats.queries if q["kind"] == "relaxed"]
    first_ok = len(relaxed) >= 2 and relaxed[0]["frontier"] == ["main"]
    second_ok = len(relaxed) >= 2 and relaxed[1]["frontier"] in (
        ["begin-left", "finish-left"],
        ["start-right", "mid-right", "finish-right"],
    )
    plan_ok = (res.status == "solved"
               and res.stats.plan_length == 3
               and verify(p, res.tree) == [])
    report(11, "three-round trace: bare root, then one branch frontier, "
               "then a 3-action plan", first_ok and second_ok and plan_ok)
