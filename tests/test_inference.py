"""Recursion flags, task profiles and mutex groups, checked against
brute-force refinement and reachability oracles."""
from __future__ import annotations

import random

import pytest

from htnsat.hddl import ground as ground_lifted, parse, parse_ground
from htnsat.inference import (
    _components,
    compute_mutex_groups,
    compute_profiles,
    dump_profiles,
)
from htnsat.model import ABSTRACT, TaskRef, bits, mask

from conftest import FIXTURES
from domains import random_acyclic, random_recursive, wide_choice
from oracles import (
    plans_to_depth,
    profiles_by_fixpoint,
    reachable_states,
    refinements_of_task,
    solvable_by_enumeration,
)

TOYS = ["taxi", "tower", "mpre", "addonly"]


def task_id(p, name):
    return next(t.id for t in p.abstracts if t.name == name)


# -- recursion ---------------------------------------------------------------


def test_recursion_acyclic_taxi(ground):
    p = ground("taxi")
    assert compute_profiles(p).recursive == [False, False, False]


def test_recursion_self_loop():
    p = parse_ground("fact f\naction a add f\ntask t\nmethod m t -> a t\nroot t\n")
    assert compute_profiles(p).recursive == [True]


def test_recursion_two_cycle():
    p = parse_ground(
        "fact f\naction a add f\ntask t\ntask u\n"
        "method mt t -> a u\nmethod mu u -> t\nroot t\n")
    sccs, recursive = _components(p)
    assert recursive == compute_profiles(p).recursive == [True, True]
    assert [0, 1] in sccs


# -- possible effects --------------------------------------------------------


def test_poss_effects_single_action_method():
    p = parse_ground(
        "fact f\nfact g\naction a pre f add g del f\n"
        "task t\nmethod m t -> a\ninit f\ngoal g\nroot t\n")
    prof = compute_profiles(p)
    pos, neg = prof.poss_eff_pos, prof.poss_eff_neg
    assert bits(pos[0]) == [p.fact_id("g")]
    assert bits(neg[0]) == [p.fact_id("f")]


def test_poss_effects_taxi_reaches_both_booths(ground):
    p = ground("taxi")
    pos = compute_profiles(p).poss_eff_pos
    booths = mask([p.fact_id("at(p,s1)"), p.fact_id("at(p,s2)")])
    assert booths & ~pos[task_id(p, "calltaxi")] == 0


@pytest.mark.parametrize("name", TOYS)
def test_poss_effects_cover_enumerated_refinements(ground, name):
    p = ground(name)
    prof = compute_profiles(p)
    pos, neg = prof.poss_eff_pos, prof.poss_eff_neg
    for t in p.abstracts:
        for plan in plans_to_depth(p, TaskRef(ABSTRACT, t.id), 6):
            adds = dels = 0
            for aid in plan:
                adds |= p.actions[aid].eff_pos
                dels |= p.actions[aid].eff_neg
            assert adds & ~pos[t.id] == 0
            assert dels & ~neg[t.id] == 0


# -- mandatory preconditions -------------------------------------------------


def test_mand_pre_shapes(ground):
    p = ground("mpre")
    mand = compute_profiles(p).mand_pre
    f = p.fact_id("f")
    assert bits(mand[task_id(p, "t")]) == [f]  # both methods start with pre {f}
    assert bits(mand[task_id(p, "u")]) == [f]  # inherited through first subtask t
    assert mand[task_id(p, "v")] == 0  # empty method wipes it


@pytest.mark.parametrize("name", TOYS)
def test_mand_pre_blocks_execution(ground, name):
    p = ground(name)
    mand = compute_profiles(p).mand_pre
    states = reachable_states(p)
    for t in p.abstracts:
        need = mand[t.id]
        if not need:
            continue
        for s in states:
            if s & need == need:
                continue
            for plan in plans_to_depth(p, TaskRef(ABSTRACT, t.id), 6):
                assert p.apply_seq(s, plan) is None


# -- mutex groups ------------------------------------------------------------


def test_mutex_taxi_person_location(ground):
    p = ground("taxi")
    groups = compute_mutex_groups(p)
    ats = {p.fact_id(f"at(p,{s})") for s in ("s1", "s2", "s3")}
    assert any(ats <= set(g) for g in groups)


def test_mutex_add_only_domain(ground):
    assert compute_mutex_groups(ground("addonly")) == []


def _token_domain(seed):
    """nvar tokens moving over nval slots; some moves 'forget' their delete,
    breaking the balance for that token."""
    rng = random.Random(seed)
    nvar, nval = 3, 3
    lines = [f"problem rnd{seed}"]
    for i in range(nvar):
        for j in range(nval):
            lines.append(f"fact v{i}({j})")
    balanced = []
    for i in range(nvar):
        ok = True
        for j in range(nval):
            for k in range(nval):
                if j == k:
                    continue
                rec = f"action mv{i}({j},{k}) pre v{i}({j}) add v{i}({k})"
                if rng.random() < 0.25:
                    ok = False
                else:
                    rec += f" del v{i}({j})"
                lines.append(rec)
        balanced.append(ok)
    lines.append("task noop")
    lines.append("method mnoop noop ->")
    lines.append("init " + " ".join(f"v{i}(0)" for i in range(nvar)))
    lines.append("root noop")
    return parse_ground("\n".join(lines) + "\n"), balanced


@pytest.mark.parametrize("seed", range(10))
def test_mutex_groups_hold_in_reachable_states(seed):
    p, balanced = _token_domain(seed)
    groups = compute_mutex_groups(p)
    states = reachable_states(p)
    for g in groups:
        gm = sum(1 << f for f in g)
        assert all((s & gm).bit_count() <= 1 for s in states)
    for i, ok in enumerate(balanced):
        token = {p.fact_id(f"v{i}({j})") for j in range(3)}
        assert any(token <= set(g) for g in groups) == ok


# -- productivity --------------------------------------------------------------


def productive_names(p):
    prod = compute_profiles(p).productive
    return sorted(t.name for t in p.abstracts if prod[t.id])


def test_productive_needs_a_relaxed_applicable_refinement():
    p = parse_ground(
        "fact f\nfact g\nfact h\naction a pre f add g\naction b pre g\n"
        "action never pre h\n"
        "task top\ntask ok\ntask dead\ntask loop\ntask bare\n"
        "method m1 top -> dead\nmethod m2 top -> ok\n"
        "method m3 ok -> a b\nmethod m4 dead -> never\n"
        "method m5 loop -> loop\nmethod m6 loop -> a dead\n"
        "method m7 top -> bare\ninit f\nroot top\n")
    # b needs g, which a adds under delete relaxation; loop only recurses
    # or runs into dead, and bare has no method at all
    assert productive_names(p) == ["ok", "top"]


@pytest.mark.parametrize("name", sorted(
    p.stem for p in FIXTURES.glob("*.ground")))
def test_fixture_roots_are_productive(ground, name):
    p = ground(name)
    assert compute_profiles(p).productive[p.root]


@pytest.mark.parametrize("seed", range(40))
def test_solvable_roots_are_productive(seed):
    p = parse_ground(random_acyclic(seed))
    if solvable_by_enumeration(p):
        assert compute_profiles(p).productive[p.root]


# -- aggregate properties ----------------------------------------------------


@pytest.mark.parametrize("name,line", [
    ("taxi", "method widen go(s1) -> walk(s1,s3)"),
    ("tower", "method widen strip -> pop(1,0) pop(2,1) strip"),
])
def test_adding_method_monotone(name, line):
    text = (FIXTURES / f"{name}.ground").read_text()
    p0 = parse_ground(text)
    p1 = parse_ground(text + line + "\n")
    prof0, prof1 = compute_profiles(p0), compute_profiles(p1)
    for t in range(len(p0.abstracts)):
        assert prof0.poss_eff_pos[t] & ~prof1.poss_eff_pos[t] == 0
        assert prof0.poss_eff_neg[t] & ~prof1.poss_eff_neg[t] == 0
        assert prof1.mand_pre[t] & ~prof0.mand_pre[t] == 0


@pytest.mark.parametrize("name", ["taxi", "mpre"])
def test_profiles_admit_executable_refinements(ground, name):
    p = ground(name)
    prof = compute_profiles(p)
    states = reachable_states(p)
    for t in p.abstracts:
        mand, pos, neg = (prof.mand_pre[t.id], prof.poss_eff_pos[t.id],
                          prof.poss_eff_neg[t.id])
        for plan in refinements_of_task(p, t.id):
            for s in states:
                s2 = p.apply_seq(s, plan)
                if s2 is None:
                    continue
                assert s & mand == mand
                assert (s2 & ~s) & ~pos == 0
                assert (s & ~s2) & ~neg == 0


def test_profiles_deterministic(ground):
    assert compute_profiles(ground("taxi")) == compute_profiles(ground("taxi"))


def test_dump_profiles_lists_tasks_and_groups(ground):
    p = ground("taxi")
    prof = compute_profiles(p)
    text = dump_profiles(p, prof)
    for t in p.abstracts:
        assert f"task {t.name} " in text
    assert text.count("mutex:") == len(prof.mutex_groups) == 1


def _sweep_problems():
    for path in sorted(FIXTURES.glob("*.ground")):
        yield path.stem, parse_ground(path.read_text())
    yield "walker", ground_lifted(*parse(
        (FIXTURES / "walker.hddl").read_text(),
        (FIXTURES / "walker1.hddl").read_text()))
    for w in (4, 8, 16):
        yield f"wide{w}", parse_ground(wide_choice(w))
    for seed in range(300):
        yield f"acyclic{seed}", parse_ground(random_acyclic(seed))
        yield f"recursive{seed}", parse_ground(random_recursive(seed))


def test_profiles_equal_each_property_computed_alone():
    mismatches, seen = [], set()
    for name, p in _sweep_problems():
        prof = compute_profiles(p)
        for key, want in profiles_by_fixpoint(p).items():
            if getattr(prof, key) != want:
                mismatches.append((name, key))
        if any(prof.recursive):
            seen.add("recursive")
        if not all(prof.productive):
            seen.add("unproductive")
        if any(len(c) > 1 for c in _components(p)[0]):
            seen.add("cycle")
    assert mismatches == []
    # the problems cover every case the per-component turns must settle
    assert seen == {"recursive", "unproductive", "cycle"}
