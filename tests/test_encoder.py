import random

import pytest

from htnsat.encoder import Encoder
from htnsat.hddl import parse_ground
from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, METHOD, TaskRef
from htnsat.pdt import Pdt
from htnsat.sat import AmoConfig, parse_dimacs, dump_dimacs

from oracles import relaxed_plan_realizable, solvable_by_enumeration

TOYS = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
        "unsolvable", "empty_goal", "empty_method"]


def setup(problem, **kw):
    prof = compute_profiles(problem)
    pdt = Pdt(problem, prof)
    return prof, pdt, Encoder(problem, prof, pdt, **kw)


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
        assert cand.plan is None

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
        cand = enc.solve_solution()
        assert cand is not None and cand.plan == []

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
        cand = enc.solve_solution()
        assert cand is not None and len(cand.plan) == 3

    def test_taxi_solves_with_a_two_step_plan(self, ground):
        p = ground("taxi")
        _, pdt, enc = setup(p)
        while grow(pdt, enc):
            pass
        cand = enc.solve_solution()
        assert cand is not None
        assert len(cand.plan) == 2
        assert [p.actions[a].name for a in cand.plan][1].startswith("call")

    def test_recursive_tower_solves_under_blocking(self, ground):
        p = ground("tower")
        _, pdt, enc = setup(p)
        while grow(pdt, enc):
            pass
        cand = enc.solve_solution()
        assert cand is not None
        assert [p.actions[a].name for a in cand.plan] == ["pop(2,1)"]

    def test_deep_chain_decodes_and_renders(self):
        # t0 -> t1 -> ... -> fin: one layer per task, far past Python's
        # recursion limit, so decoding and the DOT marking must not recurse.
        n = 1200
        lines = ["problem chain", "fact done", "action fin add done"]
        lines += [f"task t{i}" for i in range(n)]
        lines += [f"method m{i} t{i} -> t{i + 1}" for i in range(n - 1)]
        lines += [f"method m{n - 1} t{n - 1} -> fin", "goal done", "root t0"]
        p = parse_ground("\n".join(lines) + "\n")
        prof = compute_profiles(p)
        pdt = Pdt(p, prof)
        while pending := [q for q in pdt.pending_positions()
                          if pdt.expandable(q)]:
            pdt.expand(pending)
        assert len(pdt.layers) == n + 1
        cand = Encoder(p, prof, pdt).solve_solution()
        assert cand is not None and cand.plan == [0]
        tree = cand.tree
        assert len(tree.nodes) == 2 * n + 1
        # depth-first node order: task i, its method, then task i + 1
        assert [(nd.kind, nd.ref) for nd in tree.nodes[:4]] == [
            (ABSTRACT, 0), (METHOD, 0), (ABSTRACT, 1), (METHOD, 1)]
        assert pdt.to_dot(tree).count("fillcolor") == 2 * n + 1

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
        cand = enc.solve_solution()
        assert cand is not None
        # every method id occurs at a single site in this domain, so the
        # tree's method choices map straight onto selector variables
        picked = {n.ref for n in cand.tree.nodes if n.kind == "method"}
        chosen_vars = [var for (_, mid), var in sorted(enc.mvar.items())
                       if mid in picked]
        assert len(chosen_vars) == len(picked)
        replay = enc.sess.solve([enc.queries[-1][0]] + chosen_vars)
        assert replay is not None

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
        assert (got and got.plan) == (want and want.plan)


class TestSchemesAndDumps:
    @pytest.mark.parametrize("scheme", ["pairwise", "binary",
                                        "bimander-half", "bimander-sqrt"])
    def test_all_amo_schemes_reach_the_same_plan(self, ground, scheme):
        p = ground("taxi")
        _, pdt, enc = setup(p, amo=AmoConfig(scheme))
        while grow(pdt, enc):
            pass
        cand = enc.solve_solution()
        assert cand is not None and len(cand.plan) == 2

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
