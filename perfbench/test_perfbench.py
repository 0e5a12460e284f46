"""Tests of the benchmark itself: generators, checkers, printed names and
the repeatability of its exact counts. They run on tiny instances.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "walker": {"sizes": [(4, 2), (5, 1)]},
    "wide": {"sizes": [(4, 2)]},
    "cnf": {"planted": (20, 3), "php": (3, 1)},
}


@pytest.fixture(scope="module")
def api():
    return run.load_program(fresh=False)


def _texts(instances):
    return [inst.dimacs if isinstance(inst, workloads.CnfInstance)
            else (inst.ground_text, inst.domain_text, inst.problem_text)
            for inst in instances]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_repeat_for_a_seed_and_vary_across_seeds(workload):
    first = _texts(workloads.build(workload, 7))
    assert first == _texts(workloads.build(workload, 7))
    assert first != _texts(workloads.build(workload, 8))


def _solved_walker(api):
    inst = workloads.build("walker", 3, TINY["walker"])[0]
    problem = api.ground(*api.parse(inst.domain_text, inst.problem_text))
    result = api.plan(problem, api.PlannerConfig(mode="greedy", timeout=60))
    return problem, result


def test_plan_checker_accepts_the_planner_output(api):
    problem, result = _solved_walker(api)
    assert checks.plan_faults(api, problem, result, NullTracer()) == []


def test_plan_checker_rejects_a_corrupted_plan(api):
    problem, result = _solved_walker(api)
    tree = result.tree
    leaf = next(n for n in tree.nodes if n.kind == "action")
    other = next(a.id for a in problem.actions if a.id != leaf.ref)
    leaf.ref = other
    assert checks.plan_faults(api, problem, result, NullTracer())
    assert checks.plan_faults(api, problem, replace(result, status="timeout"),
                              NullTracer())


def test_roundtrip_checker_rejects_a_corrupted_plan_file(api):
    problem, result = _solved_walker(api)

    def swap_first_two_actions(p, text):
        # "0 (a ...)" and "1 (b ...)" become "0 (b ...)" and "1 (a ...)"
        lines = text.splitlines()
        (i, a), (j, b) = (ln.split(" ", 1) for ln in lines[1:3])
        assert a != b
        lines[1:3] = [f"{i} {b}", f"{j} {a}"]
        return api.parse_plan(p, "\n".join(lines))

    broken = SimpleNamespace(**{**vars(api), "parse_plan": swap_first_two_actions})
    assert checks.roundtrip_faults(api, problem, result.tree) == []
    assert checks.roundtrip_faults(broken, problem, result.tree)


def test_model_checker_rejects_a_corrupted_model(api):
    text = workloads.planted_3sat(20, "t")
    clauses = checks.read_dimacs(text)
    sess = api.SatSession()
    api.load_into_session(text, sess)
    model = sess.solve()
    assert checks.model_faults(clauses, model) == []
    assert checks.verdict_faults(True, model) == []
    flips = []
    for v in range(1, len(model)):
        bad = list(model)
        bad[v] = not bad[v]
        flips.append(checks.model_faults(clauses, bad))
    assert any(flips)
    assert checks.model_faults(clauses, model[:5])
    assert checks.verdict_faults(True, None)
    assert checks.verdict_faults(False, model)


def test_pigeonhole_is_unsatisfiable(api):
    sess = api.SatSession()
    api.load_into_session(workloads.pigeonhole(3, "t"), sess)
    assert checks.verdict_faults(False, sess.solve()) == []


def test_a_bad_instance_fails_alone_and_the_pass_goes_on(api):
    good = workloads.CnfInstance("good", workloads.planted_3sat(20, "g"), True)
    wrong = replace(good, name="wrong", satisfiable=False)
    broken = workloads.CnfInstance("broken", "p cnf 2 1\n1 x 0\n", True)
    res = run.run_pass(api, [broken, wrong, good], NullTracer(), float("inf"))
    assert (len(res.verdicts), res.failed) == (3, 2)
    late = run.run_pass(api, [good], NullTracer(), float("-inf"))
    assert (len(late.verdicts), late.failed) == (1, 1)


def _measure(workload, trace):
    return run.measure(workload, 5, 0, trace, spec=TINY[workload], fresh=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_names_match_the_benchmark_file(workload):
    for trace, key, table in ((False, "end_to_end", run.END_TO_END),
                              (True, "per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        result = _measure(workload, trace)
        assert result.failed == 0 and result.attempted > 0
        assert set(result.metrics) == set(declared)
        assert table == declared


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload):
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    first = _measure(workload, True).metrics
    second = _measure(workload, True).metrics
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if workload != "cnf":
        assert first["planner.plan_len"] > 0
        assert first["encoder.clauses_built"] > 0
    else:
        assert first["sat.conflicts"] > 0
