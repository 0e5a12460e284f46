"""Independent checks of every output the benchmark receives.

A checker returns a list of human-readable faults; an empty list means
the output is correct. None of them trusts the code under test: plans
are re-validated and round-tripped through the plan file format, and
models are evaluated clause by clause against the generated text, which
is parsed here rather than by the solver's own DIMACS reader.
"""
from __future__ import annotations


def plan_faults(api, problem, result, tracer) -> list[str]:
    """Faults of a planner result that claims a solved instance."""
    if result.status != "solved":
        return [f"status {result.status}, expected solved"]
    tree = result.tree
    with tracer.span("planner.verify"):
        faults = list(api.verify(problem, tree))
    with tracer.span("cli.plan_roundtrip"):
        faults += roundtrip_faults(api, problem, tree)
    return faults


def roundtrip_faults(api, problem, tree) -> list[str]:
    """Write the plan file, read it back, and compare."""
    text = api.write_plan(problem, tree)
    try:
        back = api.parse_plan(problem, text)
    except api.PlanFormatError as e:
        return [f"plan file does not parse back: {e}"]
    if back.plan() != tree.plan():
        return ["plan file changes the action sequence"]
    if api.write_plan(problem, back) != text:
        return ["plan file changes the decomposition"]
    return []


def read_dimacs(text: str) -> list[list[int]]:
    """Clauses of a DIMACS text, one list of literals per clause."""
    clauses: list[list[int]] = []
    for line in text.splitlines():
        if not line or line[0] in "cp":
            continue
        lits = [int(tok) for tok in line.split()]
        if lits[-1] != 0 or 0 in lits[:-1]:
            raise ValueError(f"expected one clause per line: {line!r}")
        clauses.append(lits[:-1])
    return clauses


def model_faults(clauses: list[list[int]], model) -> list[str]:
    """Clauses that the model (a list of bools indexed by variable)
    leaves false, or variables it does not assign."""
    faults = []
    for i, clause in enumerate(clauses):
        for lit in clause:
            v = abs(lit)
            if v >= len(model):
                faults.append(f"clause {i}: variable {v} unassigned")
                break
            if model[v] == (lit > 0):
                break
        else:
            faults.append(f"clause {i} is false: {clause}")
        if len(faults) >= 5:
            break
    return faults


def verdict_faults(expected_sat: bool, model) -> list[str]:
    if expected_sat and model is None:
        return ["solver says unsatisfiable, formula is satisfiable"]
    if not expected_sat and model is not None:
        return ["solver found a model, formula is unsatisfiable"]
    return []
