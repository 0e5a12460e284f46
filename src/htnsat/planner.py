"""Search loop: alternate strict and relaxed queries over a growing grid.

Each round first asks for a finished plan. Failing that, the greedy mode
asks the relaxed query which unexpanded tasks a consistent state
trajectory would actually use, and develops exactly those; a breadth
first mode develops everything instead. When nothing is expandable and
no plan exists while the recursion blocker holds positions back, the
nesting limit doubles, which releases every held position, and the
round goes on to pick its targets over the same grid and clause store.
A recursion of depth d therefore needs about log2(d) reinsertions; with
nothing held back the problem is genuinely unsolvable. So is a problem
whose root task is not productive (inference.compute_profiles), and
that one ends before round 1. So is a run whose relaxed query is UNSAT:
that query poses no assumption, so the clause store itself is UNSAT,
and the store only grows, so no later strict query can be satisfied.
Greedy mode poses the relaxed query every round; breadth first mode
poses it only at such a fixpoint, before it doubles the limit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .encoder import Encoder
from .inference import Profiles, compute_profiles
from .model import ABSTRACT, ACTION, DecompositionTree, METHOD, Method, Problem, TaskRef, bits
from .pdt import Pdt
from .sat import DEFAULT_SCHEME, SCHEMES, SolverTimeout, dump_dimacs

GREEDY = "greedy"
BFS = "bfs"


@dataclass(frozen=True)
class PlannerConfig:
    mode: str = GREEDY
    amo_scheme: str = DEFAULT_SCHEME
    use_mutex: bool = True
    mandatory_preconds: bool = True
    timeout: float = 600.0
    dump_cnf: str | None = None

    def __post_init__(self):
        if self.mode not in (GREEDY, BFS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.amo_scheme not in SCHEMES:
            raise ValueError(f"unknown AMO scheme {self.amo_scheme!r}")


@dataclass
class RunStats:
    mode: str
    rounds: int = 0
    reinsertions: int = 0
    methods_developed: int = 0
    plan_length: int | None = None
    wall_time: float = 0.0
    grounding_time: float = 0.0
    queries: list[dict] = field(default_factory=list)
    events: list[str] = field(default_factory=list)


@dataclass
class PlanResult:
    status: str  # "solved", "unsolvable" or "timeout"
    tree: DecompositionTree | None
    stats: RunStats
    pdt: Pdt | None = None  # final search grid, kept for dot dumps

    @property
    def plan(self) -> list[int] | None:
        return self.tree.plan() if self.tree is not None else None


def profiles_of(problem: Problem) -> Profiles:
    """The problem's profiles, inferred on first use and kept on the
    problem, so that every plan() call on it and --dump-profiles share
    one inference."""
    if problem.profiles is None:
        problem.profiles = compute_profiles(problem)
    return problem.profiles


def plan(problem: Problem, config: PlannerConfig = PlannerConfig()) -> PlanResult:
    start = time.monotonic()
    deadline = start + config.timeout
    stats = RunStats(mode=config.mode)
    profiles = profiles_of(problem)
    pdt = Pdt(problem, profiles)
    enc: Encoder | None = None  # built once, in round 1, inside the budget

    def finish(status: str, tree=None) -> PlanResult:
        stats.methods_developed = pdt.methods_developed
        stats.wall_time = time.monotonic() - start
        if tree is not None:
            stats.plan_length = len(tree.plan() or [])
        return PlanResult(status=status, tree=tree, stats=stats, pdt=pdt)

    def store_unsat() -> PlanResult:
        # the relaxed query poses no assumption: the store itself is UNSAT
        stats.events.append(
            f"relaxed query unsatisfiable at round {stats.rounds}: "
            f"the clause store admits no plan")
        return finish("unsolvable")

    def query(kind: str, solver, frontier):  # frontier: answer -> leaf refs
        nonlocal where
        where = f"in the {kind} query of"
        t0 = time.monotonic()
        before = enc.sess.stats()
        ans = solver(deadline=deadline)
        after = enc.sess.stats()
        entry = {
            "round": stats.rounds,
            "kind": kind,
            "verdict": "sat" if ans is not None else "unsat",
            "time": time.monotonic() - t0,
            "vars": enc.sess.num_vars,
            "clauses": enc.sess.num_clauses,
        }
        for k in ("conflicts", "decisions", "propagations"):
            entry[k] = after[k] - before[k]
        if ans is not None:
            entry["frontier"] = [problem.ref_name(r) for r in frontier(ans)]
        stats.queries.append(entry)
        return ans

    if not profiles.productive[problem.root]:
        stats.events.append(
            f"root task {problem.abstracts[problem.root].name} is not "
            f"productive: no refinement has only actions applicable under "
            f"delete relaxation")
        return finish("unsolvable")

    while True:
        if time.monotonic() >= deadline:
            stats.events.append(
                f"budget exhausted before round {stats.rounds + 1}")
            return finish("timeout")
        stats.rounds += 1
        where = "while encoding"  # the phase a SolverTimeout interrupts
        try:
            if enc is None:
                enc = Encoder(problem, profiles, pdt, amo=config.amo_scheme,
                              use_mutex=config.use_mutex,
                              mandatory_preconds=config.mandatory_preconds,
                              deadline=deadline)
            tree = query("solution", enc.solve_solution,
                         lambda t: [TaskRef(ACTION, a) for a in t.plan()])
            if tree is not None:
                stats.events.append(f"solved at round {stats.rounds}")
                return finish("solved", tree)

            expandable = [q for q in pdt.pending_positions() if pdt.expandable(q)]
            if not expandable:
                blocked = pdt.blocked_pairs()
                if not blocked:
                    stats.events.append("fixpoint without blocked methods")
                    return finish("unsolvable")
                # bfs poses the relaxed query only here, before a reinsertion
                if config.mode == BFS and query(
                        "relaxed", enc.solve_relaxed, lambda r: r.frontier) is None:
                    return store_unsat()
                limit = pdt.nesting_limit
                pdt.reinsert_blocked()
                stats.events.append(
                    f"fixpoint, reinserting {len(blocked)} blocked pairs, "
                    f"nesting limit {limit} -> {pdt.nesting_limit}")
                stats.reinsertions += 1
                # the store is unchanged, so its strict query is still UNSAT
                expandable = [q for q in pdt.pending_positions()
                              if pdt.expandable(q)]

            if config.mode == BFS:
                targets = expandable
            else:
                rel = query("relaxed", enc.solve_relaxed, lambda r: r.frontier)
                if rel is None:
                    return store_unsat()
                wanted = set(rel.targets)
                targets = [q for q in expandable if q in wanted]
                if not targets:
                    targets = expandable
            pdt.expand(targets)
            where = "while encoding"
            enc.sync(deadline)
            if config.dump_cnf:
                path = f"{config.dump_cnf}.round{stats.rounds}.cnf"
                with open(path, "w") as fh:
                    fh.write(dump_dimacs(enc.sess))
        except SolverTimeout:
            stats.events.append(f"budget exhausted {where} round {stats.rounds}")
            return finish("timeout")


def verify(problem: Problem, tree: DecompositionTree) -> list[str]:
    """Independent check that a decomposition tree is a well-formed, fully
    primitive, executable refinement of the initial task reaching the
    goal. Returns human-readable violations; empty means valid."""
    p = problem
    out: list[str] = []
    if not tree.nodes:
        return ["tree is empty"]
    if not 0 <= tree.root < len(tree.nodes):
        return [f"root index {tree.root} out of range"]
    root = tree.nodes[tree.root]
    if root.kind != ABSTRACT or root.ref != p.root:
        out.append("root node is not the initial task")

    seen: set[int] = set()
    # depth-first; an entry (nid, method, slot) first checks nid against
    # that slot of the method (None for the root). Siblings wait on the
    # stack, so each subtree is reported before the next slot.
    stack: list[tuple[int, Method | None, int]] = [(tree.root, None, 0)]
    while stack:
        nid, parent, slot = stack.pop()
        if parent is not None:
            ref = parent.subtasks[slot]
            if not 0 <= nid < len(tree.nodes):
                out.append(f"child index {nid} out of range")
                continue
            child = tree.nodes[nid]
            kind = ACTION if ref.is_action() else ABSTRACT
            if child.kind != kind or child.ref != ref.id:
                out.append(f"method {parent.name} child mismatch at slot {slot}")
                continue
        if nid in seen:
            out.append(f"node {nid} appears twice")
            continue
        seen.add(nid)
        node = tree.nodes[nid]
        if node.kind == ACTION:
            if node.children:
                out.append(f"action node {nid} has children")
            continue
        if node.kind == METHOD:
            out.append(f"method node {nid} reached outside an abstract node")
            continue
        if node.kind != ABSTRACT:
            out.append(f"node {nid} has unknown kind {node.kind!r}")
            continue
        if not node.children:
            out.append(f"abstract node {nid} ({p.abstracts[node.ref].name}) "
                       "is undeveloped")
            continue
        if len(node.children) != 1:
            out.append(f"abstract node {nid} has {len(node.children)} "
                       "method children")
            continue
        mid = node.children[0]
        if not 0 <= mid < len(tree.nodes):
            out.append(f"method index {mid} out of range")
            continue
        if mid in seen:
            out.append(f"node {mid} appears twice")
            continue
        seen.add(mid)
        m = tree.nodes[mid]
        if m.kind != METHOD:
            out.append(f"abstract node {nid} refines into a {m.kind} node")
            continue
        method = p.methods[m.ref]
        if method.task != node.ref:
            out.append(f"method {method.name} does not refine task "
                       f"{p.abstracts[node.ref].name}")
        if len(m.children) != len(method.subtasks):
            out.append(f"method {method.name} has {len(m.children)} children, "
                       f"expected {len(method.subtasks)}")
            continue
        stack.extend((kid, method, slot)
                     for slot, kid in reversed(list(enumerate(m.children))))

    if out:
        return out
    state = p.init
    for i, aid in enumerate(tree.plan() or []):
        nxt = p.apply(state, aid)
        if nxt is None:
            out.append(f"step {i} ({p.actions[aid].name}) is inapplicable")
            return out
        state = nxt
    if not p.is_goal(state):
        missing = [p.facts[f].name for f in bits(p.goal & ~state)]
        out.append("goal facts missing at the end: " + ", ".join(missing))
    return out
