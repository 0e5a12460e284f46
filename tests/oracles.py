"""Independent oracles the test suite checks the real implementations against.

Everything here is deliberately naive: truth tables for SAT, exhaustive
model enumeration for cardinality constraints, full decomposition-tree
enumeration and breadth-first state search for the planner, and
instantiation of every typed binding for the grounder. None of it
imports from the modules under test beyond plain data types, except the
grounding oracle, which shares the grounder's assembly and pruning and
replaces only how candidates are enumerated, and the decision-order
check, which watches a live SatSession from inside.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from htnsat.hddl.grounder import (
    DEFAULT_CAP,
    GroundingError,
    _GAction,
    _GMethod,
    _Grounder,
    _subst,
)
from htnsat.model import ABSTRACT, ACTION, Problem, TaskRef, join_name
from htnsat.sat import SatSession

_col_cache: dict[int, list[np.ndarray]] = {}


def _columns(nvars: int) -> list[np.ndarray]:
    """Column i holds the truth value of var i+1 across all 2^n assignments."""
    if nvars not in _col_cache:
        idx = np.arange(1 << nvars, dtype=np.uint32)
        _col_cache[nvars] = [(idx >> i & 1).astype(bool) for i in range(nvars)]
    return _col_cache[nvars]


def truth_table(nvars: int, clauses: list[list[int]]) -> np.ndarray:
    """Which of the 2^nvars assignments satisfy every clause."""
    cols = _columns(nvars)
    ok = np.ones(1 << nvars, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << nvars, dtype=bool)
        for lit in clause:
            col = cols[abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        ok &= sat
    return ok


def truth_table_sat(nvars: int, clauses: list[list[int]]) -> bool:
    """Brute-force satisfiability over all 2^nvars assignments."""
    return bool(truth_table(nvars, clauses).any())


def truth_table_models(nvars: int, clauses: list[list[int]]) -> set[tuple[bool, ...]]:
    """All satisfying assignments, as tuples over vars 1..nvars."""
    out = set()
    for bits in product([False, True], repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            out.add(bits)
    return out


def enumerate_session_models(sess, project_vars):
    """Enumerate models of a live SatSession projected onto project_vars,
    using blocking clauses. Mutates the session; use a throwaway one."""
    seen = set()
    while True:
        model = sess.solve()
        if model is None:
            return seen
        proj = tuple(model[v] for v in project_vars)
        assert proj not in seen, "blocking clause failed to block"
        seen.add(proj)
        sess.add_clause([(-v if model[v] else v) for v in project_vars])


class DecisionCheckingSession(SatSession):
    """A SatSession that checks each branching decision against a scan of
    every variable: the decided variable must have had the highest
    (activity, -index) of the variables free before it, whether the
    session took it from its heap of bumped variables or from its scan
    over those of activity 0. It counts the decisions checked, and
    records by how much the decision heap ever outgrew twice the number
    of variables."""

    def __init__(self):
        super().__init__()
        self.n_assumptions = 0
        self.checked = 0
        self.order_excess = -1

    def solve(self, assumptions=(), deadline=None):
        self.n_assumptions = len(assumptions)
        return super().solve(assumptions, deadline)

    def _propagate(self):
        trail, lim = self.trail, self.trail_lim
        # a branch decision opens a level above the assumption levels, and
        # is the one literal on it, still unpropagated and without a reason
        if (len(lim) > self.n_assumptions and lim[-1] == self.qhead == len(trail) - 1
                and self.reason[abs(trail[-1])] is None):
            v = abs(trail[-1])
            act, assign = self.act, self.assign
            best = max((u for u in range(1, self.num_vars + 1)
                        if u == v or assign[u] == 0),
                       key=lambda u: (act[u], -u))
            assert best == v, f"decided {v} at activity {act[v]}, " \
                f"but {best} was free at activity {act[best]}"
            self.checked += 1
        self.order_excess = max(self.order_excess, len(self.order) - 2 * self.num_vars)
        return super()._propagate()


# -- HTN oracles -------------------------------------------------------------


def enumerate_plans(p: Problem, cap: int = 10_000) -> list[tuple[int, ...]]:
    """Every primitive plan derivable from the root task, via exhaustive
    decomposition. Only terminates on problems whose ground task graph is
    acyclic; asserts the count cap instead of truncating."""
    memo: dict[int, list[tuple[int, ...]]] = {}

    def refine(t: int) -> list[tuple[int, ...]]:
        if t in memo:
            return memo[t]
        memo[t] = out = []
        for mid in p.abstracts[t].methods:
            for seq in expand_list(p.methods[mid].subtasks):
                out.append(seq)
                assert len(out) <= cap, "oracle cap exceeded"
        return out

    def expand_list(refs: list[TaskRef]) -> list[tuple[int, ...]]:
        seqs: list[tuple[int, ...]] = [()]
        for ref in refs:
            parts = [(ref.id,)] if ref.is_action() else refine(ref.id)
            seqs = [a + b for a in seqs for b in parts]
            assert len(seqs) <= cap, "oracle cap exceeded"
        return seqs

    plans = refine(p.root)
    # dedupe while keeping order stable
    seen, out = set(), []
    for pl in plans:
        if pl not in seen:
            seen.add(pl)
            out.append(pl)
    return out


def solvable_by_enumeration(p: Problem, cap: int = 10_000) -> bool:
    for plan in enumerate_plans(p, cap):
        s = p.apply_seq(p.init, plan)
        if s is not None and p.is_goal(s):
            return True
    return False


def best_plan_by_enumeration(p: Problem, cap: int = 10_000):
    best = None
    for plan in enumerate_plans(p, cap):
        s = p.apply_seq(p.init, plan)
        if s is not None and p.is_goal(s):
            if best is None or len(plan) < len(best):
                best = plan
    return best


def refinements_of_task(p: Problem, t: int, cap: int = 10_000) -> list[tuple[int, ...]]:
    """All primitive plans a single abstract task can refine to."""
    sub = Problem(
        name=p.name + "-sub",
        facts=p.facts,
        actions=p.actions,
        abstracts=p.abstracts,
        methods=p.methods,
        root=t,
        init=p.init,
        goal=0,
    )
    return enumerate_plans(sub, cap)


def plans_to_depth(p: Problem, ref: TaskRef, depth: int) -> set[tuple[int, ...]]:
    """Complete primitive refinements of ref reachable within the given
    decomposition depth. A subset of all refinements (recursion-safe),
    which is all the soundness checks need."""
    if ref.is_action():
        return {(ref.id,)}
    if depth == 0:
        return set()
    out: set[tuple[int, ...]] = set()
    for mid in p.abstracts[ref.id].methods:
        parts = [plans_to_depth(p, s, depth - 1) for s in p.methods[mid].subtasks]
        combos = [()]
        for part in parts:
            combos = [a + b for a in combos for b in part]
        out.update(combos)
    return out


def enumerate_dts(p: Problem, ref: TaskRef, depth: int, cap: int = 10_000):
    """Every decomposition-tree shape for ref with nesting at most `depth`,
    including shapes left undeveloped early. Actions are ("act", id);
    abstract nodes are ("abs", id, None) when undeveloped and
    ("abs", id, (mid, [children])) when refined."""
    if ref.is_action():
        return [("act", ref.id)]
    out = [("abs", ref.id, None)]
    if depth == 0:
        return out
    for mid in p.abstracts[ref.id].methods:
        kids_per_slot = [enumerate_dts(p, s, depth - 1, cap)
                         for s in p.methods[mid].subtasks]
        combos = [[]]
        for pool in kids_per_slot:
            combos = [c + [k] for c in combos for k in pool]
            assert len(combos) <= cap, "oracle cap exceeded"
        out.extend(("abs", ref.id, (mid, kids)) for kids in combos)
    assert len(out) <= cap, "oracle cap exceeded"
    return out


def count_dts(p: Problem) -> int:
    """Number of fully primitive decomposition trees of the root task.
    Only meaningful for acyclic task graphs."""
    memo: dict[int, int] = {}

    def count(ref: TaskRef) -> int:
        if ref.is_action():
            return 1
        if ref.id not in memo:
            total = 0
            for mid in p.abstracts[ref.id].methods:
                prod = 1
                for sub in p.methods[mid].subtasks:
                    prod *= count(sub)
                total += prod
            memo[ref.id] = total
        return memo[ref.id]

    return count(TaskRef(ABSTRACT, p.root))


def reachable_states(p: Problem, cap: int = 100_000) -> set[int]:
    """Breadth-first closure of s_I under all applicable actions."""
    seen = {p.init}
    frontier = [p.init]
    while frontier:
        nxt = []
        for s in frontier:
            for a in p.actions:
                s2 = p.apply(s, a.id)
                if s2 is not None and s2 not in seen:
                    assert len(seen) < cap, "state cap exceeded"
                    seen.add(s2)
                    nxt.append(s2)
        frontier = nxt
    return seen


def relaxed_plan_realizable(
    p: Problem,
    frontier: list[TaskRef],
    profiles,
    mutex_groups,
    subset_cap: int = 4096,
) -> bool:
    """Can a frontier with abstract placeholders reach the goal when each
    placeholder applies its mandatory preconditions and then any subsets of
    its possible add/delete facts? Mutex groups must hold at every visited
    state. Brute force over effect subsets."""

    group_masks = [sum(1 << f for f in g) for g in mutex_groups]

    def mutex_ok(s: int) -> bool:
        return all(bin(s & gm).count("1") <= 1 for gm in group_masks)

    def step(states: set[int], ref: TaskRef) -> set[int]:
        out = set()
        for s in states:
            if ref.is_action():
                s2 = p.apply(s, ref.id)
                if s2 is not None and mutex_ok(s2):
                    out.add(s2)
                continue
            mand = profiles.mand_pre[ref.id]
            if s & mand != mand:
                continue
            pos, neg = profiles.poss_eff_pos[ref.id], profiles.poss_eff_neg[ref.id]
            adds = [f for f in range(len(p.facts)) if pos >> f & 1]
            dels = [f for f in range(len(p.facts)) if neg >> f & 1]
            assert (1 << len(adds)) * (1 << len(dels)) <= subset_cap, "subset cap"
            for abits in range(1 << len(adds)):
                amask = sum(1 << adds[i] for i in range(len(adds)) if abits >> i & 1)
                for dbits in range(1 << len(dels)):
                    dmask = sum(1 << dels[i] for i in range(len(dels)) if dbits >> i & 1)
                    s2 = (s & ~dmask) | amask
                    if mutex_ok(s2):
                        out.add(s2)
        return out

    states = {p.init} if mutex_ok(p.init) else set()
    for ref in frontier:
        states = step(states, ref)
        if not states:
            return False
    return any(p.is_goal(s) for s in states)


def task_successors(p: Problem) -> list[set[int]]:
    """Per abstract task, the abstract tasks its methods name."""
    succ: list[set[int]] = [set() for _ in p.abstracts]
    for m in p.methods:
        succ[m.task] |= {i for kind, i in m.subtasks if kind == ABSTRACT}
    return succ


def reaches_itself(p: Problem) -> list[bool]:
    """Per abstract task, whether a path of one or more subtask edges
    leads from it back to it, by a plain search from every task."""
    succ = task_successors(p)
    out = []
    for t in range(len(p.abstracts)):
        seen, todo = set(), list(succ[t])
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(succ[u])
        out.append(t in seen)
    return out


def profiles_by_fixpoint(p: Problem) -> dict[str, list]:
    """Each per-task property of inference.Profiles computed alone, by
    plain iteration in id order until a whole pass changes nothing, with
    no component order. A task is recursive when it reaches itself
    through subtask edges."""
    n, full = len(p.abstracts), (1 << len(p.facts)) - 1
    recursive = reaches_itself(p)

    reached, applicable, changed = p.init, set(), True
    while changed:
        changed = False
        for a in p.actions:
            if a.id not in applicable and a.precond & ~reached == 0:
                applicable.add(a.id)
                reached |= a.eff_pos
                changed = True

    productive, changed = [False] * n, True
    while changed:
        changed = False
        for t in range(n):
            ok = any(all(i in applicable if kind == ACTION else productive[i]
                         for kind, i in p.methods[mid].subtasks)
                     for mid in p.abstracts[t].methods)
            if ok and not productive[t]:
                productive[t] = changed = True

    pos, neg, changed = [0] * n, [0] * n, True
    while changed:
        changed = False
        for m in p.methods:
            for kind, i in m.subtasks:
                if kind == ACTION:
                    add, dele = p.actions[i].eff_pos, p.actions[i].eff_neg
                else:
                    add, dele = pos[i], neg[i]
                if add & ~pos[m.task] or dele & ~neg[m.task]:
                    pos[m.task] |= add
                    neg[m.task] |= dele
                    changed = True

    mand, changed = [full] * n, True
    while changed:
        changed = False
        for t in range(n):
            acc = full
            for mid in p.abstracts[t].methods:
                subs = p.methods[mid].subtasks
                if not subs:
                    acc = 0
                elif subs[0][0] == ACTION:
                    acc &= p.actions[subs[0][1]].precond
                else:
                    acc &= mand[subs[0][1]]
            if acc != mand[t]:
                mand[t], changed = acc, True

    return {"mand_pre": mand, "poss_eff_pos": pos, "poss_eff_neg": neg,
            "recursive": recursive, "productive": productive}


def relaxed_leaves_by_tree_walk(enc, model):
    """Reference read of a relaxed model: walk the decomposition tree it
    selects from the root, through each chosen method's subtask slots,
    and return the tree's leaves in order and the grid positions of its
    undeveloped abstract leaves. Takes the encoder's variable maps and
    grid as given and checks that each visited position selects exactly
    one non-blank op and each developed task exactly one method. An
    action or method without a selector, one the encoder ruled out,
    counts as unselected."""
    frontier: list[TaskRef] = []
    targets = []
    stack = [enc.pdt.root]
    while stack:
        pos = stack.pop()
        ops = enc.ops[pos]
        hits = [TaskRef(ACTION, a) for a in pos.acts
                if model[ops.get(TaskRef(ACTION, a), 0)]]
        hits += [TaskRef(ABSTRACT, t) for t in pos.tasks
                 if model[ops[TaskRef(ABSTRACT, t)]]]
        blank = pos.has_blank and model[ops[None]]
        assert len(hits) == 1 and not blank, f"bad selection on layer {pos.layer}"
        ref = hits[0]
        if ref.is_action() or not pos.children:
            frontier.append(ref)
            if not ref.is_action():
                targets.append(pos)
            continue
        chosen = [m for m in enc.p.abstracts[ref.id].methods
                  if model[enc.mvar[pos].get(m, 0)]]
        assert len(chosen) == 1, f"{len(chosen)} methods on layer {pos.layer}"
        width = len(enc.p.methods[chosen[0]].subtasks)
        stack.extend(pos.children[i] for i in reversed(range(width)))
    return frontier, targets


# -- grounding oracle ----------------------------------------------------------


class _EnumeratingGrounder(_Grounder):
    """Instantiate first, prune afterwards: every typed binding of every
    action, task and method, with only types and equalities checked, no
    static precondition tested while binding and no regard for what the
    root reaches. The shared pruning fixpoint then has to drop the rest."""

    def _every_binding(self, params):
        pools = [self.types.objs(ty) for _, ty in params]
        names = [v for v, _ in params]
        for combo in product(*pools):
            self.budget.spend()
            yield dict(zip(names, combo))

    def _instantiate(self) -> str:
        for lifted in self.dom.actions:
            for binding in self._every_binding(lifted.params):
                inst = self._one_action(lifted, binding)
                if inst is not None:
                    self.gactions[inst.name] = inst
        for lifted in self.dom.tasks:
            for binding in self._every_binding(lifted.params):
                args = tuple(binding[v] for v, _ in lifted.params)
                self.gtasks.add(join_name(lifted.name, args))
        for lifted in self.dom.methods:
            for binding in self._every_binding(lifted.params):
                self._enumerated_method(lifted, binding)
        return self._enumerated_root()

    def _enumerated_method(self, lifted, binding) -> None:
        guard_pre = self._compile_precond(lifted.precond, binding)
        if guard_pre is None:
            return
        tinst = join_name(lifted.task[0], _subst(lifted.task[1], binding))
        if tinst not in self.gtasks:
            return
        subs = []
        for sname, sargs in lifted.subtasks:
            sinst = join_name(sname, _subst(sargs, binding))
            kind = ABSTRACT if sname in self.task_sig else ACTION
            if sinst not in (self.gtasks if kind == ABSTRACT else self.gactions):
                return
            subs.append((kind, sinst))
        mname = join_name(lifted.name, tuple(binding[v] for v, _ in lifted.params))
        if guard_pre:
            gname = f"guard-{mname}"
            if gname in self.gactions:
                raise GroundingError(f"action name {gname} collides with a "
                                     f"compiled method guard")
            self.gactions[gname] = _GAction(gname, guard_pre)
            subs.insert(0, (ACTION, gname))
        self.gmethods[mname] = _GMethod(mname, tinst, subs)

    def _enumerated_root(self) -> str:
        refs = []
        for name, args in self.prob.top_tasks:
            inst = join_name(name, args)
            if name in self.task_sig:
                if inst not in self.gtasks:
                    raise GroundingError(f"initial task {inst} is not a "
                                         f"type-consistent instance")
                refs.append((ABSTRACT, inst))
            else:
                if inst not in self.gactions:
                    raise GroundingError(f"initial task {inst} is not an "
                                         f"instantiable action")
                refs.append((ACTION, inst))
        if len(refs) == 1 and refs[0][0] == ABSTRACT:
            return refs[0][1]
        top = "__top__"
        while top in self.gtasks:
            top += "_"
        self.gtasks.add(top)
        self.gmethods[top + "-method"] = _GMethod(top + "-method", top, refs)
        return top


def ground_by_enumeration(dom, prob, cap: int = DEFAULT_CAP) -> Problem:
    """The ground problem as instantiating every typed binding and then
    pruning gives it; the reachability grounder must give the same."""
    return _EnumeratingGrounder(dom, prob, cap, None).build()
