"""Static analysis feeding the relaxed encoding.

When the search treats an undeveloped abstract task like an opaque
action, it needs an under-approximation of what every refinement
requires (mandatory preconditions), an over-approximation of what any
refinement could change (possible add and delete effects), recursion
flags for expansion control, and fact groups that can never hold two
members at once (to keep relaxed states from drifting into nonsense
like one object in two places). The planner also reads which tasks are
productive, to end a run whose root can never be refined into an
executable plan.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import ACTION, Problem, bits, mask, split_name


@dataclass
class RecursionInfo:
    recursive: list[bool]  # per abstract task id
    sccs: list[list[int]]  # reverse-topological order of the condensation


@dataclass
class TaskProfile:
    task: int
    mand_pre: int
    poss_eff_pos: int
    poss_eff_neg: int


@dataclass
class Profiles:
    """Per-abstract-task profiles plus mutex groups for one problem."""

    tasks: list[TaskProfile]
    mutex_groups: list[list[int]]
    recursion: RecursionInfo
    productive: list[bool]  # per abstract task id


def compute_recursion(p: Problem) -> RecursionInfo:
    """Tarjan over the task graph (t -> every abstract subtask of M(t)).

    A task is recursive iff it sits in a component of size two or more,
    or mentions itself in one of its own methods.
    """
    n = len(p.abstracts)
    # a dict per task is a seen-set that keeps first-occurrence order
    seen: list[dict[int, None]] = [{} for _ in range(n)]
    for m in p.methods:
        for kind, i in m.subtasks:
            if kind != ACTION:
                seen[m.task][i] = None
    succ = [list(s) for s in seen]

    idx = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for start in range(n):
        if idx[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            while i < len(succ[v]):
                w = succ[v][i]
                i += 1
                if idx[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], idx[w])
            if descended:
                continue
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])

    recursive = [False] * n
    for comp in sccs:
        if len(comp) > 1:
            for t in comp:
                recursive[t] = True
    for t in range(n):
        if t in seen[t]:  # one of its own methods mentions it
            recursive[t] = True
    return RecursionInfo(recursive, sccs)


def compute_poss_effects(p: Problem, rec: RecursionInfo) -> tuple[list[int], list[int]]:
    """Least fixpoint of: poss(t) = union over methods of the subtask
    possible effects, with actions contributing their literal effects.

    Components are processed inner-first (Tarjan emits them in reverse
    topological order), iterating each one locally until stable, so
    mutual recursion needs no special casing.
    """
    n = len(p.abstracts)
    pos = [0] * n
    neg = [0] * n

    def method_effects(m) -> tuple[int, int]:
        mp = mn = 0
        for kind, i in m.subtasks:
            if kind == ACTION:
                a = p.actions[i]
                mp |= a.eff_pos
                mn |= a.eff_neg
            else:
                mp |= pos[i]
                mn |= neg[i]
        return mp, mn

    for comp in rec.sccs:
        changed = True
        while changed:
            changed = False
            for t in comp:
                for mid in p.abstracts[t].methods:
                    mp, mn = method_effects(p.methods[mid])
                    if mp | pos[t] != pos[t] or mn | neg[t] != neg[t]:
                        pos[t] |= mp
                        neg[t] |= mn
                        changed = True
    return pos, neg


def compute_mandatory_preconditions(p: Problem, rec: RecursionInfo) -> list[int]:
    """Greatest fixpoint of: mand(t) = intersection over M(t) of the
    first subtask's mandatory precondition, where an empty method
    contributes the empty set (it promises an empty refinement, which
    runs anywhere).

    Everything starts at the full fact set and shrinks, so recursive
    tasks converge from above; a task whose methods were all pruned
    keeps the full set, which is vacuously sound since it cannot run.
    """
    full = (1 << len(p.facts)) - 1
    mand = [full] * len(p.abstracts)

    def first_sub(m) -> int:
        if not m.subtasks:
            return 0
        kind, i = m.subtasks[0]
        if kind == ACTION:
            return p.actions[i].precond
        return mand[i]

    for comp in rec.sccs:
        changed = True
        while changed:
            changed = False
            for t in comp:
                acc = full
                for mid in p.abstracts[t].methods:
                    acc &= first_sub(p.methods[mid])
                if acc != mand[t]:
                    mand[t] = acc
                    changed = True
    return mand


def compute_productive(p: Problem, rec: RecursionInfo) -> list[bool]:
    """Per abstract task, whether it is productive. An action is productive
    when it is applicable under delete relaxation from the initial state,
    and a task when one of its methods has only productive subtasks. A
    task that is not productive has no executable refinement at any
    depth. Components are taken inner-first, as for possible effects."""
    reached = p.init
    applicable = [False] * len(p.actions)
    changed = True
    while changed:
        changed = False
        for a in p.actions:
            if not applicable[a.id] and a.precond & ~reached == 0:
                applicable[a.id] = True
                reached |= a.eff_pos
                changed = True
    productive = [False] * len(p.abstracts)
    for comp in rec.sccs:
        changed = True
        while changed:
            changed = False
            for t in comp:
                if productive[t]:
                    continue
                for mid in p.abstracts[t].methods:
                    for kind, i in p.methods[mid].subtasks:
                        if not (applicable if kind == ACTION else productive)[i]:
                            break
                    else:
                        productive[t] = changed = True
                        break
    return productive


def compute_mutex_groups(p: Problem) -> list[list[int]]:
    """Fact groups with at most one member in any reachable state.

    Candidates come from fact names of the shape ``pred(a,...,z)``:
    every set of facts agreeing on the predicate and all arguments but
    one. A candidate survives when the initial state holds at most one
    member and every action moves at most one token: it may add a member
    only if its precondition pins down the currently held member and it
    either deletes or re-adds it. Groups contained in a surviving larger
    group are dropped.
    """
    seeds: dict[tuple, list[int]] = {}
    for f in p.facts:
        head, args = split_name(f.name)
        for i in range(len(args)):
            key = (head, i, args[:i], args[i + 1:])
            seeds.setdefault(key, []).append(f.id)

    passing: list[int] = []
    seen: set[int] = set()
    for key in sorted(seeds):
        g = mask(seeds[key])
        if g.bit_count() < 2 or g in seen:
            continue
        seen.add(g)
        if _inductive(p, g):
            passing.append(g)

    return sorted(bits(g) for g in passing
                  if not any(g & o == g != o for o in passing))


def _inductive(p: Problem, group: int) -> bool:
    if (p.init & group).bit_count() > 1:
        return False
    for a in p.actions:
        adds = a.eff_pos & group
        if adds.bit_count() > 1:
            return False
        if not adds:
            continue
        held = a.precond & group
        if held.bit_count() >= 2:
            continue  # not applicable in any state the invariant allows
        if not held:
            return False
        if held & a.eff_neg or held == adds:
            continue
        return False
    return True


def compute_profiles(p: Problem) -> Profiles:
    rec = compute_recursion(p)
    pos, neg = compute_poss_effects(p, rec)
    mand = compute_mandatory_preconditions(p, rec)
    tasks = [TaskProfile(t.id, mand[t.id], pos[t.id], neg[t.id])
             for t in p.abstracts]
    return Profiles(tasks=tasks, mutex_groups=compute_mutex_groups(p),
                    recursion=rec, productive=compute_productive(p, rec))


def dump_profiles(p: Problem, prof: Profiles) -> str:
    def names(fids) -> str:
        return " ".join(p.facts[i].name for i in fids) or "-"

    out = []
    for tp in prof.tasks:
        out.append(f"task {p.abstracts[tp.task].name} mand: {names(bits(tp.mand_pre))}"
                   f" poss+: {names(bits(tp.poss_eff_pos))}"
                   f" poss-: {names(bits(tp.poss_eff_neg))}")
    for g in prof.mutex_groups:
        out.append(f"mutex: {names(g)}")
    return "\n".join(out) + "\n"

