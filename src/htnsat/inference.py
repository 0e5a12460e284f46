"""Static analysis feeding the relaxed encoding.

One sweep over the task graph's strongly connected components, taken
inner-first, infers a profile for every abstract task. When the search
treats an undeveloped abstract task like an opaque action, it reads an
under-approximation of what every refinement requires (mandatory
preconditions) and an over-approximation of what any refinement could
change (possible add and delete effects). Grid expansion reads the
recursion flags, and the planner reads which tasks are productive, to end
a run whose root can never be refined into an executable plan. Fact
groups that can never hold two members at once keep relaxed states from
drifting into nonsense like one object in two places.

``Profiles`` holds, per abstract task id, ``mand_pre``, ``poss_eff_pos``,
``poss_eff_neg`` (fact bitmasks), ``recursive`` and ``productive``, plus
the problem's ``mutex_groups``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import ACTION, Problem, bits, mask, split_name


@dataclass
class Profiles:
    """Per-abstract-task inferences, indexed by task id, plus mutex groups
    for one problem."""

    mand_pre: list[int]
    poss_eff_pos: list[int]
    poss_eff_neg: list[int]
    recursive: list[bool]
    productive: list[bool]
    mutex_groups: list[list[int]]


def _components(p: Problem) -> tuple[list[list[int]], list[bool]]:
    """Tarjan over the task graph (t -> every abstract subtask of M(t)):
    its components in reverse-topological order of the condensation, and
    per task whether it is recursive, that is, sits in a component of
    size two or more or mentions itself in one of its own methods.
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
    return sccs, recursive


def _relaxed_applicable(p: Problem) -> list[bool]:
    """Per action, whether it is applicable under delete relaxation from
    the initial state."""
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
    return applicable


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
    """Infer every task's profile in one sweep over the components.

    - ``poss_eff_pos``/``poss_eff_neg``: least fixpoint of the union over
      M(t) of the subtasks' possible effects, where an action contributes
      its literal effects.
    - ``mand_pre``: greatest fixpoint of the intersection over M(t) of the
      first subtask's mandatory precondition, where an empty method
      contributes the empty set (it promises an empty refinement, which
      runs anywhere). Everything starts at the full fact set and shrinks,
      so recursive tasks converge from above; a task whose methods were
      all pruned keeps the full set, which is vacuously sound since it
      cannot run.
    - ``productive``: least fixpoint of "some method has only productive
      subtasks", where an action is productive when it is applicable
      under delete relaxation. A task that is not productive has no
      executable refinement at any depth.

    The three operators are monotone and independent of each other, so
    each component, taken inner-first, is iterated for all three at once
    until a whole turn changes nothing. A component that is not recursive
    reads only finished components and needs a single turn.
    """
    sccs, recursive = _components(p)
    applicable = _relaxed_applicable(p)
    actions, methods = p.actions, p.methods
    n = len(p.abstracts)
    full = (1 << len(p.facts)) - 1
    mand, pos, neg = [full] * n, [0] * n, [0] * n
    productive = [False] * n
    for comp in sccs:
        changed = True
        while changed:
            changed = False
            for t in comp:
                acc, ep, en, prod = full, pos[t], neg[t], productive[t]
                for mid in p.abstracts[t].methods:
                    subs = methods[mid].subtasks
                    if subs:
                        kind, i = subs[0]
                        acc &= actions[i].precond if kind == ACTION else mand[i]
                    else:
                        acc = 0
                    ok = True
                    for kind, i in subs:
                        if kind == ACTION:
                            a = actions[i]
                            ep |= a.eff_pos
                            en |= a.eff_neg
                            ok = ok and applicable[i]
                        else:
                            ep |= pos[i]
                            en |= neg[i]
                            ok = ok and productive[i]
                    prod = prod or ok
                if (acc != mand[t] or ep != pos[t] or en != neg[t]
                        or prod != productive[t]):
                    mand[t], pos[t], neg[t], productive[t] = acc, ep, en, prod
                    changed = recursive[t]  # else one turn settles t
    return Profiles(mand, pos, neg, recursive, productive,
                    compute_mutex_groups(p))


def dump_profiles(p: Problem, prof: Profiles) -> str:
    def names(fids) -> str:
        return " ".join(p.facts[i].name for i in fids) or "-"

    out = []
    for t in p.abstracts:
        out.append(f"task {t.name} mand: {names(bits(prof.mand_pre[t.id]))}"
                   f" poss+: {names(bits(prof.poss_eff_pos[t.id]))}"
                   f" poss-: {names(bits(prof.poss_eff_neg[t.id]))}")
    for g in prof.mutex_groups:
        out.append(f"mutex: {names(g)}")
    return "\n".join(out) + "\n"
