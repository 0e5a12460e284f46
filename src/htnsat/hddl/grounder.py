"""Instantiation of a lifted hierarchical problem into a ground one.

Bindings are enumerated over typed object pools (objects sorted by
name, so numbering is reproducible), equality constraints are settled
during instantiation, and negative preconditions become complement
``not-P`` facts that every action touching ``P`` maintains. A method
precondition compiles into a zero-effect guard action slotted in front
of the method's first subtask. Instances that can never execute under
delete relaxation or can never be reached by decomposing the initial
task are pruned by a joint fixpoint; abstract tasks left without
methods are marked unrefinable and methods mentioning them fall with
them. Total instantiation work is capped; hitting the cap aborts with
an error instead of grinding on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from ..model import (
    ABSTRACT,
    ACTION,
    AbstractTask,
    Action,
    Fact,
    Method,
    Problem,
    TaskRef,
    join_name,
    mask,
)
from .parser import LiftedDomain, LiftedProblem

DEFAULT_CAP = 200_000


class GroundingError(ValueError):
    """Instantiation cannot proceed; the message says why."""


class _Types:
    def __init__(self, dom: LiftedDomain, objects: list[tuple[str, str]]):
        self.parent = dict(dom.types)
        for name in self.parent:
            seen = {name}
            cur = self.parent[name]
            while cur != "object":
                if cur in seen:
                    raise GroundingError(f"type hierarchy cycle at {name}")
                seen.add(cur)
                cur = self.parent.get(cur, "object")
        self.obj_type: dict[str, str] = {}
        for name, ty in objects:
            if ty != "object" and ty not in self.parent:
                raise GroundingError(f"object {name} has unknown type {ty}")
            if name in self.obj_type:
                raise GroundingError(f"object {name} declared twice")
            self.obj_type[name] = ty
        self._pool: dict[str, list[str]] = {}

    def isa(self, obj: str, ty: str) -> bool:
        if ty == "object":
            return True
        cur = self.obj_type.get(obj)
        while cur is not None:
            if cur == ty:
                return True
            cur = self.parent.get(cur)
        return False

    def objs(self, ty: str) -> list[str]:
        if ty not in self._pool:
            if ty != "object" and ty not in self.parent:
                raise GroundingError(f"unknown type {ty}")
            self._pool[ty] = sorted(o for o in self.obj_type
                                    if self.isa(o, ty))
        return self._pool[ty]


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise GroundingError(
                f"instantiation cap of {self.cap} candidate instances "
                f"exceeded; pass a larger cap to ground this problem")


def _bindings(params, types: _Types, budget: _Budget):
    pools = [types.objs(ty) for _, ty in params]
    names = [v for v, _ in params]
    for combo in product(*pools):
        budget.spend()
        yield dict(zip(names, combo))


def _subst(args, binding) -> tuple[str, ...]:
    out = []
    for a in args:
        if a.startswith("?"):
            if a not in binding:
                raise GroundingError(f"unbound variable {a}")
            out.append(binding[a])
        else:
            out.append(a)
    return tuple(out)


@dataclass
class _GAction:
    name: str
    precond: set[str]
    add: set[str] = field(default_factory=set)
    dele: set[str] = field(default_factory=set)


@dataclass
class _GMethod:
    name: str
    task: str
    subs: list[tuple[str, str]]  # (ACTION/ABSTRACT, instance name)


class _Grounder:
    def __init__(self, dom: LiftedDomain, prob: LiftedProblem, cap: int):
        self.dom = dom
        self.prob = prob
        self.types = _Types(dom, prob.objects)
        self.budget = _Budget(cap)
        self.task_sig = {t.name: t for t in dom.tasks}
        self.action_sig = {a.name: a for a in dom.actions}
        self.neg_preds = self._negatively_used()
        self.gactions: dict[str, _GAction] = {}
        self.gtasks: set[str] = set()
        self.gmethods: dict[str, _GMethod] = {}
        self.unrefinable: set[str] = set()

    # -- shared pieces ------------------------------------------------------

    def _negatively_used(self) -> set[str]:
        used = set()
        for act in self.dom.actions:
            used |= {n for n, _, pos in act.precond if not pos and n != "="}
        for meth in self.dom.methods:
            used |= {n for n, _, pos in meth.precond if not pos and n != "="}
        for p in used:
            if f"not-{p}" in self.dom.predicates:
                raise GroundingError(
                    f"predicate not-{p} collides with the complement facts "
                    f"compiled for negative occurrences of {p}")
        return used

    def _fact(self, pred: str, objs: tuple[str, ...]):
        """Instance name, or None when an argument misses its type."""
        for o, ty in zip(objs, self.dom.predicates[pred]):
            if o not in self.types.obj_type:
                raise GroundingError(f"unknown object {o}")
            if not self.types.isa(o, ty):
                return None
        return join_name(pred, objs)

    def _compile_precond(self, literals, binding):
        """Fact-name set, or None when the instance is ruled out."""
        out: set[str] = set()
        for name, args, positive in literals:
            objs = _subst(args, binding)
            if name == "=":
                if positive != (objs[0] == objs[1]):
                    return None
                continue
            fact = self._fact(name, objs)
            if fact is None:
                return None
            out.add(fact if positive else join_name(f"not-{name}", objs))
        return out

    # -- instance enumeration -----------------------------------------------

    def _instantiate_actions(self) -> None:
        for lifted in self.dom.actions:
            for binding in _bindings(lifted.params, self.types, self.budget):
                inst = self._one_action(lifted, binding)
                if inst is not None:
                    self.gactions[inst.name] = inst

    def _one_action(self, lifted, binding):
        precond = self._compile_precond(lifted.precond, binding)
        if precond is None:
            return None
        pos, neg = [], []
        for bucket, atoms in ((pos, lifted.eff_pos), (neg, lifted.eff_neg)):
            for name, args in atoms:
                objs = _subst(args, binding)
                if self._fact(name, objs) is None:
                    return None
                bucket.append((name, objs))
        add = {join_name(n, o) for n, o in pos}
        dele = {join_name(n, o) for n, o in neg} - add
        for n, o in pos:
            if n in self.neg_preds:
                dele.add(join_name(f"not-{n}", o))
        for n, o in neg:
            if join_name(n, o) in add:
                continue  # add wins over delete of the same fact
            if n in self.neg_preds:
                add.add(join_name(f"not-{n}", o))
        args = tuple(binding[v] for v, _ in lifted.params)
        return _GAction(join_name(lifted.name, args), precond,
                        add, dele - add)

    def _instantiate_tasks(self) -> None:
        for lifted in self.dom.tasks:
            for binding in _bindings(lifted.params, self.types, self.budget):
                args = tuple(binding[v] for v, _ in lifted.params)
                self.gtasks.add(join_name(lifted.name, args))

    def _instantiate_methods(self) -> None:
        for lifted in self.dom.methods:
            for binding in _bindings(lifted.params, self.types, self.budget):
                self._one_method(lifted, binding)

    def _one_method(self, lifted, binding) -> None:
        guard_pre = self._compile_precond(lifted.precond, binding)
        if guard_pre is None:
            return
        tinst = join_name(lifted.task[0], _subst(lifted.task[1], binding))
        if tinst not in self.gtasks:
            return
        subs: list[tuple[str, str]] = []
        for sname, sargs in lifted.subtasks:
            sinst = join_name(sname, _subst(sargs, binding))
            if sname in self.task_sig:
                if sinst not in self.gtasks:
                    return
                subs.append((ABSTRACT, sinst))
            else:
                if sinst not in self.gactions:
                    return  # that action instance was ruled out
                subs.append((ACTION, sinst))
        args = tuple(binding[v] for v, _ in lifted.params)
        mname = join_name(lifted.name, args)
        if guard_pre:
            gname = f"guard-{mname}"
            if gname in self.gactions:
                raise GroundingError(f"action name {gname} collides with a "
                                     f"compiled method guard")
            self.gactions[gname] = _GAction(gname, guard_pre)
            subs.insert(0, (ACTION, gname))
        self.gmethods[mname] = _GMethod(mname, tinst, subs)

    # -- initial state, goal, root -------------------------------------------

    def _initial_facts(self) -> set[str]:
        init_pos: dict[str, set[tuple[str, ...]]] = {}
        facts: set[str] = set()
        for name, args in self.prob.init:
            objs = _subst(args, {})
            fact = self._fact(name, objs)
            if fact is None:
                raise GroundingError(
                    f"init atom {join_name(name, objs)} violates the "
                    f"predicate's parameter types")
            init_pos.setdefault(name, set()).add(objs)
            facts.add(fact)
        for pred in sorted(self.neg_preds):
            pools = [self.types.objs(ty)
                     for ty in self.dom.predicates[pred]]
            for combo in product(*pools):
                self.budget.spend()
                if combo not in init_pos.get(pred, set()):
                    facts.add(join_name(f"not-{pred}", combo))
        return facts

    def _goal_facts(self) -> set[str]:
        facts = set()
        for name, args in self.prob.goal:
            objs = _subst(args, {})
            fact = self._fact(name, objs)
            if fact is None:
                raise GroundingError(
                    f"goal atom {join_name(name, objs)} violates the "
                    f"predicate's parameter types")
            facts.add(fact)
        return facts

    def _root(self) -> str:
        refs: list[tuple[str, str]] = []
        for name, args in self.prob.top_tasks:
            inst = join_name(name, _subst(args, {}))
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
        # Several top-level entries (or a primitive one): hang them under a
        # synthesized root task with a single method.
        top = "__top__"
        while top in self.gtasks:
            top += "_"
        self.gtasks.add(top)
        self.gmethods[top + "-method"] = _GMethod(top + "-method", top, refs)
        return top

    # -- joint reachability pruning ------------------------------------------

    def _prune(self, init_facts: set[str], root: str) -> None:
        while True:
            before = (len(self.gactions), len(self.gmethods),
                      len(self.gtasks), len(self.unrefinable))
            applicable = self._delete_relaxed_applicable(init_facts)
            rtasks, ractions = self._decomposition_reachable(root)
            self.gactions = {n: a for n, a in self.gactions.items()
                             if n in applicable and n in ractions}
            kept: dict[str, _GMethod] = {}
            for m in self.gmethods.values():
                if m.task not in rtasks or m.task in self.unrefinable:
                    continue
                if any((k == ACTION and s not in self.gactions)
                       or (k == ABSTRACT and (s not in self.gtasks
                                              or s in self.unrefinable))
                       for k, s in m.subs):
                    continue
                kept[m.name] = m
            self.gmethods = kept
            self.gtasks &= rtasks
            with_methods = {m.task for m in self.gmethods.values()}
            self.unrefinable |= self.gtasks - with_methods
            after = (len(self.gactions), len(self.gmethods),
                     len(self.gtasks), len(self.unrefinable))
            if after == before:
                return

    def _delete_relaxed_applicable(self, init_facts: set[str]) -> set[str]:
        reached = set(init_facts)
        applicable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for a in self.gactions.values():
                if a.name not in applicable and a.precond <= reached:
                    applicable.add(a.name)
                    reached |= a.add
                    changed = True
        return applicable

    def _decomposition_reachable(self, root: str):
        methods_of: dict[str, list[str]] = {}
        for m in self.gmethods.values():
            methods_of.setdefault(m.task, []).append(m.name)
        rtasks: set[str] = set()
        ractions: set[str] = set()
        stack = [root]
        while stack:
            t = stack.pop()
            if t in rtasks:
                continue
            rtasks.add(t)
            for mn in methods_of.get(t, []):
                for kind, s in self.gmethods[mn].subs:
                    if kind == ACTION:
                        ractions.add(s)
                    elif s not in rtasks:
                        stack.append(s)
        return rtasks, ractions

    # -- assembly -------------------------------------------------------------

    def build(self) -> Problem:
        self._instantiate_actions()
        self._instantiate_tasks()
        self._instantiate_methods()
        init_facts = self._initial_facts()
        goal_facts = self._goal_facts()
        root = self._root()
        self._prune(init_facts, root)

        names = set(init_facts) | goal_facts
        for a in self.gactions.values():
            names |= a.precond | a.add | a.dele
        facts = [Fact(i, n) for i, n in enumerate(sorted(names))]
        fid = {f.name: f.id for f in facts}
        actions = []
        for i, n in enumerate(sorted(self.gactions)):
            g = self.gactions[n]
            actions.append(Action(
                i, n,
                frozenset(fid[f] for f in g.precond),
                frozenset(fid[f] for f in g.add),
                frozenset(fid[f] for f in g.dele)))
        aid = {a.name: a.id for a in actions}
        abstracts = [AbstractTask(i, n, unrefinable=n in self.unrefinable)
                     for i, n in enumerate(sorted(self.gtasks))]
        tid = {t.name: t.id for t in abstracts}
        methods = []
        for i, n in enumerate(sorted(self.gmethods)):
            g = self.gmethods[n]
            refs = [TaskRef(k, aid[s] if k == ACTION else tid[s])
                    for k, s in g.subs]
            methods.append(Method(i, n, tid[g.task], refs))
            abstracts[tid[g.task]].methods.append(i)
        return Problem(
            name=self.prob.name,
            facts=facts,
            actions=actions,
            abstracts=abstracts,
            methods=methods,
            root=tid[root],
            init=mask(fid[f] for f in init_facts),
            goal=frozenset(fid[f] for f in goal_facts),
        ).finalize()


def ground(dom: LiftedDomain, prob: LiftedProblem,
           cap: int = DEFAULT_CAP) -> Problem:
    return _Grounder(dom, prob, cap).build()
