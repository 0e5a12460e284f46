"""Instantiation of a lifted hierarchical problem into a ground one.

Grounding works by reachability from the initial task network. Each
reached abstract task instance binds every lifted method of its task
with the task's arguments fixed (repeated variables and constants must
unify) and the method's other parameters one at a time over typed
object pools. A literal is checked as soon as its variables are bound,
and a failing one drops the partial binding: ``=`` literals, literals
over static predicates (ones no action adds or deletes) against the
initial state, predicate parameter types, and subtasks, which must be
type-consistent task instances or action instances that pass the same
checks. Action instances are made on demand, once each, and new
abstract subtasks are queued in turn.

Negative preconditions become complement ``not-P`` facts that every
action touching ``P`` maintains. A method precondition compiles into a
zero-effect guard action slotted in front of the method's first
subtask; static literals that hold stay in it. Instances that can never
execute under delete relaxation or can never be reached by decomposing
the initial task are pruned by a joint fixpoint; abstract tasks left
without methods stay, with no method, and methods mentioning them fall
with them. The pruned set is the greatest fixpoint of a monotone
operator and the reached candidates contain it, so the result equals
instantiating every typed binding and then pruning.

Work is capped in binding steps: one per object tried for a parameter
at any depth, per action instance made and per complement fact.
Hitting the cap aborts with an error instead of grinding on, and an
optional deadline, checked at the same points, raises SolverTimeout
once it has passed.
"""
from __future__ import annotations

import time
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
from ..sat import SolverTimeout
from .parser import LiftedDomain, LiftedProblem

DEFAULT_CAP = 200_000

# kinds of check run while binding, besides ACTION and ABSTRACT subtasks
_EQ = "="
_STATIC = "static"
_TYPED = "typed"


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

    def fits(self, objs, tys) -> bool:
        """Every object is declared and of its slot's type."""
        return all(o in self.obj_type and self.isa(o, ty)
                   for o, ty in zip(objs, tys))


class _Budget:
    def __init__(self, cap: int, deadline: float | None):
        self.cap = cap
        self.deadline = deadline
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise GroundingError(
                f"instantiation cap of {self.cap} binding steps "
                f"exceeded; pass a larger cap to ground this problem")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout


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


@dataclass
class _Schema:
    """A lifted method's binding plan: the parameters its task atom leaves
    open, in declared order, and the checks that fall due at each depth
    (``checks[0]`` once the task's arguments are fixed, ``checks[d + 1]``
    once ``order[d]`` is bound). A check is (kind, name, args, positive)."""

    order: list[str]
    pools: list[list[str]]
    checks: list[list[tuple]]


class _Grounder:
    def __init__(self, dom: LiftedDomain, prob: LiftedProblem, cap: int,
                 deadline: float | None):
        self.dom = dom
        self.prob = prob
        self.types = _Types(dom, prob.objects)
        self.budget = _Budget(cap, deadline)
        # task name -> parameter types
        self.task_sig = {t.name: [ty for _, ty in t.params] for t in dom.tasks}
        self.action_sig = {a.name: a for a in dom.actions}
        self.neg_preds = self._negatively_used()
        self.static = set(dom.predicates) - {
            n for a in dom.actions for n, _ in a.eff_pos + a.eff_neg}
        self.gactions: dict[str, _GAction] = {}
        self.gtasks: set[str] = set()
        self.gmethods: dict[str, _GMethod] = {}
        self._init_atoms: set[str] = set()
        self._made: dict[str, _GAction | None] = {}  # every action tried
        self._queue: list[tuple[str, tuple[str, ...]]] = []

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

    # -- checks while binding -------------------------------------------------

    def _literal_check(self, name, args, positive) -> tuple:
        if name == "=":
            return (_EQ, name, args, positive)
        return (_STATIC if name in self.static else _TYPED, name, args,
                positive)

    def _holds(self, check, binding) -> bool:
        kind, name, args, positive = check
        objs = _subst(args, binding)
        if kind == _EQ:
            return positive == (objs[0] == objs[1])
        if kind == ABSTRACT:
            return self.types.fits(objs, self.task_sig[name])
        if kind == ACTION:
            return self._action(name, objs) is not None
        fact = self._fact(name, objs)
        if fact is None:
            return False
        return kind == _TYPED or (fact in self._init_atoms) == positive

    def _action(self, name: str, objs: tuple[str, ...]) -> _GAction | None:
        """The action instance, made on first use; None when it is ruled
        out by its types, equalities or static preconditions."""
        key = join_name(name, objs)
        if key in self._made:
            return self._made[key]
        self.budget.spend()
        lifted = self.action_sig[name]
        binding = self._action_binding(lifted, objs)
        inst = None
        if binding is not None and all(
                self._holds(self._literal_check(*lit), binding)
                for lit in lifted.precond if lit[0] in self.static):
            inst = self._one_action(lifted, binding)
        self._made[key] = inst
        if inst is not None:
            self.gactions[key] = inst
        return inst

    def _action_binding(self, lifted, objs) -> dict | None:
        binding: dict[str, str] = {}
        if self._unify(lifted.params, [v for v, _ in lifted.params], objs,
                       binding):
            return binding
        return None

    def _unify(self, params, pattern, objs, binding) -> bool:
        """Extend binding so that pattern reads objs: a variable binds to
        an object of its parameter type, and a constant must match."""
        types = dict(params)
        for a, o in zip(pattern, objs):
            if not a.startswith("?"):
                if a != o:
                    return False
            elif a in binding:
                if binding[a] != o:
                    return False
            elif not self.types.fits((o,), (types[a],)):
                return False
            else:
                binding[a] = o
        return True

    # -- top-down instantiation ------------------------------------------------

    def _schema(self, lifted) -> _Schema:
        fixed = {a for a in lifted.task[1] if a.startswith("?")}
        order = [v for v, _ in lifted.params if v not in fixed]
        depth = {v: d + 1 for d, v in enumerate(order)}
        checks: list[list[tuple]] = [[] for _ in range(len(order) + 1)]
        atoms = [self._literal_check(*lit) for lit in lifted.precond]
        atoms += [(ABSTRACT if n in self.task_sig else ACTION, n, args, True)
                  for n, args in lifted.subtasks]
        for check in atoms:
            due = max((depth.get(a, 0) for a in check[2]), default=0)
            checks[due].append(check)
        return _Schema(order, [self.types.objs(ty) for v, ty in lifted.params
                               if v not in fixed], checks)

    def _bindings(self, schema: _Schema, binding: dict):
        """Every completion of binding that passes the schema's checks.
        Iterative, one parameter per depth; yields the same dict each time,
        so a caller must not keep it."""
        if not all(self._holds(c, binding) for c in schema.checks[0]):
            return
        order, pools, checks = schema.order, schema.pools, schema.checks
        if not order:
            yield binding
            return
        open_pools = [iter(pools[0])]
        while open_pools:
            d = len(open_pools) - 1
            obj = next(open_pools[d], None)
            if obj is None:
                open_pools.pop()
                continue
            self.budget.spend()
            binding[order[d]] = obj
            if not all(self._holds(c, binding) for c in checks[d + 1]):
                continue
            if d + 1 < len(order):
                open_pools.append(iter(pools[d + 1]))
            else:
                yield binding

    def _reach(self, name: str, objs: tuple[str, ...]) -> str:
        inst = join_name(name, objs)
        if inst not in self.gtasks:
            self.gtasks.add(inst)
            self._queue.append((name, objs))
        return inst

    def _one_method(self, lifted, binding) -> None:
        guard_pre = self._compile_precond(lifted.precond, binding)
        tinst = join_name(lifted.task[0], _subst(lifted.task[1], binding))
        subs: list[tuple[str, str]] = []
        for sname, sargs in lifted.subtasks:
            objs = _subst(sargs, binding)
            if sname in self.task_sig:
                subs.append((ABSTRACT, self._reach(sname, objs)))
            else:
                subs.append((ACTION, join_name(sname, objs)))
        args = tuple(binding[v] for v, _ in lifted.params)
        mname = join_name(lifted.name, args)
        if guard_pre:
            gname = f"guard-{mname}"
            self.gactions[gname] = _GAction(gname, guard_pre)
            subs.insert(0, (ACTION, gname))
        self.gmethods[mname] = _GMethod(mname, tinst, subs)

    def _check_guard_names(self) -> None:
        for meth in self.dom.methods:
            lifted = self.action_sig.get(f"guard-{meth.name}")
            if (lifted is not None and len(lifted.params) == len(meth.params)
                    and any(n != "=" for n, _, _ in meth.precond)):
                raise GroundingError(
                    f"action name guard-{meth.name} collides with a "
                    f"compiled method guard")

    def _instantiate(self) -> str:
        """Reach every task, method and action instance the initial task
        network can decompose into; return the root task's name."""
        self._check_guard_names()
        methods_of: dict[str, list[tuple]] = {}
        for lifted in self.dom.methods:
            methods_of.setdefault(lifted.task[0], []).append(
                (lifted, self._schema(lifted)))
        refs: list[tuple[str, str]] = []
        for name, args in self.prob.top_tasks:
            objs = _subst(args, {})
            inst = join_name(name, objs)
            if name in self.task_sig:
                if not self.types.fits(objs, self.task_sig[name]):
                    raise GroundingError(f"initial task {inst} is not a "
                                         f"type-consistent instance")
                refs.append((ABSTRACT, self._reach(name, objs)))
            else:
                # only types and equalities make an initial action an error;
                # a failing static precondition is left to the pruning
                lifted = self.action_sig[name]
                binding = self._action_binding(lifted, objs)
                if binding is None or self._one_action(lifted, binding) is None:
                    raise GroundingError(f"initial task {inst} is not an "
                                         f"instantiable action")
                self._action(name, objs)
                refs.append((ACTION, inst))
        while self._queue:
            name, objs = self._queue.pop()
            for lifted, schema in methods_of.get(name, []):
                fixed: dict[str, str] = {}
                if not self._unify(lifted.params, lifted.task[1], objs,
                                   fixed):
                    continue
                for binding in self._bindings(schema, fixed):
                    self._one_method(lifted, binding)
        if len(refs) == 1 and refs[0][0] == ABSTRACT:
            return refs[0][1]
        # Several top-level entries (or a primitive one): hang them under a
        # synthesized root task with a single method, named apart from every
        # task instance the domain could have.
        top = "__top__"
        while top in {t.name for t in self.dom.tasks if not t.params}:
            top += "_"
        self.gtasks.add(top)
        self.gmethods[top + "-method"] = _GMethod(top + "-method", top, refs)
        return top

    # -- initial state, goal ---------------------------------------------------

    def _atoms(self, atoms, where: str):
        """(predicate, objects, fact) for each atom of the problem's init
        or goal list, which `where` names in the type error."""
        for name, args in atoms:
            objs = _subst(args, {})
            fact = self._fact(name, objs)
            if fact is None:
                raise GroundingError(
                    f"{where} atom {join_name(name, objs)} violates the "
                    f"predicate's parameter types")
            yield name, objs, fact

    def _initial_facts(self) -> set[str]:
        init_pos: dict[str, set[tuple[str, ...]]] = {}
        facts: set[str] = set()
        for name, objs, fact in self._atoms(self.prob.init, "init"):
            init_pos.setdefault(name, set()).add(objs)
            facts.add(fact)
        self._init_atoms = set(facts)
        for pred in sorted(self.neg_preds):
            pools = [self.types.objs(ty)
                     for ty in self.dom.predicates[pred]]
            for combo in product(*pools):
                self.budget.spend()
                if combo not in init_pos.get(pred, set()):
                    facts.add(join_name(f"not-{pred}", combo))
        return facts

    def _goal_facts(self) -> set[str]:
        return {fact for _, _, fact in self._atoms(self.prob.goal, "goal")}

    # -- joint reachability pruning ------------------------------------------

    def _prune(self, init_facts: set[str], root: str) -> None:
        while True:
            before = (len(self.gactions), len(self.gmethods), len(self.gtasks))
            applicable = self._delete_relaxed_applicable(init_facts)
            rtasks, ractions = self._decomposition_reachable(root)
            self.gactions = {n: a for n, a in self.gactions.items()
                             if n in applicable and n in ractions}
            # a task left without methods cannot be refined
            refinable = {m.task for m in self.gmethods.values()}
            self.gmethods = {
                n: m for n, m in self.gmethods.items()
                if m.task in rtasks and all(
                    s in (self.gactions if k == ACTION else refinable)
                    for k, s in m.subs)}
            self.gtasks &= rtasks
            if (len(self.gactions), len(self.gmethods), len(self.gtasks)) == before:
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
        init_facts = self._initial_facts()
        goal_facts = self._goal_facts()
        root = self._instantiate()
        self._prune(init_facts, root)

        names = set(init_facts) | goal_facts
        for a in self.gactions.values():
            names |= a.precond | a.add | a.dele
        facts = [Fact(i, n) for i, n in enumerate(sorted(names))]
        fid = {f.name: f.id for f in facts}
        actions = []
        for i, n in enumerate(sorted(self.gactions)):
            g = self.gactions[n]
            actions.append(Action(i, n, *(mask(fid[f] for f in s)
                                          for s in (g.precond, g.add, g.dele))))
        aid = {a.name: a.id for a in actions}
        abstracts = [AbstractTask(i, n) for i, n in enumerate(sorted(self.gtasks))]
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
            goal=mask(fid[f] for f in goal_facts),
        ).finalize()


def ground(dom: LiftedDomain, prob: LiftedProblem, cap: int = DEFAULT_CAP,
           deadline: float | None = None) -> Problem:
    """Ground the problem by reachability from its initial task network.
    Raises GroundingError past cap binding steps, and SolverTimeout once
    the monotonic deadline has passed."""
    return _Grounder(dom, prob, cap, deadline).build()
