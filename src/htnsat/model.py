"""Ground totally-ordered HTN problem model and execution semantics.

A problem is a finite set of facts, primitive actions with STRIPS
preconditions/effects, abstract tasks, and totally-ordered methods, plus an
initial abstract task, an initial state and a goal set. States are bitmasks
over fact ids so that applying an action is two bitwise ops.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

ACTION = "action"
ABSTRACT = "abstract"
METHOD = "method"


class TaskRef(NamedTuple):
    """Reference to either a primitive action or an abstract task."""

    kind: str  # ACTION or ABSTRACT
    id: int

    def is_action(self) -> bool:
        return self.kind == ACTION


class ModelError(ValueError):
    """Malformed problem structure or invalid id passed to an operation."""


@dataclass
class Fact:
    id: int
    name: str


@dataclass
class Action:
    id: int
    name: str
    precond: frozenset[int]
    eff_pos: frozenset[int]
    eff_neg: frozenset[int]
    # Masks are derived in Problem.finalize().
    pre_mask: int = 0
    add_mask: int = 0
    del_mask: int = 0


@dataclass
class AbstractTask:
    id: int
    name: str
    methods: list[int] = field(default_factory=list)
    unrefinable: bool = False  # set by the grounder when every method was pruned


@dataclass
class Method:
    id: int
    name: str
    task: int  # abstract task this method decomposes
    subtasks: list[TaskRef] = field(default_factory=list)


@dataclass
class Problem:
    name: str
    facts: list[Fact]
    actions: list[Action]
    abstracts: list[AbstractTask]
    methods: list[Method]
    root: int  # initial abstract task id (c_I)
    init: int  # bitmask over fact ids (s_I)
    goal: frozenset[int]
    goal_mask: int = 0

    def finalize(self) -> "Problem":
        """Derive masks and validate cross references. Returns self."""
        nf = len(self.facts)
        for i, f in enumerate(self.facts):
            if f.id != i:
                raise ModelError(f"fact id {f.id} out of order (expected {i})")
        for i, a in enumerate(self.actions):
            if a.id != i:
                raise ModelError(f"action id {a.id} out of order")
            for s in (a.precond, a.eff_pos, a.eff_neg):
                for fid in s:
                    if not 0 <= fid < nf:
                        raise ModelError(f"action {a.name}: bad fact id {fid}")
            if a.eff_pos & a.eff_neg:
                # add-after-delete convention: adds win, deletes drop the overlap
                a.eff_neg = a.eff_neg - a.eff_pos
            a.pre_mask = mask(a.precond)
            a.add_mask = mask(a.eff_pos)
            a.del_mask = mask(a.eff_neg)
        for i, t in enumerate(self.abstracts):
            if t.id != i:
                raise ModelError(f"abstract id {t.id} out of order")
        for i, m in enumerate(self.methods):
            if m.id != i:
                raise ModelError(f"method id {m.id} out of order")
            if not 0 <= m.task < len(self.abstracts):
                raise ModelError(f"method {m.name}: bad task id {m.task}")
            for ref in m.subtasks:
                self._check_ref(ref, f"method {m.name}")
        for t in self.abstracts:
            for mid in t.methods:
                if not 0 <= mid < len(self.methods) or self.methods[mid].task != t.id:
                    raise ModelError(f"abstract {t.name}: inconsistent method list")
        if not 0 <= self.root < len(self.abstracts):
            raise ModelError(f"bad root task id {self.root}")
        for fid in self.goal:
            if not 0 <= fid < nf:
                raise ModelError(f"bad goal fact id {fid}")
        self.goal_mask = mask(self.goal)
        return self

    def _check_ref(self, ref: TaskRef, where: str) -> None:
        pool = self.actions if ref.kind == ACTION else self.abstracts
        if ref.kind not in (ACTION, ABSTRACT) or not 0 <= ref.id < len(pool):
            raise ModelError(f"{where}: bad task reference {ref}")

    # -- execution semantics ------------------------------------------------

    def apply(self, state: int, action_id: int) -> Optional[int]:
        """Successor state, or None if the precondition does not hold."""
        a = self.actions[action_id]
        if state & a.pre_mask != a.pre_mask:
            return None
        return (state & ~a.del_mask) | a.add_mask

    def apply_seq(self, state: int, plan: Iterable[int]) -> Optional[int]:
        """Fold apply over a plan; None as soon as one step is inapplicable."""
        for aid in plan:
            state = self.apply(state, aid)
            if state is None:
                return None
        return state

    def is_goal(self, state: int) -> bool:
        return state & self.goal_mask == self.goal_mask

    # -- conveniences -------------------------------------------------------

    def fact_id(self, name: str) -> int:
        for f in self.facts:
            if f.name == name:
                return f.id
        raise ModelError(f"unknown fact {name!r}")

    def ref_name(self, ref: TaskRef) -> str:
        return (self.actions[ref.id] if ref.is_action() else self.abstracts[ref.id]).name


def mask(fids: Iterable[int]) -> int:
    """Bitmask with the bit of every given fact id set."""
    m = 0
    for fid in fids:
        m |= 1 << fid
    return m


def join_name(head: str, args: Sequence[str]) -> str:
    """('walk', ['p', 's1']) -> 'walk(p,s1)'; no arguments give the bare head."""
    return f"{head}({','.join(args)})" if args else head


def split_name(name: str) -> tuple[str, tuple[str, ...]]:
    """Inverse of join_name: 'walk(p,s1)' -> ('walk', ('p', 's1')).
    A name without a trailing argument list, or with an empty one, has no
    arguments."""
    if name.endswith(")") and "(" in name:
        head, inner = name[:-1].split("(", 1)
        return head, tuple(inner.split(",")) if inner else ()
    return name, ()


# -- decomposition trees ----------------------------------------------------


@dataclass
class DtNode:
    kind: str  # ACTION, ABSTRACT or METHOD
    ref: int
    children: list[int] = field(default_factory=list)


@dataclass
class DecompositionTree:
    """Ordered decomposition tree: abstract nodes carry exactly one method
    child; method nodes carry one child per subtask, in order."""

    nodes: list[DtNode]
    root: int

    def leaf_refs(self) -> list[TaskRef]:
        """In-order frontier: action leaves plus undeveloped abstract leaves."""
        out: list[TaskRef] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            n = self.nodes[nid]
            if n.kind == ACTION:
                out.append(TaskRef(ACTION, n.ref))
            elif n.kind == ABSTRACT and not n.children:
                out.append(TaskRef(ABSTRACT, n.ref))
            else:
                stack.extend(reversed(n.children))
        return out

    def plan(self) -> Optional[list[int]]:
        """Action ids in leaf order, or None if an abstract leaf remains."""
        refs = self.leaf_refs()
        if any(not r.is_action() for r in refs):
            return None
        return [r.id for r in refs]

    def add(self, kind: str, ref: int) -> int:
        self.nodes.append(DtNode(kind, ref))
        return len(self.nodes) - 1


def new_tree() -> DecompositionTree:
    return DecompositionTree(nodes=[], root=-1)
