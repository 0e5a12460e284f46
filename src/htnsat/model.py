"""Ground totally-ordered HTN problem model and execution semantics.

A problem is a finite set of facts, primitive actions with STRIPS
preconditions/effects, abstract tasks, and totally-ordered methods, plus an
initial abstract task, an initial state and a goal set. States and every
fact set are bitmasks over fact ids (an ``int`` with bit f set for fact f),
so applying an action is two bitwise ops; ``bits`` reads a mask's ids back
in ascending order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .inference import Profiles

ACTION = "action"
ABSTRACT = "abstract"


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
    precond: int
    eff_pos: int
    eff_neg: int


@dataclass
class AbstractTask:
    id: int
    name: str
    methods: list[int] = field(default_factory=list)


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
    init: int  # s_I
    goal: int
    # inferred on first use by planner.profiles_of; finalize clears it
    profiles: Profiles | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def finalize(self) -> "Problem":
        """Validate ids and cross references and apply add-wins to the
        action effects. Returns self."""
        self.profiles = None
        nf = len(self.facts)
        for i, f in enumerate(self.facts):
            if f.id != i:
                raise ModelError(f"fact id {f.id} out of order (expected {i})")
        if self.init >> nf:
            raise ModelError(f"bad init fact id {self.init.bit_length() - 1}")
        for i, a in enumerate(self.actions):
            if a.id != i:
                raise ModelError(f"action id {a.id} out of order")
            for m in (a.precond, a.eff_pos, a.eff_neg):
                if m >> nf:
                    raise ModelError(f"action {a.name}: bad fact id "
                                     f"{m.bit_length() - 1}")
            # add-after-delete convention: adds win, deletes drop the overlap
            a.eff_neg &= ~a.eff_pos
        for i, t in enumerate(self.abstracts):
            if t.id != i:
                raise ModelError(f"abstract id {t.id} out of order")
        nt, nm = len(self.abstracts), len(self.methods)
        pool_size = {ACTION: len(self.actions), ABSTRACT: nt}
        for i, m in enumerate(self.methods):
            if m.id != i:
                raise ModelError(f"method id {m.id} out of order")
            if not 0 <= m.task < nt:
                raise ModelError(f"method {m.name}: bad task id {m.task}")
            for ref in m.subtasks:
                if not 0 <= ref.id < pool_size.get(ref.kind, 0):
                    raise ModelError(f"method {m.name}: bad task reference {ref}")
        for t in self.abstracts:
            for mid in t.methods:
                if not 0 <= mid < nm or self.methods[mid].task != t.id:
                    raise ModelError(f"abstract {t.name}: inconsistent method list")
        if not 0 <= self.root < len(self.abstracts):
            raise ModelError(f"bad root task id {self.root}")
        if self.goal >> nf:
            raise ModelError(f"bad goal fact id {self.goal.bit_length() - 1}")
        return self

    # -- execution semantics ------------------------------------------------

    def apply(self, state: int, action_id: int) -> Optional[int]:
        """Successor state, or None if the precondition does not hold."""
        a = self.actions[action_id]
        if state & a.precond != a.precond:
            return None
        return (state & ~a.eff_neg) | a.eff_pos

    def apply_seq(self, state: int, plan: Iterable[int]) -> Optional[int]:
        """Fold apply over a plan; None as soon as one step is inapplicable."""
        for aid in plan:
            state = self.apply(state, aid)
            if state is None:
                return None
        return state

    def is_goal(self, state: int) -> bool:
        return state & self.goal == self.goal

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


def bits(m: int) -> list[int]:
    """The fact ids set in a mask, in ascending order; inverse of mask."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


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
    kind: str  # ACTION or ABSTRACT
    ref: int
    children: list[int] = field(default_factory=list)
    method: int | None = None  # the method that develops an ABSTRACT node


@dataclass
class DecompositionTree:
    """Ordered decomposition tree, one node per task, as the plan file
    writes it: a developed abstract node names its method and carries one
    child per subtask of that method, in order; an abstract node whose
    method is None is undeveloped."""

    nodes: list[DtNode] = field(default_factory=list)
    root: int = -1

    def plan(self) -> Optional[list[int]]:
        """Action ids in leaf order, or None if an abstract leaf remains."""
        out: list[int] = []
        stack = [self.root]
        while stack:
            n = self.nodes[stack.pop()]
            if n.kind == ACTION:
                out.append(n.ref)
            elif n.method is None:
                return None
            else:
                stack.extend(reversed(n.children))
        return out

    def add(self, kind: str, ref: int, method: int | None = None) -> int:
        self.nodes.append(DtNode(kind, ref, method=method))
        return len(self.nodes) - 1
