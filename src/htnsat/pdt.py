"""Search structure: an AND/OR refinement tree projected onto a layered
position grid.

Layer 0 holds one position containing the initial abstract task. When a
position is expanded, every abstract task occupying it gains its
non-blocked methods, and the next layer gets one child position per
subtask slot (slot 0 also inherits the position's action candidates;
slots past a short method are fillable by an explicit blank). A
position that is not expanded gets a single transparent copy child so
layers stay rectangular; copies add no content of their own and resolve
through ``holder()`` to the position they mirror.

Recursion control: a method is blocked at an occurrence when it would
re-introduce a recursive task that already occurs on a strict ancestor
position. Blocked pairs can later be reinserted, which rebuilds the
whole structure with those pairs admitted by expanding, layer by layer,
the positions where the old grid was expanded; paths of child-slot
indices stay stable across rebuilds because reinsertion only ever
widens positions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .inference import Profiles
from .model import Problem

BlockedPair = tuple[tuple[int, ...], int, int]  # holder path, task id, method id


class PdtUsageError(ValueError):
    """Expansion request that violates the structure's contract."""


@dataclass(eq=False)
class Position:
    layer: int
    path: tuple[int, ...]
    parent: Optional["Position"]
    copy_of: Optional["Position"] = None
    acts: list[int] = field(default_factory=list)
    tasks: list[int] = field(default_factory=list)
    has_blank: bool = False
    anc_tasks: frozenset[int] = frozenset()
    children: list["Position"] = field(default_factory=list)
    # Set on the holder once its tasks are expanded: admitted methods per
    # task, and the (possibly deeper) position the children hang off.
    admitted: Optional[dict[int, list[int]]] = None
    site: Optional["Position"] = None

    def holder(self) -> "Position":
        pos = self
        while pos.copy_of is not None:
            pos = pos.copy_of
        return pos


class Pdt:
    def __init__(self, problem: Problem, profiles: Profiles):
        self.problem = problem
        self.profiles = profiles
        self.root = Position(layer=0, path=(), parent=None,
                             tasks=[problem.root])
        self.layers: list[list[Position]] = [[self.root]]
        self.reinserted: set[BlockedPair] = set()
        self.methods_developed = 0

    # -- structure queries ---------------------------------------------------

    def bottom(self) -> list[Position]:
        return self.layers[-1]

    def find(self, path: tuple[int, ...]) -> Position:
        pos = self.root
        for i in path:
            pos = pos.children[i]
        return pos

    def pending_positions(self) -> list[Position]:
        """Bottom positions still carrying unexpanded abstract tasks."""
        out = []
        for b in self.bottom():
            h = b.holder()
            if h.tasks and h.admitted is None:
                out.append(b)
        return out

    def bottom_of(self, holder: Position) -> Position:
        pos = holder
        while pos.children:
            pos = pos.children[0]
        return pos

    def is_blocked(self, holder: Position, task: int, mid: int) -> bool:
        if (holder.path, task, mid) in self.reinserted:
            return False
        recursive = self.profiles.recursion.recursive
        for ref in self.problem.methods[mid].subtasks:
            if not ref.is_action() and recursive[ref.id] \
                    and ref.id in holder.anc_tasks:
                return True
        return False

    def admitted_methods(self, holder: Position, task: int) -> list[int]:
        return [mid for mid in self.problem.abstracts[task].methods
                if not self.is_blocked(holder, task, mid)]

    def expandable(self, position: Position) -> bool:
        h = position.holder()
        if h.admitted is not None or not h.tasks:
            return False
        return any(self.admitted_methods(h, t) for t in h.tasks)

    def blocked_pairs(self) -> set[BlockedPair]:
        out = set()
        for layer in self.layers:
            for pos in layer:
                if pos.copy_of is not None:
                    continue
                for t in pos.tasks:
                    for mid in self.problem.abstracts[t].methods:
                        if self.is_blocked(pos, t, mid):
                            out.add((pos.path, t, mid))
        return out

    # -- growth --------------------------------------------------------------

    def expand(self, targets: list[Position]) -> None:
        bottom = self.bottom()
        chosen = {id(b) for b in targets}
        for b in targets:
            h = b.holder()
            if b.layer != len(self.layers) - 1 or not h.tasks or h.admitted is not None:
                raise PdtUsageError(f"position {b.path} is not pending")
        new_layer: list[Position] = []
        for b in bottom:
            if id(b) in chosen:
                new_layer.extend(self._expand_one(b))
            else:
                q = Position(layer=b.layer + 1, path=b.path + (0,),
                             parent=b, copy_of=b)
                b.children = [q]
                new_layer.append(q)
        self.layers.append(new_layer)

    def _expand_one(self, b: Position) -> list[Position]:
        h = b.holder()
        admitted = {t: self.admitted_methods(h, t) for t in h.tasks}
        width = max([1] + [len(self.problem.methods[m].subtasks)
                           for ms in admitted.values() for m in ms])
        kids = []
        for i in range(width):
            acts: list[int] = []
            tasks: list[int] = []
            blank = False
            if i == 0:
                acts.extend(h.acts)
                blank = h.has_blank
            elif h.acts or h.has_blank:
                blank = True
            for ms in admitted.values():
                for mid in ms:
                    subs = self.problem.methods[mid].subtasks
                    if i < len(subs):
                        ref = subs[i]
                        pool = acts if ref.is_action() else tasks
                        if ref.id not in pool:
                            pool.append(ref.id)
                    else:
                        blank = True
            kids.append(Position(layer=b.layer + 1, path=b.path + (i,),
                                 parent=b, acts=acts, tasks=tasks,
                                 has_blank=blank,
                                 anc_tasks=h.anc_tasks | frozenset(h.tasks)))
        b.children = kids
        h.admitted = admitted
        h.site = b
        self.methods_developed += sum(len(ms) for ms in admitted.values())
        return kids

    def reinsert_blocked(self) -> "Pdt":
        """Admit every currently blocked pair and rebuild by expanding the
        same positions in the same rounds. Returns the rebuilt structure."""
        pairs = self.blocked_pairs()
        if not pairs:
            raise PdtUsageError("nothing is blocked")
        fresh = Pdt(self.problem, self.profiles)
        fresh.reinserted = self.reinserted | pairs
        # layer k holds the targets of expansion round k, in path order
        for layer in self.layers[:-1]:
            fresh.expand([fresh.find(b.path) for b in layer
                          if b.holder().site is b])
        return fresh

    # -- debug output --------------------------------------------------------

    def to_dot(self, dt=None) -> str:
        """DOT rendering of the refinement structure; when a decomposition
        tree is given, its nodes are filled grey."""
        p = self.problem
        grey: set[str] = set()
        if dt is not None:
            self._mark(dt, grey)
        lines = ["digraph pdt {", "  node [shape=box, fontsize=10];"]

        def emit(node_id: str, label: str, shape: str) -> None:
            fill = ", style=filled, fillcolor=grey80" if node_id in grey else ""
            lines.append(f'  "{node_id}" [label="{label}", shape={shape}{fill}];')

        for layer in self.layers:
            for pos in layer:
                if pos.copy_of is not None:
                    continue
                tag = ",".join(map(str, pos.path)) or "root"
                for t in pos.tasks:
                    emit(f"t{tag}_{t}", p.abstracts[t].name, "box")
                for a in pos.acts:
                    emit(f"a{tag}_{a}", p.actions[a].name, "plaintext")
                if pos.admitted is None:
                    continue
                ctag = ",".join(map(str, pos.site.path)) or "root"
                for t, ms in pos.admitted.items():
                    for mid in ms:
                        emit(f"m{ctag}_{mid}", p.methods[mid].name, "ellipse")
                        lines.append(f'  "t{tag}_{t}" -> "m{ctag}_{mid}";')
                        for i, ref in enumerate(p.methods[mid].subtasks):
                            child = pos.site.children[i].holder()
                            ktag = ",".join(map(str, child.path))
                            kind = "a" if ref.is_action() else "t"
                            lines.append(
                                f'  "m{ctag}_{mid}" -> "{kind}{ktag}_{ref.id}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _mark(self, dt, grey: set[str]) -> None:
        """Add the DOT ids of every node of dt to grey."""
        stack = [(dt.root, self.root)]
        while stack:
            node_id, pos = stack.pop()
            node = dt.nodes[node_id]
            h = pos.holder()
            tag = ",".join(map(str, h.path)) or "root"
            grey.add(f"t{tag}_{node.ref}" if node.kind != "action"
                     else f"a{tag}_{node.ref}")
            if node.kind != "abstract" or not node.children:
                continue
            method = dt.nodes[node.children[0]]
            ctag = ",".join(map(str, h.site.path)) or "root"
            grey.add(f"m{ctag}_{method.ref}")
            stack.extend((kid, h.site.children[i])
                         for i, kid in enumerate(method.children))
