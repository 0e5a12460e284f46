"""Search structure: an AND/OR refinement tree projected onto a layered
position grid.

Layer 0 holds one position containing the initial abstract task. When a
position is expanded, every abstract task occupying it gains its
non-blocked methods, and the next layer gets one child position per
subtask slot (slot 0 also inherits the position's action candidates;
slots past a short method are fillable by an explicit blank). A
position that is not expanded appears again, as the same object, in the
next layer; ``Position.layer`` is the layer where it first appears.
Expanding it in a later round hangs its children directly off it, so
a position was expanded in round k exactly when its first child sits on
layer k + 1.

Recursion control: every position counts, per task, the strict ancestor
positions whose candidate tasks include it. A method is blocked at a
position when one of its recursive subtasks already has a count at or
above the grid's nesting limit. The limit starts at 1, so a recursive
task is not re-introduced below itself at all. When the search reaches
a fixpoint with blocked pairs left, reinsertion doubles the limit and
rebuilds the whole structure by expanding, layer by layer, the
positions where the old grid was expanded. A recursion that needs depth
d therefore costs about log2(d) rebuilds. Paths of child-slot indices
stay stable across rebuilds because a larger limit only ever widens
positions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .inference import Profiles
from .model import Problem

BlockedPair = tuple[tuple[int, ...], int, int]  # position path, task id, method id


class PdtUsageError(ValueError):
    """Expansion request that violates the structure's contract."""


@dataclass(eq=False)
class Position:
    layer: int
    path: tuple[int, ...]
    acts: list[int] = field(default_factory=list)
    tasks: list[int] = field(default_factory=list)
    has_blank: bool = False
    # task id -> number of strict ancestors whose candidate tasks include it
    anc_counts: dict[int, int] = field(default_factory=dict)
    children: list["Position"] = field(default_factory=list)
    # admitted methods per task, set once the position is expanded
    admitted: Optional[dict[int, list[int]]] = None


class Pdt:
    def __init__(self, problem: Problem, profiles: Profiles):
        self.problem = problem
        self.profiles = profiles
        self.root = Position(layer=0, path=(), tasks=[problem.root])
        self.layers: list[list[Position]] = [[self.root]]
        self.nesting_limit = 1
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
        return [b for b in self.bottom() if b.tasks]

    def is_blocked(self, pos: Position, task: int, mid: int) -> bool:
        recursive = self.profiles.recursion.recursive
        for ref in self.problem.methods[mid].subtasks:
            if not ref.is_action() and recursive[ref.id] \
                    and pos.anc_counts.get(ref.id, 0) >= self.nesting_limit:
                return True
        return False

    def admitted_methods(self, pos: Position, task: int) -> list[int]:
        return [mid for mid in self.problem.abstracts[task].methods
                if not self.is_blocked(pos, task, mid)]

    def expandable(self, pos: Position) -> bool:
        if pos.admitted is not None or not pos.tasks:
            return False
        return any(self.admitted_methods(pos, t) for t in pos.tasks)

    def blocked_pairs(self) -> set[BlockedPair]:
        out = set()
        for k, layer in enumerate(self.layers):
            for pos in layer:
                if pos.layer != k:
                    continue
                for t in pos.tasks:
                    for mid in self.problem.abstracts[t].methods:
                        if self.is_blocked(pos, t, mid):
                            out.add((pos.path, t, mid))
        return out

    # -- growth --------------------------------------------------------------

    def expand(self, targets: list[Position]) -> None:
        bottom = self.bottom()
        in_bottom = {id(b) for b in bottom}
        chosen = {id(b) for b in targets}
        for b in targets:
            # an expanded position has left the bottom layer
            if id(b) not in in_bottom or not b.tasks:
                raise PdtUsageError(f"position {b.path} is not pending")
        new_layer: list[Position] = []
        for b in bottom:
            if id(b) in chosen:
                new_layer.extend(self._expand_one(b))
            else:
                new_layer.append(b)
        self.layers.append(new_layer)

    def _expand_one(self, b: Position) -> list[Position]:
        admitted = {t: self.admitted_methods(b, t) for t in b.tasks}
        width = max([1] + [len(self.problem.methods[m].subtasks)
                           for ms in admitted.values() for m in ms])
        counts = dict(b.anc_counts)  # shared by the children, never mutated
        for t in b.tasks:
            counts[t] = counts.get(t, 0) + 1
        kids = []
        for i in range(width):
            acts: list[int] = []
            tasks: list[int] = []
            blank = False
            if i == 0:
                acts.extend(b.acts)
                blank = b.has_blank
            elif b.acts or b.has_blank:
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
            kids.append(Position(layer=len(self.layers), path=b.path + (i,),
                                 acts=acts, tasks=tasks, has_blank=blank,
                                 anc_counts=counts))
        b.children = kids
        b.admitted = admitted
        self.methods_developed += sum(len(ms) for ms in admitted.values())
        return kids

    def reinsert_blocked(self) -> "Pdt":
        """Double the nesting limit and rebuild by expanding the same
        positions in the same rounds. Returns the rebuilt structure."""
        if not self.blocked_pairs():
            raise PdtUsageError("nothing is blocked")
        fresh = Pdt(self.problem, self.profiles)
        fresh.nesting_limit = 2 * self.nesting_limit
        # layer k holds the targets of expansion round k, in path order
        for k, layer in enumerate(self.layers[:-1]):
            fresh.expand([fresh.find(b.path) for b in layer
                          if b.children and b.children[0].layer == k + 1])
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

        for k, layer in enumerate(self.layers):
            for pos in layer:
                if pos.layer != k:
                    continue
                tag = ",".join(map(str, pos.path)) or "root"
                for t in pos.tasks:
                    emit(f"t{tag}_{t}", p.abstracts[t].name, "box")
                for a in pos.acts:
                    emit(f"a{tag}_{a}", p.actions[a].name, "plaintext")
                if pos.admitted is None:
                    continue
                for t, ms in pos.admitted.items():
                    for mid in ms:
                        emit(f"m{tag}_{mid}", p.methods[mid].name, "ellipse")
                        lines.append(f'  "t{tag}_{t}" -> "m{tag}_{mid}";')
                        for i, ref in enumerate(p.methods[mid].subtasks):
                            ktag = ",".join(map(str, pos.children[i].path))
                            kind = "a" if ref.is_action() else "t"
                            lines.append(
                                f'  "m{tag}_{mid}" -> "{kind}{ktag}_{ref.id}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _mark(self, dt, grey: set[str]) -> None:
        """Add the DOT ids of every node of dt to grey."""
        stack = [(dt.root, self.root)]
        while stack:
            node_id, pos = stack.pop()
            node = dt.nodes[node_id]
            tag = ",".join(map(str, pos.path)) or "root"
            grey.add(f"t{tag}_{node.ref}" if node.kind != "action"
                     else f"a{tag}_{node.ref}")
            if node.kind != "abstract" or not node.children:
                continue
            method = dt.nodes[node.children[0]]
            grey.add(f"m{tag}_{method.ref}")
            stack.extend((kid, pos.children[i])
                         for i, kid in enumerate(method.children))
