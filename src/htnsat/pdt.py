"""Search structure: an AND/OR refinement tree projected onto a layered
position grid.

Layer 0 holds one position containing the initial abstract task. When a
position is expanded, every abstract task occupying it gains all its
methods, and the next layer gets one child position per
subtask slot (slot 0 also inherits the position's action candidates;
slots past a short method are fillable by an explicit blank). A
position that is not expanded appears again, as the same object, in the
next layer; ``Position.layer`` is the layer where it first appears.
Expanding it in a later round hangs its children directly off it, so
a position was expanded in round k exactly when its first child sits on
layer k + 1.

Recursion control: every position counts, per task, the strict ancestor
positions whose candidate tasks include it. A position is held while
one of its recursive tasks has a count above the grid's nesting limit,
and a held position is not expandable. The limit starts at 1, so a
recursive task may be expanded once below itself. When the search
reaches a fixpoint with held positions left, reinsertion doubles the
limit and the search goes on over the same grid. One doubling releases
every held position: its deepest ancestor holding the same task was
expanded, so had a count of at most L, which puts the held count at
most at L + 1 <= 2L. A recursion that needs depth d therefore costs
about log2(d) reinsertions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def pending_positions(self) -> list[Position]:
        """Bottom positions still carrying unexpanded abstract tasks."""
        return [b for b in self.bottom() if b.tasks]

    def held(self, pos: Position) -> bool:
        recursive = self.profiles.recursion.recursive
        return any(recursive[t] and pos.anc_counts.get(t, 0) > self.nesting_limit
                   for t in pos.tasks)

    def expandable(self, pos: Position) -> bool:
        if pos.children or not pos.tasks or self.held(pos):
            return False
        return any(self.problem.abstracts[t].methods for t in pos.tasks)

    def blocked_pairs(self) -> set[BlockedPair]:
        """Every (task, method) pair at a held position. A held position
        is never expanded, so it sits in the bottom layer."""
        return {(pos.path, t, mid) for pos in self.bottom() if self.held(pos)
                for t in pos.tasks for mid in self.problem.abstracts[t].methods}

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
        methods = [self.problem.methods[mid] for t in b.tasks
                   for mid in self.problem.abstracts[t].methods]
        width = max([1] + [len(m.subtasks) for m in methods])
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
            for m in methods:
                if i < len(m.subtasks):
                    ref = m.subtasks[i]
                    pool = acts if ref.is_action() else tasks
                    if ref.id not in pool:
                        pool.append(ref.id)
                else:
                    blank = True
            kids.append(Position(layer=len(self.layers), path=b.path + (i,),
                                 acts=acts, tasks=tasks, has_blank=blank,
                                 anc_counts=counts))
        b.children = kids
        self.methods_developed += len(methods)
        return kids

    def reinsert_blocked(self) -> None:
        """Double the nesting limit, which releases every held position."""
        if not any(map(self.held, self.bottom())):
            raise PdtUsageError("nothing is held")
        self.nesting_limit *= 2

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
                if not pos.children:
                    continue
                for t in pos.tasks:
                    for mid in p.abstracts[t].methods:
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
