"""Search structure: an AND/OR refinement tree projected onto a layered
position grid.

Layer 0 holds one position containing the initial abstract task. When a
position is expanded, every abstract task occupying it gains all its
methods, and it gets one child position per subtask slot (slot 0 also
inherits the position's action candidates; slots past a short method
are fillable by an explicit blank). The grid stores each position once:
the bottom, and per round the positions it expanded, in bottom order. A
position not yet expanded stays on the bottom, and expanding it in a
later round hangs its children directly off it, so layer k + 1 holds
the children of the positions expanded in round k, and
``Position.layer`` is the layer where a position first appears.

Recursion control: every position counts, per recursive task, the
strict ancestor positions whose candidate tasks include it. A position
is held while one of its tasks has a count above the grid's nesting
limit, and a held position is not expandable. The limit starts at 1,
so a recursive task may be expanded once below itself. When the search
reaches a fixpoint with held positions left, reinsertion doubles the
limit and the search goes on over the same grid. One doubling releases
every held position: its deepest ancestor holding the same task was
expanded, so had a count of at most L, which puts the held count at
most at L + 1 <= 2L. A recursion that needs depth d therefore costs
about log2(d) reinsertions.

A position is its own identity: the grid, the encoder and the planner
key per-position state by the object itself, and only the DOT output
names positions, by their child-index paths from the root.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .inference import Profiles
from .model import Problem


class PdtUsageError(ValueError):
    """Expansion request that violates the structure's contract."""


@dataclass(eq=False)
class Position:
    layer: int
    acts: list[int] = field(default_factory=list)
    tasks: list[int] = field(default_factory=list)
    has_blank: bool = False
    # recursive task id -> number of strict ancestors whose candidate
    # tasks include it
    anc_counts: dict[int, int] = field(default_factory=dict)
    children: list["Position"] = field(default_factory=list)


BlockedPair = tuple[Position, int, int]  # position, task id, method id


class Pdt:
    def __init__(self, problem: Problem, profiles: Profiles):
        self.problem = problem
        self.profiles = profiles
        self.root = Position(layer=0, tasks=[problem.root])
        self._bottom = [self.root]
        self.rounds: list[list[Position]] = []
        self.nesting_limit = 1
        self.methods_developed = 0

    # -- structure queries ---------------------------------------------------

    def bottom(self) -> list[Position]:
        return self._bottom

    @property
    def layers(self) -> list[list[Position]]:
        """Per layer, the positions that first appear on it."""
        return [[self.root]] + [[kid for b in expanded for kid in b.children]
                                for expanded in self.rounds]

    def pending_positions(self) -> list[Position]:
        """Bottom positions still carrying unexpanded abstract tasks."""
        return [b for b in self.bottom() if b.tasks]

    def held(self, pos: Position) -> bool:
        return any(pos.anc_counts.get(t, 0) > self.nesting_limit
                   for t in pos.tasks)

    def expandable(self, pos: Position) -> bool:
        if pos.children or not pos.tasks or self.held(pos):
            return False
        return any(self.problem.abstracts[t].methods for t in pos.tasks)

    def blocked_pairs(self) -> set[BlockedPair]:
        """Every (task, method) pair at a held position. A held position
        is never expanded, so it sits in the bottom layer."""
        return {(pos, t, mid) for pos in self.bottom() if self.held(pos)
                for t in pos.tasks for mid in self.problem.abstracts[t].methods}

    # -- growth --------------------------------------------------------------

    def expand(self, targets: list[Position]) -> None:
        bottom = self.bottom()
        in_bottom = set(bottom)
        chosen = set(targets)
        for b in targets:
            # an expanded position has left the bottom layer
            if b not in in_bottom or not b.tasks:
                raise PdtUsageError(f"position from layer {b.layer} is not pending")
        expanded = [b for b in bottom if b in chosen]
        for b in expanded:
            self._expand_one(b)
        self.rounds.append(expanded)
        self._bottom = [q for b in bottom for q in b.children or [b]]

    def _expand_one(self, b: Position) -> None:
        methods = [self.problem.methods[mid] for t in b.tasks
                   for mid in self.problem.abstracts[t].methods]
        width = max([1] + [len(m.subtasks) for m in methods])
        recursive = self.profiles.recursive
        counts = dict(b.anc_counts)  # shared by the children, never mutated
        for t in b.tasks:
            if recursive[t]:
                counts[t] = counts.get(t, 0) + 1
        kids = []
        for i in range(width):
            # insertion-ordered sets: each id once, at its first occurrence
            acts: dict[int, None] = {}
            tasks: dict[int, None] = {}
            blank = False
            if i == 0:
                acts = dict.fromkeys(b.acts)
                blank = b.has_blank
            elif b.acts or b.has_blank:
                blank = True
            for m in methods:
                if i < len(m.subtasks):
                    ref = m.subtasks[i]
                    (acts if ref.is_action() else tasks)[ref.id] = None
                else:
                    blank = True
            kids.append(Position(layer=len(self.rounds) + 1, acts=list(acts),
                                 tasks=list(tasks), has_blank=blank,
                                 anc_counts=counts))
        b.children = kids
        self.methods_developed += len(methods)

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
        tags = self._tags()
        grey: set[str] = set()
        if dt is not None:
            self._mark(dt, grey, tags)
        lines = ["digraph pdt {", "  node [shape=box, fontsize=10];"]

        def emit(node_id: str, label: str, shape: str) -> None:
            fill = ", style=filled, fillcolor=grey80" if node_id in grey else ""
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  "{node_id}" [label="{label}", shape={shape}{fill}];')

        for layer in self.layers:
            for pos in layer:
                tag = tags[pos]
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
                            ktag = tags[pos.children[i]]
                            kind = "a" if ref.is_action() else "t"
                            lines.append(
                                f'  "m{tag}_{mid}" -> "{kind}{ktag}_{ref.id}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _tags(self) -> dict[Position, str]:
        """The DOT tag of every position: "root", else its child-index path
        from the root joined by commas."""
        tags = {self.root: "root"}
        stack = [self.root]
        while stack:
            pos = stack.pop()
            prefix = "" if pos is self.root else tags[pos] + ","
            for i, kid in enumerate(pos.children):
                tags[kid] = f"{prefix}{i}"
            stack.extend(pos.children)
        return tags

    def _mark(self, dt, grey: set[str], tags: dict[Position, str]) -> None:
        """Add the DOT ids of every node of dt to grey."""
        stack = [(dt.root, self.root)]
        while stack:
            node_id, pos = stack.pop()
            node = dt.nodes[node_id]
            tag = tags[pos]
            grey.add(f"t{tag}_{node.ref}" if node.kind != "action"
                     else f"a{tag}_{node.ref}")
            if node.kind != "abstract" or not node.children:
                continue
            method = dt.nodes[node.children[0]]
            grey.add(f"m{tag}_{method.ref}")
            stack.extend((kid, pos.children[i])
                         for i, kid in enumerate(method.children))
