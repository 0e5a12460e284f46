"""Incremental CNF encoding of the refinement grid.

Variables: one selector per candidate op at every position, one
selector per admitted method at its expanded position, one blank filler
where a position may stay unused, and one boolean per fact at every
state column. Columns sit between neighbouring positions of a
layer; a child row reuses its parent's boundary columns at both ends and
allocates fresh fact variables only where the position to the left can
actually change the fact. The final column is therefore shared by every
layer, which lets the goal be asserted once as permanent units.

A position carried unexpanded into the next layer is encoded once, in
the layer where it first appears, and keeps its variables and columns
from then on, so leaving a branch untouched for ten layers costs nothing.

Each layer gets a pair of throwaway query selectors. The strict one
additionally forbids every still-unexpanded abstract selector; the
relaxed one just asks for a consistent selection, with unexpanded tasks
acting through their mandatory preconditions and possible effects. Both
selectors are retired by unit clauses when the next layer arrives, so
the clause store only ever grows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .inference import Profiles
from .model import ABSTRACT, ACTION, METHOD, DecompositionTree, Problem, TaskRef, new_tree
from .pdt import Pdt, Position
from .sat import AmoConfig, SatSession, encode_alo, encode_amo

_PAIRWISE = AmoConfig("pairwise")


class EncoderBugError(RuntimeError):
    """A decoded model failed an internal consistency check."""


@dataclass
class DtCandidate:
    """One decoded query answer."""

    tree: DecompositionTree
    frontier: list[TaskRef]
    plan: list[int] | None = None
    targets: list[Position] = field(default_factory=list)


class Encoder:
    def __init__(
        self,
        problem: Problem,
        profiles: Profiles,
        pdt: Pdt,
        amo: AmoConfig = AmoConfig(),
        use_mutex: bool = True,
        mandatory_preconds: bool = True,
    ):
        self.p = problem
        self.prof = profiles
        self.pdt = pdt
        self.amo = amo
        self.use_mutex = use_mutex
        self.mandatory_preconds = mandatory_preconds
        self.sess = SatSession()
        self.opvar: dict[tuple, int] = {}
        self.blankvar: dict[tuple[int, ...], int] = {}
        self.mvar: dict[tuple[tuple[int, ...], int], int] = {}
        self.cols: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        self.queries: list[tuple[int, int]] = []
        self.encoded = 0
        self.sync()

    # -- variable lookup -----------------------------------------------------

    def op_lit(self, pos: Position, ref: TaskRef) -> int:
        return self.opvar[(pos.path, ref.kind, ref.id)]

    def _change_mask(self, pos: Position) -> int:
        mask = 0
        for a in pos.acts:
            act = self.p.actions[a]
            mask |= act.add_mask | act.del_mask
        for t in pos.tasks:
            prof = self.prof.tasks[t]
            mask |= prof.pos_mask | prof.neg_mask
        return mask

    # -- encoding ------------------------------------------------------------

    def sync(self) -> None:
        """Encode every grid layer not yet in the clause store."""
        while self.encoded < len(self.pdt.layers):
            if self.encoded == 0:
                self._encode_root()
            else:
                self._encode_layer(self.encoded)
            self._open_queries(self.encoded)
            self.encoded += 1

    def _encode_root(self) -> None:
        sess = self.sess
        root = self.pdt.root
        pre = [sess.new_var() for _ in self.p.facts]
        for f in range(len(self.p.facts)):
            sess.add_clause([pre[f] if self.p.init >> f & 1 else -pre[f]])
        post = self._next_column(pre, root)
        self.cols[root.path] = (pre, post)
        self._mutex_column(pre)
        # the root slot has a single candidate, so its at-least-one clause
        # already pins the initial task there
        self._encode_position(root)
        for f in sorted(self.p.goal):
            sess.add_clause([post[f]])

    def _encode_layer(self, idx: int) -> None:
        expanded = []
        for parent in self.pdt.layers[idx - 1]:
            kids = parent.children
            if not (kids and kids[0].layer == idx):
                continue
            expanded.append(parent)
            ppre, ppost = self.cols[parent.path]
            bound = ppre
            for i, q in enumerate(kids):
                nxt = ppost if i == len(kids) - 1 else self._next_column(bound, q)
                self.cols[q.path] = (bound, nxt)
                bound = nxt
            for q in kids:
                self._encode_position(q)
        for parent in expanded:
            self._encode_linkage(parent)

    def _next_column(self, prev: list[int], pos: Position) -> list[int]:
        change = self._change_mask(pos)
        if change == 0:
            return prev
        col = [self.sess.new_var() if change >> f & 1 else prev[f]
               for f in range(len(self.p.facts))]
        self._mutex_column(col)
        return col

    def _mutex_column(self, col: list[int]) -> None:
        if not self.use_mutex:
            return
        for group in self.prof.mutex_groups:
            encode_amo(self.sess, [col[f] for f in group], self.amo)

    def _encode_position(self, pos: Position) -> None:
        sess = self.sess
        pre, post = self.cols[pos.path]
        tier1 = []
        for a in pos.acts:
            v = sess.new_var()
            self.opvar[(pos.path, ACTION, a)] = v
            tier1.append(v)
            act = self.p.actions[a]
            for f in sorted(act.precond):
                sess.add_clause([-v, pre[f]])
            for f in sorted(act.eff_pos):
                sess.add_clause([-v, post[f]])
            for f in sorted(act.eff_neg):
                sess.add_clause([-v, -post[f]])
        for t in pos.tasks:
            v = sess.new_var()
            self.opvar[(pos.path, ABSTRACT, t)] = v
            tier1.append(v)
            if self.mandatory_preconds:
                for f in sorted(self.prof.tasks[t].mand_pre):
                    sess.add_clause([-v, pre[f]])
        if pos.has_blank:
            v = sess.new_var()
            self.blankvar[pos.path] = v
            tier1.append(v)
        encode_amo(sess, tier1, self.amo)
        encode_alo(sess, tier1)
        self._frame(pos, pre, post)

    def _frame(self, pos: Position, pre: list[int], post: list[int]) -> None:
        for f in range(len(self.p.facts)):
            if pre[f] == post[f]:
                continue
            up = [pre[f], -post[f]]
            down = [-pre[f], post[f]]
            for a in pos.acts:
                act = self.p.actions[a]
                if act.add_mask >> f & 1:
                    up.append(self.opvar[(pos.path, ACTION, a)])
                if act.del_mask >> f & 1:
                    down.append(self.opvar[(pos.path, ACTION, a)])
            for t in pos.tasks:
                prof = self.prof.tasks[t]
                if prof.pos_mask >> f & 1:
                    up.append(self.opvar[(pos.path, ABSTRACT, t)])
                if prof.neg_mask >> f & 1:
                    down.append(self.opvar[(pos.path, ABSTRACT, t)])
            self.sess.add_clause(up)
            self.sess.add_clause(down)

    def _encode_linkage(self, pos: Position) -> None:
        sess = self.sess
        kids = pos.children
        for t, methods in pos.admitted.items():
            tv = self.opvar[(pos.path, ABSTRACT, t)]
            mvars = []
            for mid in methods:
                mv = sess.new_var()
                self.mvar[(pos.path, mid)] = mv
                mvars.append(mv)
                sess.add_clause([-mv, tv])
                subs = self.p.methods[mid].subtasks
                for i, q in enumerate(kids):
                    if i < len(subs):
                        sess.add_clause([-mv, self.op_lit(q, subs[i])])
                    else:
                        sess.add_clause([-mv, self.blankvar[q.path]])
            sess.add_clause([-tv] + mvars)
            encode_amo(sess, mvars, _PAIRWISE)
        for a in pos.acts:
            av = self.opvar[(pos.path, ACTION, a)]
            sess.add_clause([-av, self.opvar[(kids[0].path, ACTION, a)]])
            for q in kids[1:]:
                sess.add_clause([-av, self.blankvar[q.path]])
        if pos.has_blank:
            bv = self.blankvar[pos.path]
            for q in kids:
                sess.add_clause([-bv, self.blankvar[q.path]])

    def _open_queries(self, layer_idx: int) -> None:
        sess = self.sess
        if self.queries:
            a_old, r_old = self.queries[-1]
            sess.add_clause([-a_old])
            sess.add_clause([-r_old])
        a, r = sess.new_var(), sess.new_var()
        # every position on a layer is unexpanded at its horizon: an
        # expanded position gives way to its children in the next layer
        for pos in self.pdt.layers[layer_idx]:
            for t in pos.tasks:
                sess.add_clause([-a, -self.opvar[(pos.path, ABSTRACT, t)]])
        self.queries.append((a, r))

    # -- solving and decoding ------------------------------------------------

    def solve_solution(self, deadline: float | None = None) -> DtCandidate | None:
        model = self.sess.solve([self.queries[-1][0]], deadline=deadline)
        if model is None:
            return None
        cand = self._decode(model, relaxed=False)
        final = self.p.apply_seq(self.p.init, cand.plan)
        if final is None or not self.p.is_goal(final):
            raise EncoderBugError("decoded plan failed re-execution")
        return cand

    def solve_relaxed(self, deadline: float | None = None) -> DtCandidate | None:
        model = self.sess.solve([self.queries[-1][1]], deadline=deadline)
        if model is None:
            return None
        return self._decode(model, relaxed=True)

    def _selected(self, model: list[bool], pos: Position) -> TaskRef | None:
        """The op chosen at a position; None means blank. Exactly one must
        be set."""
        hits = []
        for a in pos.acts:
            if model[self.opvar[(pos.path, ACTION, a)]]:
                hits.append(TaskRef(ACTION, a))
        for t in pos.tasks:
            if model[self.opvar[(pos.path, ABSTRACT, t)]]:
                hits.append(TaskRef(ABSTRACT, t))
        if pos.has_blank and model[self.blankvar[pos.path]]:
            hits.append(None)
        if len(hits) != 1:
            raise EncoderBugError(f"{len(hits)} ops selected at {pos.path}")
        return hits[0]

    def _decode(self, model: list[bool], relaxed: bool) -> DtCandidate:
        dt = new_tree()
        targets: list[Position] = []
        # depth-first in slot order; each entry is (position, the method
        # node whose children the new node joins, or None for the root)
        stack: list[tuple[Position, int | None]] = [(self.pdt.root, None)]
        while stack:
            pos, parent = stack.pop()
            ref = self._selected(model, pos)
            if ref is None:
                raise EncoderBugError(f"blank selected at tree position {pos.path}")
            if ref.is_action():
                node = dt.add(ACTION, ref.id)
            else:
                node = dt.add(ABSTRACT, ref.id)
                if pos.admitted is None:
                    if not relaxed:
                        raise EncoderBugError(
                            f"unexpanded task in a strict answer at {pos.path}")
                    targets.append(pos)
                else:
                    chosen = [m for m in pos.admitted[ref.id]
                              if model[self.mvar[(pos.path, m)]]]
                    if len(chosen) != 1:
                        raise EncoderBugError(
                            f"{len(chosen)} methods selected for task at {pos.path}")
                    mnode = dt.add(METHOD, chosen[0])
                    dt.nodes[node].children.append(mnode)
                    width = len(self.p.methods[chosen[0]].subtasks)
                    stack.extend((pos.children[i], mnode)
                                 for i in reversed(range(width)))
            if parent is None:
                dt.root = node
            else:
                dt.nodes[parent].children.append(node)
        frontier = dt.leaf_refs()
        plan = None if relaxed else [r.id for r in frontier]
        return DtCandidate(tree=dt, frontier=frontier, plan=plan,
                           targets=targets)
