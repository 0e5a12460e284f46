"""Incremental CNF encoding of the refinement grid.

Variables: one selector per candidate op at every position, one
selector per method of each task at its expanded position, one blank
filler where a position may stay unused, and one boolean per fact at
every state column. Columns sit between neighbouring positions of a
layer; a child row reuses its parent's boundary columns at both ends and
allocates fresh fact variables only where the position to the left can
actually change the fact. The final column is therefore shared by every
layer, which lets the goal be asserted once as permanent units.

A position carried unexpanded into the next layer is encoded once, in
the layer where it first appears, and keeps its variables and columns
from then on, so leaving a branch untouched for ten layers costs nothing.

Each layer gets one throwaway strict query selector, which forbids
every abstract task still unexpanded on that layer; a unit clause
retires it when the next layer arrives, so the clause store only ever
grows. The relaxed query needs no selector: it solves the store with no
assumption, and unexpanded tasks act through their mandatory
preconditions and possible effects.

A relaxed answer is read off the bottom layer in one pass. The linkage
clauses force every position's op from its parent's, and an unexpanded
position is carried down as the same object, so the bottom layer's
non-blank selections are the answer's leaves in order, and those that
select an abstract task are the positions to develop next. Only a
strict answer, which ends the search, is decoded into a tree.
"""
from __future__ import annotations

import time
from typing import NamedTuple

from .inference import Profiles
from .model import ABSTRACT, ACTION, METHOD, DecompositionTree, Problem, TaskRef, bits, new_tree
from .pdt import Pdt, Position
from .sat import PAIRWISE, SatSession, SolverTimeout, encode_amo


class EncoderBugError(RuntimeError):
    """A decoded model failed an internal consistency check."""


class RelaxedAnswer(NamedTuple):
    """What a relaxed answer tells the search: the leaves in order, and
    the bottom positions whose selected task is still abstract."""

    frontier: list[TaskRef]
    targets: list[Position]


class Encoder:
    def __init__(
        self,
        problem: Problem,
        profiles: Profiles,
        pdt: Pdt,
        amo: str = PAIRWISE,
        use_mutex: bool = True,
        mandatory_preconds: bool = True,
        deadline: float | None = None,
    ):
        self.p = problem
        self.prof = profiles
        self.pdt = pdt
        self.amo = amo
        self.use_mutex = use_mutex
        self.mandatory_preconds = mandatory_preconds
        self.sess = SatSession()
        # per position: its op selectors (None for the blank), in acts,
        # tasks, blank order; its method selectors; its two columns
        self.ops: dict[Position, dict[TaskRef | None, int]] = {}
        self.mvar: dict[Position, dict[int, int]] = {}
        self.cols: dict[Position, tuple[list[int], list[int]]] = {}
        self.strict = 0  # the newest layer's strict query selector
        self.encoded = 0
        self.sync(deadline)

    # -- encoding ------------------------------------------------------------

    def _change_mask(self, pos: Position) -> int:
        mask = 0
        for a in pos.acts:
            act = self.p.actions[a]
            mask |= act.eff_pos | act.eff_neg
        for t in pos.tasks:
            mask |= self.prof.poss_eff_pos[t] | self.prof.poss_eff_neg[t]
        return mask

    def sync(self, deadline: float | None = None) -> None:
        """Encode every grid layer not yet in the clause store. Raises
        SolverTimeout before a layer once the deadline has passed."""
        while self.encoded < len(self.pdt.layers):
            if deadline is not None and time.monotonic() > deadline:
                raise SolverTimeout
            if self.encoded == 0:
                self._encode_root()
            else:
                self._encode_layer(self.encoded)
            self._open_query(self.encoded)
            self.encoded += 1

    def _encode_root(self) -> None:
        sess = self.sess
        root = self.pdt.root
        pre = [sess.new_var() for _ in self.p.facts]
        for f in range(len(self.p.facts)):
            sess.add_clause([pre[f] if self.p.init >> f & 1 else -pre[f]])
        post = self._next_column(pre, root)
        self.cols[root] = (pre, post)
        self._mutex_column(pre, (1 << len(self.p.facts)) - 1)  # all fresh
        # the root slot has a single candidate, so its at-least-one clause
        # already pins the initial task there
        self._encode_position(root)
        for f in bits(self.p.goal):
            sess.add_clause([post[f]])

    def _encode_layer(self, idx: int) -> None:
        expanded = []
        for parent in self.pdt.layers[idx - 1]:
            kids = parent.children
            if not (kids and kids[0].layer == idx):
                continue
            expanded.append(parent)
            ppre, ppost = self.cols[parent]
            bound = ppre
            for i, q in enumerate(kids):
                nxt = ppost if i == len(kids) - 1 else self._next_column(bound, q)
                self.cols[q] = (bound, nxt)
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
        self._mutex_column(col, change)
        return col

    def _mutex_column(self, col: list[int], change: int) -> None:
        """AMO over each mutex group with a fact in change. Every other
        group keeps the variables of an earlier column, whose AMO over
        them is in the store already."""
        if not self.use_mutex:
            return
        for group in self.prof.mutex_groups:
            if any(change >> f & 1 for f in group):
                encode_amo(self.sess, [col[f] for f in group], self.amo)

    def _encode_position(self, pos: Position) -> None:
        sess, prof = self.sess, self.prof
        pre, post = self.cols[pos]
        ops = self.ops[pos] = {}
        effects = []  # (selector, facts it may add, facts it may delete)
        for a in pos.acts:
            v = ops[TaskRef(ACTION, a)] = sess.new_var()
            act = self.p.actions[a]
            effects.append((v, act.eff_pos, act.eff_neg))
            for f in bits(act.precond):
                sess.add_clause([-v, pre[f]])
            for f in bits(act.eff_pos):
                sess.add_clause([-v, post[f]])
            for f in bits(act.eff_neg):
                sess.add_clause([-v, -post[f]])
        for t in pos.tasks:
            v = ops[TaskRef(ABSTRACT, t)] = sess.new_var()
            effects.append((v, prof.poss_eff_pos[t], prof.poss_eff_neg[t]))
            if self.mandatory_preconds:
                for f in bits(prof.mand_pre[t]):
                    sess.add_clause([-v, pre[f]])
        if pos.has_blank:
            ops[None] = sess.new_var()
        tier1 = list(ops.values())
        encode_amo(sess, tier1, self.amo)
        sess.add_clause(tier1)
        self._frame(effects, pre, post)

    def _frame(self, effects: list[tuple[int, int, int]],
               pre: list[int], post: list[int]) -> None:
        for f in range(len(self.p.facts)):
            if pre[f] == post[f]:
                continue
            self.sess.add_clause([pre[f], -post[f]]
                                 + [v for v, add, _ in effects if add >> f & 1])
            self.sess.add_clause([-pre[f], post[f]]
                                 + [v for v, _, dele in effects if dele >> f & 1])

    def _encode_linkage(self, pos: Position) -> None:
        sess = self.sess
        ops = self.ops[pos]
        kids = [self.ops[q] for q in pos.children]
        mvar = self.mvar[pos] = {}
        for t in pos.tasks:
            tv = ops[TaskRef(ABSTRACT, t)]
            mvars = []
            for mid in self.p.abstracts[t].methods:
                mv = mvar[mid] = sess.new_var()
                mvars.append(mv)
                sess.add_clause([-mv, tv])
                subs = self.p.methods[mid].subtasks
                for i, kid in enumerate(kids):
                    sess.add_clause([-mv, kid[subs[i] if i < len(subs) else None]])
            sess.add_clause([-tv] + mvars)
            encode_amo(sess, mvars, self.amo)
        for a in pos.acts:
            av = ops[TaskRef(ACTION, a)]
            sess.add_clause([-av, kids[0][TaskRef(ACTION, a)]])
            for kid in kids[1:]:
                sess.add_clause([-av, kid[None]])
        if pos.has_blank:
            bv = ops[None]
            for kid in kids:
                sess.add_clause([-bv, kid[None]])

    def _open_query(self, layer_idx: int) -> None:
        sess = self.sess
        if self.strict:
            sess.add_clause([-self.strict])
        a = self.strict = sess.new_var()
        # every position on a layer is unexpanded at its horizon: an
        # expanded position gives way to its children in the next layer
        for pos in self.pdt.layers[layer_idx]:
            for t in pos.tasks:
                sess.add_clause([-a, -self.ops[pos][TaskRef(ABSTRACT, t)]])

    # -- solving and decoding ------------------------------------------------

    def solve_solution(self, deadline: float | None = None) -> DecompositionTree | None:
        model = self.sess.solve([self.strict], deadline=deadline)
        if model is None:
            return None
        tree = self._decode(model)
        final = self.p.apply_seq(self.p.init, tree.plan())
        if final is None or not self.p.is_goal(final):
            raise EncoderBugError("decoded plan failed re-execution")
        return tree

    def solve_relaxed(self, deadline: float | None = None) -> RelaxedAnswer | None:
        model = self.sess.solve(deadline=deadline)
        if model is None:
            return None
        picks = [(pos, self._selected(model, pos)) for pos in self.pdt.bottom()]
        return RelaxedAnswer(
            [ref for _, ref in picks if ref is not None],
            [pos for pos, ref in picks if ref is not None and not ref.is_action()])

    def _selected(self, model: list[bool], pos: Position) -> TaskRef | None:
        """The op chosen at a position; None means blank. Exactly one must
        be set."""
        hits = [ref for ref, v in self.ops[pos].items() if model[v]]
        if len(hits) != 1:
            raise EncoderBugError(
                f"{len(hits)} ops selected at a position from layer {pos.layer}")
        return hits[0]

    def _decode(self, model: list[bool]) -> DecompositionTree:
        """The fully primitive decomposition tree a strict answer selects."""
        dt = new_tree()
        # depth-first in slot order; each entry is (position, the method
        # node whose children the new node joins, or None for the root)
        stack: list[tuple[Position, int | None]] = [(self.pdt.root, None)]
        while stack:
            pos, parent = stack.pop()
            ref = self._selected(model, pos)
            if ref is None:
                raise EncoderBugError(
                    f"blank selected at a tree position from layer {pos.layer}")
            if ref.is_action():
                node = dt.add(ACTION, ref.id)
            else:
                node = dt.add(ABSTRACT, ref.id)
                if not pos.children:
                    raise EncoderBugError(
                        f"unexpanded task in a strict answer on layer {pos.layer}")
                chosen = [m for m in self.p.abstracts[ref.id].methods
                          if model[self.mvar[pos][m]]]
                if len(chosen) != 1:
                    raise EncoderBugError(f"{len(chosen)} methods selected for "
                                          f"a task on layer {pos.layer}")
                mnode = dt.add(METHOD, chosen[0])
                dt.nodes[node].children.append(mnode)
                width = len(self.p.methods[chosen[0]].subtasks)
                stack.extend((pos.children[i], mnode)
                             for i in reversed(range(width)))
            if parent is None:
                dt.root = node
            else:
                dt.nodes[parent].children.append(node)
        return dt
