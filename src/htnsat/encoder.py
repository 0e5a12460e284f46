"""Incremental CNF encoding of the refinement grid.

Variables: one selector per candidate op at every position (bar the
actions that level 0 rules out, below), one selector per live method of
each task that level 0 leaves open at its expanded position, one blank
filler where a position may stay unused, and one boolean per fact at
every state column. Columns sit between neighbouring positions of a
layer; a child row reuses its parent's boundary columns at both ends
and allocates fresh fact variables only where the position to the left
can actually change the fact. The final column is therefore shared by
every layer, which lets the goal be asserted once as permanent units.

A round encodes the children of the positions it expanded. A position
keeps its variables and columns from then on, so leaving a branch
untouched for ten rounds costs nothing.

The strict query adds nothing to the store: it solves under one
assumption -tv per abstract task still unexpanded on the bottom layer,
read off the grid when it is asked, and none for a task false at level
0. So no variable or clause exists only to pose a query. The relaxed
query solves the store with no assumption, and unexpanded tasks act
through their mandatory preconditions and possible effects.

The encoder reads the session's level-0 assignment, which no search
undoes, to decide which selectors exist and which clauses to build. An
action with a precondition fact false at level 0 in its position's pre
column gets no selector: no variable, no clause, no place in the
position's at-most-one group, its at-least-one clause or the frame
axioms' support lists. A task whose selector is false at level 0 when
its position is linked gets no method block. A method with a subtask
slot that has no selector gets none either, and a parent action whose
child has no selector is forbidden by a unit. A precondition or linkage
clause that a literal true at level 0 satisfies is not built, nor is a
frame axiom that its fact literal at either column satisfies, since
add_clause would return from it without touching the store, the watches
or the trail. A frame axiom satisfied only through a supporter's
selector is still built, and add_clause drops it. Every other clause
built is added in full.

So the search is the one the full encoding would make: each selector
left out would be false at level 0 before the first decision, and every
clause left out with it would be satisfied there and never watched.
The same clauses are watched in the same order over the same variables,
renumbered in order. Where a group has auxiliaries (the product
encoding's row and column bits above AUTO_THRESHOLD literals), they
encode the same constraint over the live selectors only, and may watch
other clauses.

A task's method selectors need an at-most-one only among methods with
the same slots: the same selector at every child position. Two methods
whose slots differ imply different selectors at some child position,
and that position's at-most-one over its ops and blank already forbids
both. So a task gets one method group per set of methods with equal
slots, and none if its methods all differ; with the task's at-least-one
clause over its methods, a strict answer still selects exactly one
method for each task it selects.

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

from .model import ABSTRACT, ACTION, DecompositionTree, TaskRef, bits
from .pdt import Pdt, Position
from .sat import SatSession, SolverTimeout, encode_amo


class EncoderBugError(RuntimeError):
    """A decoded model failed an internal consistency check."""


class RelaxedAnswer(NamedTuple):
    """What a relaxed answer tells the search: the leaves in order, and
    the bottom positions whose selected task is still abstract."""

    frontier: list[TaskRef]
    targets: list[Position]


class Encoder:
    """The clause store of one grid, built from the grid alone: its
    problem, and its profiles, every mutex group of which is encoded (a
    run without mutexes builds its grid over profiles without groups).
    The constructor encodes the root and every round the grid already
    has; sync encodes the rounds added since."""

    def __init__(self, pdt: Pdt):
        self.p = pdt.problem
        self.prof = pdt.profiles
        self.pdt = pdt
        self.sess = SatSession()
        # per position: its op selectors (None for the blank), in acts,
        # tasks, blank order; its method selectors; its two columns
        self.ops: dict[Position, dict[TaskRef | None, int]] = {}
        self.mvar: dict[Position, dict[int, int]] = {}
        self.cols: dict[Position, tuple[list[int], list[int]]] = {}
        # per action that has reached a position: its ref, precondition,
        # add and delete facts
        self.act_facts: dict[int, tuple[TaskRef, list[int], list[int], list[int]]] = {}
        self.encoded = 0  # grid rounds in the store
        self._encode_root()
        self.sync()

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
        """Encode every grid round not yet in the clause store. Raises
        SolverTimeout before a round once the deadline has passed."""
        while self.encoded < len(self.pdt.rounds):
            if deadline is not None and time.monotonic() > deadline:
                raise SolverTimeout
            self._encode_round(self.pdt.rounds[self.encoded])
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

    def _encode_round(self, expanded: list[Position]) -> None:
        for parent in expanded:
            kids = parent.children
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
        for group in self.prof.mutex_groups:
            if any(change >> f & 1 for f in group):
                encode_amo(self.sess, [col[f] for f in group])

    def _encode_position(self, pos: Position) -> None:
        sess, prof = self.sess, self.prof
        assign = sess.assign
        pre, post = self.cols[pos]
        ops = self.ops[pos] = {}
        effects = []  # (selector, facts it may add, facts it may delete)
        for a in pos.acts:
            facts = self.act_facts.get(a)
            if facts is None:
                act = self.p.actions[a]
                facts = self.act_facts[a] = (TaskRef(ACTION, a), bits(act.precond),
                                             bits(act.eff_pos), bits(act.eff_neg))
            ref, need, add, dele = facts
            for f in need:
                if assign[pre[f]] < 0:  # a precondition fact false at level 0
                    break  # rules the action out
            else:
                v = ops[ref] = sess.new_var()
                effects.append((v, add, dele))
                for f in need:
                    if assign[pre[f]] == 0:  # if true, it satisfies [-v, pre[f]]
                        sess.add_clause([-v, pre[f]])
                for f in add:
                    sess.add_clause([-v, post[f]])
                for f in dele:
                    sess.add_clause([-v, -post[f]])
        for t in pos.tasks:
            v = ops[TaskRef(ABSTRACT, t)] = sess.new_var()
            effects.append((v, bits(prof.poss_eff_pos[t]), bits(prof.poss_eff_neg[t])))
            for f in bits(prof.mand_pre[t]):
                if assign[pre[f]] <= 0:  # if true, it satisfies [-v, pre[f]]
                    sess.add_clause([-v, pre[f]])
        if pos.has_blank:
            ops[None] = sess.new_var()
        tier1 = list(ops.values())
        encode_amo(sess, tier1)
        sess.add_clause(tier1)
        self._frame(effects, pre, post)

    def _frame(self, effects: list[tuple[int, list[int], list[int]]],
               pre: list[int], post: list[int]) -> None:
        """Explanatory frame axioms for each fact that may change, with
        its adders and deleters listed in effect order by one pass over
        the effects. An axiom that pre[f] or post[f] satisfies at level 0
        is not built; the first axiom puts a unit on the trail only where
        level 0 already satisfied the second."""
        adds: dict[int, list[int]] = {}
        dels: dict[int, list[int]] = {}
        for v, add, dele in effects:
            for f in add:
                if f in adds:
                    adds[f].append(v)
                else:
                    adds[f] = [v]
            for f in dele:
                if f in dels:
                    dels[f].append(v)
                else:
                    dels[f] = [v]
        sess = self.sess
        assign = sess.assign
        for f, (x, y) in enumerate(zip(pre, post)):
            if x == y:
                continue
            ax, ay = assign[x], assign[y]
            if ax <= 0 <= ay:
                sess.add_clause([x, -y] + adds.get(f, []))
            if ay <= 0 <= ax:
                sess.add_clause([-x, y] + dels.get(f, []))

    def _encode_linkage(self, pos: Position) -> None:
        sess = self.sess
        assign = sess.assign
        ops = self.ops[pos]
        kids = [self.ops[q] for q in pos.children]
        mvar = self.mvar[pos] = {}
        for t in pos.tasks:
            tv = ops[TaskRef(ABSTRACT, t)]
            if assign[tv] < 0:  # ruled out at level 0: no method block
                continue
            open_tv = assign[tv] == 0  # if true, tv satisfies every [-mv, tv]
            mvars = []
            same_slots: dict[tuple[int, ...], list[int]] = {}
            for mid in self.p.abstracts[t].methods:
                subs = self.p.methods[mid].subtasks
                slots = tuple(kid.get(subs[i] if i < len(subs) else None)
                              for i, kid in enumerate(kids))
                if None in slots:  # a slot without a selector: no method
                    continue
                mv = mvar[mid] = sess.new_var()
                mvars.append(mv)
                same_slots.setdefault(slots, []).append(mv)
                if open_tv:
                    sess.add_clause([-mv, tv])
                for kv in slots:
                    if assign[kv] <= 0:
                        sess.add_clause([-mv, kv])
            sess.add_clause([-tv] + mvars)
            # methods with different slots already exclude each other
            # through a child position's at-most-one
            for group in same_slots.values():
                encode_amo(sess, group)
        for a in pos.acts:
            ref = self.act_facts[a][0]
            av = ops.get(ref)
            if av is None:
                continue
            kv = kids[0].get(ref)
            if kv is None:  # ruled out at level 0 since the parent's encoding
                sess.add_clause([-av])
                continue
            sess.add_clause([-av, kv])
            for kid in kids[1:]:
                sess.add_clause([-av, kid[None]])
        if pos.has_blank:
            bv = ops[None]
            for kid in kids:
                if assign[bv] >= 0 and assign[kid[None]] <= 0:
                    sess.add_clause([-bv, kid[None]])

    # -- solving and decoding ------------------------------------------------

    def solve_solution(self, deadline: float | None = None) -> DecompositionTree | None:
        assign = self.sess.assign
        # rule out every task still unexpanded, which sits on a bottom
        # position; one false at level 0 needs no assumption
        off = [-tv for pos in self.pdt.pending_positions()
               for t in pos.tasks
               if assign[tv := self.ops[pos][TaskRef(ABSTRACT, t)]] >= 0]
        model = self.sess.solve(off, deadline=deadline)
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
        dt = DecompositionTree()
        # depth-first in slot order; each entry is (position, the node of
        # the task whose children the new node joins, or None for the root)
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
                if not pos.children:
                    raise EncoderBugError(
                        f"unexpanded task in a strict answer on layer {pos.layer}")
                chosen = [m for m in self.p.abstracts[ref.id].methods
                          if model[self.mvar[pos].get(m, 0)]]  # model[0] is False
                if len(chosen) != 1:
                    raise EncoderBugError(f"{len(chosen)} methods selected for "
                                          f"a task on layer {pos.layer}")
                node = dt.add(ABSTRACT, ref.id, chosen[0])
                width = len(self.p.methods[chosen[0]].subtasks)
                stack.extend((pos.children[i], node)
                             for i in reversed(range(width)))
            if parent is None:
                dt.root = node
            else:
                dt.nodes[parent].children.append(node)
        return dt
