"""Incremental CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation,
first-UIP learning, phase saving, Luby restarts and assumption-based
solving in the MiniSat style: assumptions are pushed as the first
decisions, and a falsified assumption means UNSAT under the assumptions
while the clause store may remain satisfiable.

The store is monotone: clauses can only be added, never retracted, and
learnt clauses are logical consequences of the store alone (assumptions
end up as ordinary literals inside learnt clauses), so they stay valid
across solve() calls. Everything is deterministic: ties in the activity
order break toward the lowest variable index and no randomness is used,
so identical call histories replay identically.

Clauses are only ever added at decision level 0: solve() cancels the
trail back to level 0 in one ``finally`` on every exit, an exception
included.
So add_clause attaches a clause without touching the search state, and
the common case, a binary clause over two unassigned variables, is two
list appends. For export, each stored clause is kept as added
(duplicates merged) in one flat ``array('i')`` of 0-terminated literals
rather than as a list of its own.

A clause watched over two literals is not a list either: as in
MiniSat's binary watches, its entry in the watch list of one literal is
the bare int of the other, so a watch list mixes ints and clause lists.
It takes the spot a two-element list would take, whether the clause
came through add_clause, was cut down to two free literals there, or
was learnt. _propagate keeps an int entry where it is and tests only the
other literal; a literal it implies records the false literal, an int,
as its reason, which _analyze reads as the one literal to resolve on;
and a conflict is returned as the fresh list [other, false literal].
This leaves the search unchanged. A two-element list never finds a new
watch, so it also stayed in place, and it was always turned to put the
false literal second before it became a reason or a conflict. So
clauses are visited in the same order, the same literals are implied,
and analysis meets the same literals in the same order: the trail, the
learnt clauses, the counters and the models are the same. What goes is
one list per binary clause, an object the cyclic garbage collector
tracks and walks; an int is not tracked.

What is stored is simplified by the level-0 assignment, as in MiniSat
(Een & Sorensson, SAT 2003): add_clause stores no tautology and no
clause with a literal true at level 0 as it is added, and nothing at all
once the store is UNSAT, since solve() then answers None at once. Of a
stored clause, literals false at level 0 are not watched; if one literal
is left it is put on the trail as a level-0 unit, and if none is left
the store is UNSAT. A level-0 assignment follows from the stored
clauses and is never undone, because the search never backtracks below
level 0. So the store stays equivalent to every clause added, and none
of this changes the search: a clause true at level 0 can never become
unit or conflicting, so leaving it out leaves every watcher in the same
order; a literal false at level 0 is never picked as a new watch, and
conflict analysis skips level-0 variables without bumping them. The
trail, the learnt clauses, the counters and the models are the same as
with every clause stored and watched in full.

add_pairwise adds the pairwise at-most-one clauses [-a, -b] of a whole
group in one call, and leaves the store, the watch lists and the trail
exactly as one add_clause per pair, in pair order, would. A group goes
pair by pair if the store is UNSAT or the group repeats a variable,
names an unallocated one or has a literal true at level 0: there
add_clause stores nothing, merges literals, raises part way or puts
units on the trail. Any other group is built in bulk over its literals
free at level 0, since each pair of a literal false at level 0 holds its
negation: their pairs are stored in pair order, and the watch list of
each free -a gains the free literals' negations before a, then those
after it, which is the order in which the pairs append them.

add_pairwise is the one bulk path because pairwise groups are where the
planner's clauses come from in bulk: a seed-1 pass of the benchmark's
walker workload sends it 380 groups and 21,995 pairs, and taking them
pair by pair through add_clause made that pass about 10% slower. Every
other clause, at-most-one implications included, goes in through
add_clause.

The decision order has two tiers. A variable of activity > 0 is queued
in a heap of (-activity, variable) entries kept across solve() calls,
as in MiniSat's order heap: a per-variable ``queued`` flag marks its one
live entry, keyed by its current activity, and every free one has one.
A bump only clears the flag, leaving the old entry stale; it pops after
the live one, as activities only grow between rescales. _cancel_to
pushes a variable it unassigns if its activity is > 0 and its flag is
clear; the branch pick clears the flag of every entry it pops. A
variable of activity 0, as every fresh one and most of a planner's are,
gets no entry: none free sits below the index ``low``, which _cancel_to
lowers, and once the heap runs dry the pick scans up from there. Any
activity > 0 outranks 0 and ties go to the lower index, so the pick is
the free variable with the highest (activity, -index), as with one heap
over all of them. A rescale may round an activity to 0 and shrinks all
below the queued keys, so it rebuilds the heap from the free variables
of activity > 0 and resets ``low`` to 1; so does a heap grown past twice
the variable count. Once the trail holds every variable, solve()
cancels to level 0, which saves every value above it as a phase, adds
the level-0 literals not yet saved, and returns a copy of the phases.

_propagate, _analyze, _cancel_to and the branch pick in solve() are the
hot loops: they keep attributes in locals and inline the value test,
the enqueue and the activity bump. While a formula loads, add_clause is
hot too: a list of two literals, or of three over distinct allocated
variables all free at level 0 while the store is not UNSAT, skips the
general path's duplicate and level-0 scans, and is stored and watched as
that path would. _cancel_to leaves an unassigned variable's reason
stale, since a reason is read only while its variable is assigned, and
its push order cannot change what pops: a pop takes the least key, and
the keys (-activity, v) order any two distinct entries. _propagate
leaves a long clause whose other watch is true as it is, without first
swapping the false literal into slot 1. That keeps the search: the
clause is watched by the same two literals either way, every later
visit puts the literal it visits for into slot 1 before it reads
anything past the watches, and a clause becomes a reason or a conflict
only in such a visit. Only the order of the two watches inside the list
may differ, and the store is not the list.
"""
from __future__ import annotations

import time
from array import array
from heapq import heapify, heappush, heappop
from typing import Iterable, Iterator, Optional, Sequence

_VAR_DECAY = 0.95
_RESCALE_AT = 1e100
_RESTART_BASE = 100
_DEADLINE_CHECK_EVERY = 256


class SolverUsageError(ValueError):
    """A literal referenced a variable that was never allocated."""


class SolverTimeout(Exception):
    """The deadline expired inside solve(), while encoding or while
    grounding."""


def luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1 1 2 1 1 2 4 ..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class SatSession:
    """One incremental solving session over a growing clause store."""

    def __init__(self):
        self.num_vars = 0
        # per-variable state, index 0 unused
        self.assign: list[int] = [0]  # 0 unassigned, 1 true, -1 false
        self.level: list[int] = [0]
        # an implied literal's reason: its clause, or for a binary clause
        # the clause's other literal
        self.reason: list[Optional[list[int] | int]] = [None]
        self.saved: list[bool] = [False]  # phase saving
        self.act: list[float] = [0.0]
        self.marks: list[bool] = [False]  # _analyze seen flags, cleared after use
        self.var_inc = 1.0
        # per literal, the clauses to visit when it becomes false: a
        # binary clause as its other literal, a longer one as its list
        self.watches: dict[int, list[list[int] | int]] = {}
        self.store = array("i")  # stored clauses as added, each 0-terminated
        self.num_clauses = 0
        self.n_learnt = 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.hard_unsat = False
        self.order: list[tuple[float, int]] = []  # (-activity, var) heap
        # per variable, whether its live entry is in order, which only a
        # variable of activity > 0 has; extended by solve() to the
        # variables created since its last call
        self.queued: list[bool] = [False]
        self.low = 1  # no free variable of activity 0 sits below it
        self.saved_head = 0  # trail[:saved_head] is in saved, at level 0
        # statistics
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- store construction -------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.saved.append(False)
        self.act.append(0.0)
        self.marks.append(False)
        self.watches[self.num_vars] = []
        self.watches[-self.num_vars] = []
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause over previously allocated variables.

        Duplicate literals are merged, the empty clause marks the store
        permanently UNSAT. A tautology, a clause with a literal true at
        level 0 or any clause once the store is UNSAT is not stored; any
        other is stored as added, and what gets watched is simplified by
        the level-0 assignment (see the module docstring).
        """
        nvars = self.num_vars
        store = self.store
        if type(lits) is list and len(lits) == 2:
            a, b = lits
            va, vb = abs(a), abs(b)
            if not 0 < va <= nvars:
                raise SolverUsageError(f"literal {a} uses unallocated variable")
            if not 0 < vb <= nvars:
                raise SolverUsageError(f"literal {b} uses unallocated variable")
            if a != b:
                if a == -b or self.hard_unsat:  # a tautology, or nothing to add
                    return
                assign = self.assign
                xa, xb = assign[va], assign[vb]
                if xa or xb:
                    if a < 0:
                        xa = -xa
                    if b < 0:
                        xb = -xb
                    if xa > 0 or xb > 0:
                        return  # satisfied at level 0
                    if xa and xb:
                        self.hard_unsat = True
                    else:
                        self._enqueue(b if xa else a, None)
                else:  # both free: watch both
                    self.watches[a].append(b)
                    self.watches[b].append(a)
                store.fromlist(lits)
                store.append(0)
                self.num_clauses += 1
                return
        if type(lits) is list and len(lits) == 3 and not self.hard_unsat:
            a, b, c = lits
            va, vb, vc = abs(a), abs(b), abs(c)
            assign = self.assign
            if (0 < va <= nvars and 0 < vb <= nvars and 0 < vc <= nvars
                    and va != vb != vc != va
                    and not (assign[va] or assign[vb] or assign[vc])):
                store.fromlist(lits)
                store.append(0)
                self.num_clauses += 1
                # sorted by variable, the lowest two watched
                if va > vb:
                    a, b, va, vb = b, a, vb, va
                if vb > vc:
                    b, c, vb = c, b, vc
                    if va > vb:
                        a, b = b, a
                clause = [a, b, c]
                self.watches[a].append(clause)
                self.watches[b].append(clause)
                return
        # general path: longer clauses, duplicates, non-lists
        seen: set[int] = set()
        clause = []
        taut = False
        for lit in lits:
            if not 0 < abs(lit) <= nvars:
                raise SolverUsageError(f"literal {lit} uses unallocated variable")
            if lit not in seen:
                if -lit in seen:
                    taut = True
                seen.add(lit)
                clause.append(lit)
        if taut or self.hard_unsat:
            return
        # keep the free literals; one true at level 0 satisfies the clause
        assign = self.assign
        free: list[int] = []
        for lit in clause:
            v = assign[lit] if lit > 0 else -assign[-lit]
            if not v:
                free.append(lit)
            elif v > 0:
                return
        store.fromlist(clause)
        store.append(0)
        self.num_clauses += 1
        if len(free) > 2:
            free.sort(key=abs)  # in variable order, the lowest two watched
            self.watches[free[0]].append(free)
            self.watches[free[1]].append(free)
        elif len(free) == 2:
            a, b = free
            self.watches[a].append(b)
            self.watches[b].append(a)
        elif free:
            self._enqueue(free[0], None)
        else:
            self.hard_unsat = True

    def add_pairwise(self, lits: Sequence[int]) -> None:
        """Add [-a, -b] for every pair of lits, a before b, in that order.

        The store, the watch lists and the trail end up exactly as after
        one add_clause call per pair, whether the pairs go in that way
        or in bulk (see the module docstring).
        """
        neg = [-x for x in lits]
        nvars, assign = self.num_vars, self.assign
        vs = {abs(x) for x in neg}
        free = neg
        if self.hard_unsat or len(vs) < len(neg) or not all(0 < v <= nvars for v in vs):
            free = None
        elif any(map(assign.__getitem__, vs)):
            # the level-0 value of each -x: true satisfies the pair,
            # false (x true) makes the other literal a unit
            vals = [assign[a] if a > 0 else -assign[-a] for a in neg]
            free = (None if min(vals) < 0
                    else [a for a, x in zip(neg, vals) if not x])
        if free is None:
            for i, a in enumerate(neg):
                for b in neg[i + 1:]:
                    self.add_clause([a, b])
            return
        n = len(free)
        flat: list[int] = []
        for i, a in enumerate(free):
            pairs = [a, 0, 0] * (n - 1 - i)
            pairs[1::3] = free[i + 1:]
            flat += pairs
        self.store.fromlist(flat)
        self.num_clauses += n * (n - 1) // 2
        watches = self.watches
        for i, a in enumerate(free):
            ws = watches[a]
            ws += free[:i]
            ws += free[i + 1:]

    # -- trail management ---------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int] | int]) -> None:
        """Assign lit at the current level; the hot loops inline this."""
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_to(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        bound = trail_lim[lvl]
        trail, saved, assign = self.trail, self.saved, self.assign
        act, order, queued = self.act, self.order, self.queued
        low = self.low
        for lit in trail[bound:]:
            if lit > 0:
                saved[lit] = True
                v = lit
            else:
                v = -lit
                saved[v] = False
            assign[v] = 0
            a = act[v]
            if a:
                if not queued[v]:
                    queued[v] = True
                    heappush(order, (-a, v))
            elif v < low:
                low = v
        self.low = low
        del trail[bound:]
        del trail_lim[lvl:]
        if self.qhead > bound:
            self.qhead = bound
        if len(order) > 2 * len(queued):
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """Refill the heap, in place, from the free variables of activity > 0."""
        act, assign, order, queued = self.act, self.assign, self.order, self.queued
        queued[1:] = [assign[v] == 0 and act[v] > 0 for v in range(1, len(queued))]
        order[:] = [(-act[v], v) for v in range(1, len(queued)) if queued[v]]
        heapify(order)
        self.low = 1

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; return a conflicting clause or None."""
        trail, assign, level, reason = self.trail, self.assign, self.level, self.reason
        watches = self.watches
        dl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if type(c) is int:  # binary clause [c, false_lit]: stays
                    ws[j] = c
                    j += 1
                    val = assign[c] if c > 0 else -assign[-c]
                    if val == 1:
                        continue
                    if val == -1:
                        ws[j:] = ws[i:n]
                        self.propagations += qhead - start
                        self.qhead = qhead
                        return [c, false_lit]
                    if c > 0:
                        assign[c] = 1
                        v = c
                    else:
                        v = -c
                        assign[v] = -1
                    level[v] = dl
                    reason[v] = false_lit
                    trail.append(c)
                    continue
                first = c[0]
                if first == false_lit:
                    first = c[1]
                # first is the other watch; a clause it satisfies is left
                # as it is (see the module docstring)
                val = assign[first] if first > 0 else -assign[-first]
                if val == 1:
                    ws[j] = c
                    j += 1
                    continue
                # the other watch goes to slot 0, a new one or the false
                # literal to slot 1
                c[0] = first
                lit = c[2]
                if (assign[lit] if lit > 0 else -assign[-lit]) >= 0:
                    c[1] = lit
                    c[2] = false_lit
                    watches[lit].append(c)
                    continue
                c[1] = false_lit
                k, m = 3, len(c)
                while k < m:
                    lit = c[k]
                    if (assign[lit] if lit > 0 else -assign[-lit]) >= 0:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                    k += 1
                else:  # no new watch: the clause is unit or conflicting
                    ws[j] = c
                    j += 1
                    if val == -1:
                        # conflict: keep remaining watchers, report
                        ws[j:] = ws[i:n]
                        self.propagations += qhead - start
                        self.qhead = qhead
                        return c
                    if first > 0:
                        assign[first] = 1
                        v = first
                    else:
                        v = -first
                        assign[v] = -1
                    level[v] = dl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning. Returns (learnt clause, backjump level).
        Each newly seen variable above level 0 is bumped, in clause order."""
        learnt: list[int] = []
        seen, level, trail, reason = self.marks, self.level, self.trail, self.reason
        act, queued = self.act, self.queued
        var_inc = self.var_inc
        counter = 0
        p = 0  # implied literal whose reason is being resolved (0 on first round)
        idx = len(trail) - 1
        cur = len(self.trail_lim)
        while True:
            for q in confl:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    a = act[v] = act[v] + var_inc
                    queued[v] = False  # its entry, if any, is stale now
                    if a > _RESCALE_AT:
                        for u in range(1, self.num_vars + 1):
                            act[u] *= 1e-100
                        var_inc *= 1e-100
                        self._rebuild_order()
                    if level[v] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            v = p if p > 0 else -p
            while not seen[v]:
                idx -= 1
                p = trail[idx]
                v = p if p > 0 else -p
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            confl = reason[v]  # type: ignore[assignment]
            if type(confl) is int:  # a binary reason: its other literal
                confl = (confl,)
        self.var_inc = var_inc
        learnt.insert(0, -p)
        for q in learnt:  # the tail is all that is still marked
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        # place the highest-level tail literal second for watching
        mx = 1
        for k in range(2, len(learnt)):
            if level[abs(learnt[k])] > level[abs(learnt[mx])]:
                mx = k
        learnt[1], learnt[mx] = learnt[mx], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _record_learnt(self, learnt: list[int]) -> None:
        self.n_learnt += 1
        if len(learnt) == 2:
            a, b = learnt
            self.watches[a].append(b)
            self.watches[b].append(a)
            self._enqueue(a, b)
        elif len(learnt) > 2:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._enqueue(learnt[0], learnt)
        else:
            self._enqueue(learnt[0], None)

    # -- search -------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), deadline: Optional[float] = None):
        """Solve under assumptions.

        Returns a model as a list indexed by variable (entry 0 unused,
        entries are bools) when satisfiable, or None when unsatisfiable
        under the assumptions. Raises SolverTimeout past the deadline.
        The model is a copy of the saved phases, not the phases themselves.
        """
        for lit in assumptions:
            if not 0 < abs(lit) <= self.num_vars:
                raise SolverUsageError(f"assumption {lit} uses unallocated variable")
        if self.hard_unsat:
            return None
        try:
            if self._propagate() is not None:
                self.hard_unsat = True
                return None
            assign, saved = self.assign, self.saved
            trail, trail_lim, level, reason = self.trail, self.trail_lim, self.level, self.reason
            order = self.order
            # the variables created since the last call get no entry:
            # their activity is 0, and low never passes len(queued)
            self.queued += [False] * (self.num_vars + 1 - len(self.queued))
            queued, num_vars = self.queued, self.num_vars
            n_assumptions = len(assumptions)

            restart_n = 0
            limit = _RESTART_BASE * luby(1)
            since_restart = 0
            since_check = 0  # loop turns since the clock was last read
            while True:
                since_check += 1
                if since_check >= _DEADLINE_CHECK_EVERY and deadline is not None:
                    since_check = 0
                    if time.monotonic() > deadline:
                        raise SolverTimeout
                confl = self._propagate()
                if confl is not None:
                    self.conflicts += 1
                    since_restart += 1
                    if not trail_lim:
                        self.hard_unsat = True
                        return None
                    learnt, bj = self._analyze(confl)
                    self._cancel_to(bj)
                    self._record_learnt(learnt)
                    self.var_inc /= _VAR_DECAY
                    continue
                if since_restart >= limit:
                    restart_n += 1
                    self.restarts += 1
                    since_restart = 0
                    limit = _RESTART_BASE * luby(restart_n + 1)
                    self._cancel_to(0)
                    continue
                # assumption levels first, then activity-driven decisions
                dl = len(trail_lim)
                if dl < n_assumptions:
                    lit = assumptions[dl]
                    v = abs(lit)
                    val = assign[v] if lit > 0 else -assign[v]
                    if val == -1:
                        return None
                    trail_lim.append(len(trail))
                    if val == 0:
                        self._enqueue(lit, None)
                    continue
                if len(trail) == num_vars:  # every variable is assigned
                    self._cancel_to(0)  # saves every value above level 0
                    for lit in trail[self.saved_head:]:
                        saved[abs(lit)] = lit > 0
                    self.saved_head = len(trail)
                    return saved[:]  # entry 0 is never written
                # branch on the most active free variable: a bumped one
                # from the heap, else the lowest free one from low on
                while order:
                    v = heappop(order)[1]
                    queued[v] = False
                    if assign[v] == 0:
                        break
                else:
                    v = self.low
                    while assign[v]:
                        v += 1
                    self.low = v + 1
                self.decisions += 1
                trail_lim.append(len(trail))
                lit = v if saved[v] else -v
                assign[v] = 1 if lit > 0 else -1
                level[v] = dl + 1
                reason[v] = None
                trail.append(lit)
        finally:
            self._cancel_to(0)

    # -- reporting ----------------------------------------------------------

    def clauses(self) -> Iterator[list[int]]:
        """The stored clauses in the order added, duplicates merged."""
        clause: list[int] = []
        for lit in self.store:
            if lit:
                clause.append(lit)
            else:
                yield clause
                clause = []

    def stats(self) -> dict:
        return {
            "vars": self.num_vars,
            "clauses": self.num_clauses,
            "learnt": self.n_learnt,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }
