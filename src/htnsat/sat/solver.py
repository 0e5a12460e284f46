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

Clauses are only ever added at decision level 0: every exit from
solve(), a timeout included, cancels the trail back to level 0 first.
So add_clause attaches a clause without touching the search state, and
the common case, a binary clause over two unassigned variables, is two
list appends. For export, each clause is kept as added (duplicates
merged, tautologies included) in one flat ``array('i')`` of
0-terminated literals rather than as a list of its own.
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
    """The per-call deadline expired inside solve()."""


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
        self.nvars = 0
        # per-variable state, index 0 unused
        self.assign: list[int] = [0]  # 0 unassigned, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[Optional[list[int]]] = [None]
        self.saved: list[bool] = [False]  # phase saving
        self.act: list[float] = [0.0]
        self.marks: list[bool] = [False]  # _analyze seen flags, cleared after use
        self.var_inc = 1.0
        self.watches: dict[int, list[list[int]]] = {}
        self.store = array("i")  # problem clauses as added, each 0-terminated
        self.n_clauses = 0
        self.n_learnt = 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.hard_unsat = False
        self.order: list[tuple[float, int]] = []  # (-activity, var) heap
        # statistics
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- store construction -------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.saved.append(False)
        self.act.append(0.0)
        self.marks.append(False)
        self.watches[self.nvars] = []
        self.watches[-self.nvars] = []
        return self.nvars

    def value(self, lit: int) -> int:
        """1 if lit true, -1 if false, 0 if unassigned."""
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause over previously allocated variables.

        Duplicate literals are merged, tautologies accepted and dropped,
        the empty clause marks the store permanently UNSAT.
        """
        nvars = self.nvars
        store = self.store
        if type(lits) is list and len(lits) == 2:
            a, b = lits
            va, vb = abs(a), abs(b)
            if not 0 < va <= nvars:
                raise SolverUsageError(f"literal {a} uses unallocated variable")
            if not 0 < vb <= nvars:
                raise SolverUsageError(f"literal {b} uses unallocated variable")
            if a == -b:  # tautology: exported, never watched
                store.fromlist(lits)
                store.append(0)
                self.n_clauses += 1
                return
            assign = self.assign
            if a != b and not (assign[va] or assign[vb] or self.trail_lim):
                # both free: watch both, lower variable first
                store.fromlist(lits)
                store.append(0)
                self.n_clauses += 1
                clause = [a, b] if va < vb else [b, a]
                self.watches[a].append(clause)
                self.watches[b].append(clause)
                return
        # general path, also for binaries over assigned variables
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
        store.fromlist(clause)
        store.append(0)
        self.n_clauses += 1
        if taut:
            return
        if not clause:
            self.hard_unsat = True
            return
        if self.trail_lim:
            self._cancel_to(0)
        # non-false literals first, each part in variable order, so the
        # watch slots hold non-false literals where there are any
        assign = self.assign
        free: list[int] = []
        false: list[int] = []
        clause.sort(key=abs)
        for lit in clause:
            v = assign[abs(lit)]
            if (v if lit > 0 else -v) < 0:
                false.append(lit)
            else:
                free.append(lit)
        if not free:
            self.hard_unsat = True
            return
        if len(free) == 1:
            if self.value(free[0]) == 0:
                self._enqueue(free[0], None)
            if len(clause) == 1:
                return  # plain unit, nothing to watch
        clause = free + false
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- trail management ---------------------------------------------------

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = self._decision_level()
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_to(self, lvl: int) -> None:
        if self._decision_level() <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.saved[v] = lit > 0
            self.assign[v] = 0
            self.reason[v] = None
            heappush(self.order, (-self.act[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = min(self.qhead, len(self.trail))

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; return a conflicting clause or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            ws = self.watches[-lit]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                # make sure the false literal sits in slot 1
                if c[0] == -lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self.value(first) == 1:
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self.value(c[k]) >= 0:
                        c[1], c[k] = c[k], c[1]
                        self.watches[c[1]].append(c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if self.value(first) == -1:
                    # conflict: keep remaining watchers, report
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    return c
                self._enqueue(first, c)
            del ws[j:]
        return None

    # -- conflict analysis --------------------------------------------------

    def _bump(self, v: int) -> None:
        self.act[v] += self.var_inc
        if self.act[v] > _RESCALE_AT:
            for u in range(1, self.nvars + 1):
                self.act[u] *= 1e-100
            self.var_inc *= 1e-100
        heappush(self.order, (-self.act[v], v))

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning. Returns (learnt clause, backjump level)."""
        learnt: list[int] = []
        seen = self.marks
        counter = 0
        p = 0  # implied literal whose reason is being resolved (0 on first round)
        idx = len(self.trail) - 1
        cur = self._decision_level()
        while True:
            for q in confl:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]  # type: ignore[assignment]
        learnt.insert(0, -p)
        for q in learnt:  # the tail is all that is still marked
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        # place the highest-level tail literal second for watching
        mx = 1
        for k in range(2, len(learnt)):
            if self.level[abs(learnt[k])] > self.level[abs(learnt[mx])]:
                mx = k
        learnt[1], learnt[mx] = learnt[mx], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _record_learnt(self, learnt: list[int]) -> None:
        self.n_learnt += 1
        if len(learnt) > 1:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._enqueue(learnt[0], learnt)
        else:
            self._enqueue(learnt[0], None)

    # -- search -------------------------------------------------------------

    def _pick_branch(self) -> int:
        while self.order:
            _, v = heappop(self.order)
            if self.assign[v] == 0:
                return v
        for v in range(1, self.nvars + 1):  # vars never bumped nor cancelled
            if self.assign[v] == 0:
                return v
        return 0

    def solve(self, assumptions: Sequence[int] = (), deadline: Optional[float] = None):
        """Solve under assumptions.

        Returns a model as a list indexed by variable (entry 0 unused,
        entries are bools) when satisfiable, or None when unsatisfiable
        under the assumptions. Raises SolverTimeout past the deadline.
        """
        for lit in assumptions:
            if not 0 < abs(lit) <= self.nvars:
                raise SolverUsageError(f"assumption {lit} uses unallocated variable")
        if self.hard_unsat:
            return None
        self._cancel_to(0)
        if self._propagate() is not None:
            self.hard_unsat = True
            return None
        act, assign = self.act, self.assign
        self.order = [(-act[v], v) for v in range(1, self.nvars + 1)
                      if assign[v] == 0]
        heapify(self.order)

        restart_n = 0
        limit = _RESTART_BASE * luby(1)
        since_restart = 0
        since_check = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                since_check += 1
                if deadline is not None and since_check >= _DEADLINE_CHECK_EVERY:
                    since_check = 0
                    if time.monotonic() > deadline:
                        self._cancel_to(0)
                        raise SolverTimeout
                if self._decision_level() == 0:
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
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverTimeout
                continue
            # assumption levels first, then activity-driven decisions
            dl = self._decision_level()
            if dl < len(assumptions):
                lit = assumptions[dl]
                val = self.value(lit)
                if val == -1:
                    self._cancel_to(0)
                    return None
                self.trail_lim.append(len(self.trail))
                if val == 0:
                    self._enqueue(lit, None)
                continue
            v = self._pick_branch()
            if v == 0:
                model = [False] * (self.nvars + 1)
                for u in range(1, self.nvars + 1):
                    model[u] = self.assign[u] == 1
                self._cancel_to(0)
                return model
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(v if self.saved[v] else -v, None)

    # -- reporting ----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.nvars

    @property
    def num_clauses(self) -> int:
        return self.n_clauses

    def clauses(self) -> Iterator[list[int]]:
        """The problem clauses in the order added, duplicates merged."""
        clause: list[int] = []
        for lit in self.store:
            if lit:
                clause.append(lit)
            else:
                yield clause
                clause = []

    def stats(self) -> dict:
        return {
            "vars": self.nvars,
            "clauses": self.n_clauses,
            "learnt": self.n_learnt,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }
