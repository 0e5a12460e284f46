"""Spans and counts at the program's module boundaries.

The program itself carries no instrumentation. ``instrumented`` wraps
the public calls that cross from one module of the solve path into
another (planner -> inference/pdt/encoder, encoder -> sat) for as long
as the ``with`` block lasts, and restores the originals afterwards. A
span is (name, start, end, parent, instance); the name's first
component is the layer it is charged to.

``SatSession.add_clause`` is called hundreds of thousands of times per
pass, so it is not stored as one span per call: its calls and time are
summed into the span that made them (``LEAF``) and charged to that
span's children, which keeps self times exact without holding every
call in memory.

A call made from inside the same module is not a boundary and opens no
span of its own: the encoder's first ``sync`` from its constructor is
part of ``encoder.build``, and the replayed expansions inside a
reinsertion are part of ``pdt.reinsert``.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("bench", "hddl", "inference", "pdt", "encoder", "sat",
          "planner", "cli")

LEAF = "sat.add_clause"
_SOLVER_COUNTERS = ("conflicts", "decisions", "propagations", "n_learnt")


class NullTracer:
    """Stand-in for untraced passes: every span is a no-op."""

    instance = None

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self):
        # per span: [name, start, end, parent index or -1, instance]
        self.spans: list[list] = []
        self.covered: list[float] = []  # time of each span's children
        self.leaf_calls: list[int] = []  # LEAF calls made by each span
        self.leaf_secs: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.instance = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.instance])
        self.covered.append(0.0)
        self.leaf_calls.append(0)
        self.leaf_secs.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = perf_counter()
        span = self.spans[sid]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.covered[span[3]] += end - span[1]

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- summaries -------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, names) -> float:
        """Summed self time of the spans with the given names."""
        return sum(s[2] - s[1] - cov for s, cov in zip(self.spans, self.covered)
                   if s[0] in names)

    def leaf_count(self, parents=None) -> int:
        """LEAF calls made by spans with the given names (all if None)."""
        return sum(n for s, n in zip(self.spans, self.leaf_calls)
                   if parents is None or s[0] in parents)

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, cov, leaf in zip(self.spans, self.covered, self.leaf_secs):
            out[s[0].split(".", 1)[0]] += s[2] - s[1] - cov
            out[LEAF.split(".", 1)[0]] += leaf
        return out

    def dump(self, path) -> None:
        """Write the spans, their summed LEAF calls and the counts as JSON."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "instance",
                            f"{LEAF} calls", f"{LEAF} s"],
            "spans": [s + [n, t] for s, n, t in
                      zip(self.spans, self.leaf_calls, self.leaf_secs)],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# -- wrapping the module boundaries ---------------------------------------------


def _span_wrapper(tracer: Tracer, orig, name: str, inside: frozenset):
    def wrapped(*args, **kwargs):
        if tracer.current() in inside:
            return orig(*args, **kwargs)
        sid = tracer.open(name)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.close(sid)
    return wrapped


def _add_clause_wrapper(tracer: Tracer, orig):
    stack, covered = tracer.stack, tracer.covered
    calls, secs = tracer.leaf_calls, tracer.leaf_secs

    def wrapped(sess, lits):
        t0 = perf_counter()
        orig(sess, lits)
        dt = perf_counter() - t0
        sid = stack[-1]
        covered[sid] += dt
        calls[sid] += 1
        secs[sid] += dt
    return wrapped


def _solve_wrapper(tracer: Tracer, orig):
    def wrapped(sess, *args, **kwargs):
        before = [getattr(sess, c) for c in _SOLVER_COUNTERS]
        sid = tracer.open("sat.solve")
        try:
            return orig(sess, *args, **kwargs)
        finally:
            tracer.close(sid)
            for c, b in zip(_SOLVER_COUNTERS, before):
                tracer.count(c, getattr(sess, c) - b)
    return wrapped


@contextmanager
def instrumented(tracer: Tracer, api):
    """Wrap the module boundaries of the loaded program for the duration
    of the block."""
    pdt, enc, sess = api.pdt.Pdt, api.encoder.Encoder, api.solver.SatSession
    reinsert = frozenset({"pdt.reinsert"})
    build = frozenset({"encoder.build"})
    spans = [
        (api.planner, "compute_profiles", "inference.profiles", frozenset()),
        (pdt, "__init__", "pdt.init", reinsert),
        (pdt, "expand", "pdt.expand", reinsert),
        (pdt, "reinsert_blocked", "pdt.reinsert", frozenset()),
        (pdt, "pending_positions", "pdt.pending", frozenset()),
        (pdt, "expandable", "pdt.expandable", frozenset()),
        (pdt, "blocked_pairs", "pdt.blocked_pairs", reinsert),
        (enc, "__init__", "encoder.build", frozenset()),
        (enc, "sync", "encoder.sync", build),
        (api.encoder, "encode_amo", "encoder.amo", frozenset()),
        (enc, "solve_solution", "planner.solution_query", frozenset()),
        (enc, "solve_relaxed", "planner.relaxed_query", frozenset()),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans]
    saved += [(sess, "solve", sess.__dict__["solve"]),
              (sess, "add_clause", sess.__dict__["add_clause"])]
    try:
        for owner, attr, name, inside in spans:
            setattr(owner, attr,
                    _span_wrapper(tracer, getattr(owner, attr), name, inside))
        sess.solve = _solve_wrapper(tracer, sess.solve)
        sess.add_clause = _add_clause_wrapper(tracer, sess.add_clause)
        yield tracer
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
