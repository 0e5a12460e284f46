"""Seeded input generators for the benchmark's three workloads.

Every generator is a pure function of its arguments, so the same seed
gives the same text. The planner and the solver only ever receive the
generated text; the answer known by construction travels alongside it
for the checker.

Why each workload exists (see NOTES.md for the metric map):

- ``walker``: recursive HDDL, greedy mode. Exercises parsing, grounding,
  the recursion blocker with its reinsertions (grid replay and a fresh
  encoder each time) and clause construction. SAT search is a small
  share of its time.
- ``wide``: ``wide_choice``-shaped ground problems, each run once greedy
  and once breadth-first. No recursion, no reinsertion, no HDDL
  grounding; wide positions make AMO and clause construction dominate,
  and the relaxed query decides how many methods get developed. This is
  where guidance shows, and where a rebuild-only change must not.
- ``cnf``: the solver alone on planted random 3-SAT at ratio 4.26
  (satisfiable by construction) and on pigeonhole PHP(h+1, h)
  (unsatisfiable by construction). Nearly all time is propagation and
  conflict analysis; clause loading is small.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("walker", "wide", "cnf")

# Instance sizes per workload. A pass over one workload runs every
# instance once, so these fix the work in a pass; the seed only varies
# the instances' contents.
SPECS = {
    # (locations, persons) per walker instance
    "walker": {"sizes": [(8, 3), (10, 3), (12, 3)]},
    # (decoys per hop, hops) per wide instance
    "wide": {"sizes": [(100, 4), (150, 4)]},
    # planted: (variables, formulas); php: (holes, formulas)
    "cnf": {"planted": (70, 400), "php": (6, 2)},
}


@dataclass(frozen=True)
class PlanningInstance:
    """A planning problem given as HDDL (domain, problem) or ground text.
    Every generated planning instance is solvable by construction."""

    name: str
    modes: tuple[str, ...]
    ground_text: str | None = None
    domain_text: str | None = None
    problem_text: str | None = None


@dataclass(frozen=True)
class CnfInstance:
    """A DIMACS formula whose satisfiability is known by construction."""

    name: str
    dimacs: str
    satisfiable: bool
    modes: tuple[str, ...] = ("solve",)


def build(workload: str, seed: int, spec: dict | None = None) -> list:
    """The instances of one workload for one seed."""
    spec = SPECS[workload] if spec is None else spec
    if workload == "walker":
        return [PlanningInstance(
                    name=f"walker-{n}x{k}", modes=("greedy",),
                    domain_text=WALKER_DOMAIN,
                    problem_text=walker_problem(n, k, f"{seed}/{i}"))
                for i, (n, k) in enumerate(spec["sizes"])]
    if workload == "wide":
        return [PlanningInstance(
                    name=f"wide-{w}x{d}", modes=("greedy", "bfs"),
                    ground_text=wide_problem(w, d, f"{seed}/{i}"))
                for i, (w, d) in enumerate(spec["sizes"])]
    if workload == "cnf":
        n, count = spec["planted"]
        h, php_count = spec["php"]
        out = [CnfInstance(f"planted-{n}-{i}",
                           planted_3sat(n, f"{seed}/{i}"), True)
               for i in range(count)]
        out += [CnfInstance(f"php-{h + 1}-{h}-{i}",
                            pigeonhole(h, f"{seed}/{i}"), False)
                for i in range(php_count)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- walker --------------------------------------------------------------------

WALKER_DOMAIN = """\
; Persons walk along a line of locations to a phone booth and call.
; `go` is right-recursive: `step` walks one hop and re-posts `go`.
(define (domain walker)
  (:requirements :typing :hierarchy :method-preconditions)
  (:types loc person)
  (:predicates
    (at ?p - person ?l - loc)
    (adj ?a - loc ?b - loc)
    (booth ?l - loc)
    (called ?p - person))

  (:task serve :parameters (?p - person))
  (:task go :parameters (?p - person ?to - loc))

  (:method via
    :parameters (?p - person ?b - loc)
    :task (serve ?p)
    :precondition (booth ?b)
    :ordered-subtasks (and (t1 (go ?p ?b)) (t2 (call ?p ?b))))

  (:method arrived
    :parameters (?p - person ?to - loc)
    :task (go ?p ?to)
    :precondition (at ?p ?to)
    :ordered-subtasks (and))

  (:method step
    :parameters (?p - person ?from - loc ?mid - loc ?to - loc)
    :task (go ?p ?to)
    :precondition (and (at ?p ?from) (adj ?from ?mid))
    :ordered-subtasks (and (t1 (walk ?p ?from ?mid)) (t2 (go ?p ?to))))

  (:action walk
    :parameters (?p - person ?from - loc ?to - loc)
    :precondition (and (at ?p ?from) (adj ?from ?to))
    :effect (and (at ?p ?to) (not (at ?p ?from))))

  (:action call
    :parameters (?p - person ?l - loc)
    :precondition (and (at ?p ?l) (booth ?l))
    :effect (called ?p)))
"""


def walker_problem(n: int, k: int, seed: str) -> str:
    """n locations on a line, the booth at the far end, k persons.

    Person p0 always starts at the near end, so every seed needs the
    same recursion depth (n - 1 hops) and the same number of
    reinsertions; the others start anywhere in the first third. The
    seed also shuffles declaration orders, which changes the grounded
    numbering and with it the solver's search. Every person can walk to
    the booth, so the instance is solvable by construction.
    """
    if n < 2 or k < 1:
        raise ValueError("walker needs n >= 2 and k >= 1")
    rng = random.Random(f"walker/{n}/{k}/{seed}")
    third = max(1, n // 3)
    starts = [0] + [rng.randrange(third) for _ in range(k - 1)]
    locs = [f"l{i}" for i in range(n)]
    persons = [f"p{j}" for j in range(k)]
    init = [f"(adj l{i} l{i + 1})" for i in range(n - 1)]
    init += [f"(adj l{i + 1} l{i})" for i in range(n - 1)]
    init += [f"(booth l{n - 1})"]
    init += [f"(at p{j} l{s})" for j, s in enumerate(starts)]
    order = list(persons)
    for seq in (locs, persons, init, order):
        rng.shuffle(seq)
    subtasks = " ".join(f"(t{i} (serve {p}))" for i, p in enumerate(order))
    goal = " ".join(f"(called {p})" for p in order)
    return (f"(define (problem walker-{n}x{k})\n"
            f"  (:domain walker)\n"
            f"  (:objects {' '.join(locs)} - loc {' '.join(persons)} - person)\n"
            f"  (:htn :parameters () :subtasks (and {subtasks}) :ordering ())\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and {goal})))\n")


# -- wide ----------------------------------------------------------------------


def wide_problem(w: int, d: int, seed: str) -> str:
    """A chain of d hops to the goal where each hop also offers w decoy
    methods; each decoy opens a noise chain of d + 1 tasks that can
    never add the goal fact. State reasoning discards the decoys, while
    uninformed expansion pays for every one.

    The seed shuffles where the good method sits among a hop's decoys
    and the declaration order of the trap tasks, which fixes the ids.
    The good chain always exists, so the instance is solvable.
    """
    if w < 1 or d < 1:
        raise ValueError("wide needs w >= 1 and d >= 1")
    rng = random.Random(f"wide/{w}/{d}/{seed}")
    lines = [f"problem wide-{w}x{d}"]
    lines += [f"fact c{i}" for i in range(d + 1)]
    lines += ["fact win", "fact junk", "action noise add junk"]
    lines += [f"action go{i} pre c{i} add c{i + 1} del c{i}" for i in range(d)]
    lines.append(f"action finish pre c{d} add win")
    lines += [f"task chain{i}" for i in range(d + 1)]
    traps = [f"task trap-{i}-{j}-{k}"
             for i in range(d) for j in range(w) for k in range(d + 1)]
    rng.shuffle(traps)
    lines += traps
    for i in range(d):
        hop = [f"method decoy-{i}-{j} chain{i} -> trap-{i}-{j}-0"
               for j in range(w)]
        hop.insert(rng.randrange(w + 1),
                   f"method good{i} chain{i} -> go{i} chain{i + 1}")
        lines += hop
    lines.append(f"method done chain{d} -> finish")
    for i in range(d):
        for j in range(w):
            for k in range(d + 1):
                rest = f" trap-{i}-{j}-{k + 1}" if k < d else ""
                lines.append(f"method tm-{i}-{j}-{k} trap-{i}-{j}-{k} "
                             f"-> noise{rest}")
    lines += ["init c0", "goal win", "root chain0"]
    return "\n".join(lines) + "\n"


# -- cnf -----------------------------------------------------------------------


def planted_3sat(n: int, seed: str, ratio: float = 4.26) -> str:
    """Random 3-SAT over n variables with round(ratio * n) clauses, each
    drawn uniformly and kept only if a hidden random assignment
    satisfies it; satisfiable by construction."""
    rng = random.Random(f"planted/{n}/{seed}")
    hidden = [rng.getrandbits(1) for _ in range(n + 1)]  # 1 means true
    m = round(ratio * n)
    clauses: list[list[int]] = []
    draw, bits = rng.randrange, rng.getrandbits
    while len(clauses) < m:
        a, b, c = draw(n) + 1, draw(n) + 1, draw(n) + 1
        if a == b or a == c or b == c:
            continue
        sa, sb, sc = bits(1), bits(1), bits(1)
        if sa == hidden[a] or sb == hidden[b] or sc == hidden[c]:
            clauses.append([a if sa else -a, b if sb else -b,
                            c if sc else -c])
    return _dimacs(n, clauses)


def pigeonhole(h: int, seed: str) -> str:
    """PHP(h + 1, h): h + 1 pigeons, h holes, each pigeon in some hole,
    no hole shared; unsatisfiable by construction. The seed renumbers
    the variables and shuffles clause and literal order."""
    rng = random.Random(f"php/{h}/{seed}")
    n = (h + 1) * h
    perm = list(range(1, n + 1))
    rng.shuffle(perm)

    def var(p: int, hole: int) -> int:
        return perm[p * h + hole]

    clauses = [[var(p, j) for j in range(h)] for p in range(h + 1)]
    for j in range(h):
        for a in range(h + 1):
            for b in range(a + 1, h + 1):
                clauses.append([-var(a, j), -var(b, j)])
    rng.shuffle(clauses)
    for c in clauses:
        rng.shuffle(c)
    return _dimacs(n, clauses)


def _dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"
