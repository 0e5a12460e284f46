"""DIMACS CNF export/import for debugging and cross-checking."""
from __future__ import annotations

from .solver import SatSession


def dump_dimacs(sess: SatSession) -> str:
    lines = [f"p cnf {sess.num_vars} {sess.num_clauses}"]
    for clause in sess.clauses():
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Returns (nvars, clauses). Accepts comment lines and a p-header;
    nvars is the larger of the header's count and the highest variable.
    A clause may span lines, and the last one may lack its 0. A token
    that is not an integer, or a p-header with fewer than three fields,
    raises ValueError."""
    nvars = 0
    body: list[str] = []
    for line in text.splitlines():
        head = line.lstrip()[:1]
        if head == "c" or not head:
            continue
        if head == "p":
            fields = line.split()
            if len(fields) < 3:
                raise ValueError(f"DIMACS header without a variable count: {line!r}")
            nvars = int(fields[2])
            continue
        body.append(line)
    lits = list(map(int, " ".join(body).split()))
    clauses: list[list[int]] = []
    start = 0
    try:
        while True:
            end = lits.index(0, start)
            clauses.append(lits[start:end])
            start = end + 1
    except ValueError:  # no 0 left: what remains is the last clause
        if start < len(lits):
            clauses.append(lits[start:])
    nvars = max(nvars, max(lits, default=0), -min(lits, default=0))
    return nvars, clauses


def load_into_session(text: str, sess: SatSession) -> None:
    nvars, clauses = parse_dimacs(text)
    while sess.num_vars < nvars:
        sess.new_var()
    for c in clauses:
        sess.add_clause(c)
