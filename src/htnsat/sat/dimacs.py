"""DIMACS CNF export/import for debugging and cross-checking."""
from __future__ import annotations

from .solver import SatSession


def dump_dimacs(sess: SatSession) -> str:
    lines = [f"p cnf {sess.num_vars} {sess.num_clauses}"]
    for clause in sess.clauses():
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Returns (nvars, clauses). Accepts comment lines and a p-header."""
    nvars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            nvars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(lit)
    if cur:
        clauses.append(cur)
    for c in clauses:
        for lit in c:
            nvars = max(nvars, abs(lit))
    return nvars, clauses


def load_into_session(text: str, sess: SatSession) -> None:
    nvars, clauses = parse_dimacs(text)
    while sess.num_vars < nvars:
        sess.new_var()
    for c in clauses:
        sess.add_clause(c)
