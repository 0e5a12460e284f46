"""At-most-one constraint encodings over a SatSession.

One routine, the bimander encoding (Nguyen & Mai, 2015): the variables
are split into g contiguous groups, pairwise clauses forbid two true
variables inside a group, and ceil(log2 g) commander bits give each
group a binary code that every variable in it implies. The scheme only
picks g. At the extremes, one group is the pairwise encoding (quadratic,
no auxiliaries) and one variable per group is the binary encoding (each
variable implies its index code); the bimander schemes sit in between
with ceil(n/2) or ceil(sqrt n) groups. All are equivalent under
projection onto the input variables: exactly the n+1 assignments with at
most one true survive.

The default scheme, auto, picks by group size: pairwise up to
AUTO_THRESHOLD = 32 literals, and above it the product encoding (Chen,
ModRef 2010). That lays the n literals row-major on a grid of
q = ceil(sqrt n) columns and p = ceil(n/q) rows; each literal implies
its row bit and its column bit, and pairwise clauses over the row bits
and over the column bits allow at most one of each. Two true literals
would need two row bits or two column bits, so the same n+1 projected
assignments survive, from 2n + C(p,2) + C(q,2) clauses over p + q
auxiliaries. Pairwise needs no auxiliary variables and is the fastest on
small groups, but it is quadratic. On the benchmark's wide workload,
whose position groups hold 101 to 151 literals, bimander-sqrt needs 818
to 1,407 clauses per group and the product encoding 302 to 446. With
the encoder's method groups (encoder.py), that cuts the last query's
store of a seed-1 attempt by 61-72% (wide-100x4 greedy 7,873 to 2,504
clauses, wide-150x4 bfs 28,871 to 9,750), for 5-11% more variables.
32 is not a tuned value: the benchmark's planning workloads have no
group between 24 literals (walker's largest) and 101 (wide's smallest),
so any threshold in that range builds the same stores.

Each group's pairwise clauses go in through one SatSession.add_pairwise
call, which builds them in bulk and leaves the store, the watch lists,
the trail and so the search exactly as one add_clause per pair would;
the product encoding makes one add_pairwise call over the row bits and
one over the column bits. Implications go in through add_clause, one
[-a, h] at a time: each literal of a bimander group, in order, implies
its group's commander bits in bit order, and the product grid adds its
row implications row by row, then its column implications column by
column.
"""
from __future__ import annotations

import math
from typing import Sequence

from .solver import SatSession

PAIRWISE = "pairwise"
BINARY = "binary"
BIMANDER_HALF = "bimander-half"
BIMANDER_SQRT = "bimander-sqrt"
AUTO = "auto"
AUTO_THRESHOLD = 32

# group count per bimander scheme, for n >= 2 variables
_GROUPS = {
    PAIRWISE: lambda n: 1,
    BINARY: lambda n: n,
    BIMANDER_HALF: lambda n: math.ceil(n / 2),
    BIMANDER_SQRT: lambda n: math.ceil(math.sqrt(n)),
}

SCHEMES = (*_GROUPS, AUTO)
DEFAULT_SCHEME = AUTO


def encode_amo(sess: SatSession, lits: Sequence[int],
               scheme: str = DEFAULT_SCHEME) -> list[int]:
    """Constrain at most one of lits to be true. Returns the auxiliary
    variables: the commander bits, none for a single group, or the
    product grid's row bits then column bits."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown AMO scheme {scheme!r}")
    if len(lits) < 2:
        return []
    if scheme == AUTO:
        if len(lits) > AUTO_THRESHOLD:
            return _product(sess, lits)
        scheme = PAIRWISE
    groups = _split(lits, _GROUPS[scheme](len(lits)))
    for group in groups:
        sess.add_pairwise(group)
    if len(groups) < 2:
        return []
    bits = [sess.new_var() for _ in range((len(groups) - 1).bit_length())]
    for code, group in enumerate(groups):
        heads = [b if code >> j & 1 else -b for j, b in enumerate(bits)]
        for a in group:
            for h in heads:
                sess.add_clause([-a, h])
    return bits


def _product(sess: SatSession, lits: Sequence[int]) -> list[int]:
    """Chen's product encoding over lits laid row-major on a grid of
    ceil(sqrt n) columns."""
    q = math.ceil(math.sqrt(len(lits)))
    rows = [lits[i:i + q] for i in range(0, len(lits), q)]
    row_bits = [sess.new_var() for _ in rows]
    col_bits = [sess.new_var() for _ in range(q)]
    for row, r in zip(rows, row_bits):
        for a in row:
            sess.add_clause([-a, r])
    for j, c in enumerate(col_bits):
        for a in lits[j::q]:
            sess.add_clause([-a, c])
    sess.add_pairwise(row_bits)
    sess.add_pairwise(col_bits)
    return row_bits + col_bits


def _split(lits: Sequence[int], g: int) -> list[Sequence[int]]:
    """Near-even contiguous partition into g groups, larger groups first."""
    size, extra = divmod(len(lits), g)
    groups = []
    start = 0
    for i in range(g):
        end = start + size + (i < extra)
        groups.append(lits[start:end])
        start = end
    return groups
