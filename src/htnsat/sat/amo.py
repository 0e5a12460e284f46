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

Each group's pairwise clauses go in through one SatSession.add_pairwise
call; the commander implications go through add_clause one by one.
add_pairwise builds a group in bulk unless it repeats a variable or has
a literal true at level 0. A group literal false at level 0 (an op
selector whose precondition fact is false at level 0, say) is still
exported in every pair but watched by none, as add_clause would do for
each pair, so the bulk path leaves the store, the watch lists, the trail
and so the search exactly as one add_clause per pair would.
"""
from __future__ import annotations

import math
from typing import Sequence

from .solver import SatSession

PAIRWISE = "pairwise"
BINARY = "binary"
BIMANDER_HALF = "bimander-half"
BIMANDER_SQRT = "bimander-sqrt"

# group count per scheme, for n >= 2 variables
_GROUPS = {
    PAIRWISE: lambda n: 1,
    BINARY: lambda n: n,
    BIMANDER_HALF: lambda n: math.ceil(n / 2),
    BIMANDER_SQRT: lambda n: math.ceil(math.sqrt(n)),
}

SCHEMES = tuple(_GROUPS)


def encode_amo(sess: SatSession, lits: Sequence[int], scheme: str = PAIRWISE) -> list[int]:
    """Constrain at most one of lits to be true. Returns the commander
    bits, none for a single group."""
    if scheme not in _GROUPS:
        raise ValueError(f"unknown AMO scheme {scheme!r}")
    if len(lits) < 2:
        return []
    groups = _split(lits, _GROUPS[scheme](len(lits)))
    for group in groups:
        sess.add_pairwise(group)
    if len(groups) < 2:
        return []
    bits = [sess.new_var() for _ in range((len(groups) - 1).bit_length())]
    for code, group in enumerate(groups):
        for lit in group:
            for j, b in enumerate(bits):
                sess.add_clause([-lit, b if code >> j & 1 else -b])
    return bits


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
