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
AUTO_THRESHOLD = 32 literals, bimander-sqrt above. Neither wins
everywhere. Pairwise needs no auxiliary variables and is the fastest on
small groups, but at 101 to 152 literals its n(n-1)/2 clauses are most
of a store (95% of 451,350 clauses on the benchmark's wide workload),
which bimander-sqrt cuts 5.5-fold. 32 is not a tuned value: the
benchmark's planning workloads have no group between 24 literals
(walker's largest) and 101 (wide's smallest), so any threshold in that
range builds the same stores.

Each group's pairwise clauses go in through one SatSession.add_pairwise
call, and its commander implications through one
SatSession.add_implications call. Both build their clauses in bulk
unless a variable repeats or a level-0 value gets in the way, and then
leave the store, the watch lists, the trail and so the search exactly as
one add_clause per clause would. add_pairwise keeps the bulk path past a
group literal false at level 0: it builds the pairs of the other
literals only, since add_clause stores none of that literal's pairs.
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

# group count per scheme, for n >= 2 variables
_GROUPS = {
    PAIRWISE: lambda n: 1,
    BINARY: lambda n: n,
    BIMANDER_HALF: lambda n: math.ceil(n / 2),
    BIMANDER_SQRT: lambda n: math.ceil(math.sqrt(n)),
    AUTO: lambda n: 1 if n <= AUTO_THRESHOLD else math.ceil(math.sqrt(n)),
}

SCHEMES = tuple(_GROUPS)
DEFAULT_SCHEME = AUTO


def encode_amo(sess: SatSession, lits: Sequence[int],
               scheme: str = DEFAULT_SCHEME) -> list[int]:
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
        sess.add_implications(
            group, [b if code >> j & 1 else -b for j, b in enumerate(bits)])
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
