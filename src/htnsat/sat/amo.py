"""At-most-one constraint over a SatSession, encoded by group size.

A group of up to AUTO_THRESHOLD = 32 literals gets the pairwise
encoding: one clause [-a, -b] per pair, no auxiliary variable. A larger
group gets the product encoding (Chen, ModRef 2010). That lays the n
literals row-major on a grid of q = ceil(sqrt n) columns and
p = ceil(n/q) rows; each literal implies its row bit and its column bit,
and pairwise clauses over the row bits and over the column bits allow at
most one of each. Two true literals would need two row bits or two
column bits, so under projection onto the input literals exactly the
n+1 assignments with at most one true survive, from
2n + C(p,2) + C(q,2) clauses over p + q auxiliaries.

Pairwise needs no auxiliary variables and is the fastest on small
groups, but it is quadratic. On the benchmark's wide workload, whose
position groups hold 101 to 151 literals, pairwise needs 5,050 to 11,325
clauses per group and the product encoding 302 to 446. With the
encoder's method groups (encoder.py), it leaves the last query's store
of a seed-1 attempt 61-72% smaller than the bimander encoding with
ceil(sqrt n) groups (Nguyen & Mai, 2015) does (wide-100x4 greedy 2,504
against 7,873 clauses, wide-150x4 bfs 9,750 against 28,871), for 5-11%
more variables. 32 is not a tuned value: the benchmark's planning
workloads have no group between 24 literals (walker's largest) and 101
(wide's smallest), so any threshold in that range builds the same
stores.

Each group's pairwise clauses go in through one SatSession.add_pairwise
call, which builds them in bulk and leaves the store, the watch lists,
the trail and so the search exactly as one add_clause per pair would;
the product encoding adds its row implications row by row, then its
column implications column by column, one [-a, h] add_clause at a time,
then makes one add_pairwise call over the row bits and one over the
column bits.
"""
from __future__ import annotations

import math
from typing import Sequence

from .solver import SatSession

AUTO_THRESHOLD = 32


def encode_amo(sess: SatSession, lits: Sequence[int]) -> list[int]:
    """Constrain at most one of lits to be true: pairwise up to
    AUTO_THRESHOLD literals, the product encoding above. Returns the
    auxiliary variables: none for pairwise, or the product grid's row
    bits then column bits."""
    if len(lits) > AUTO_THRESHOLD:
        return _product(sess, lits)
    if len(lits) > 1:
        sess.add_pairwise(lits)
    return []


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
