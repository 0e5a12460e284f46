"""Incremental SAT solving: CDCL session, at-most-one encoding, DIMACS I/O."""

from .solver import SatSession, SolverTimeout, SolverUsageError, luby
from .amo import encode_amo, AUTO_THRESHOLD
from .dimacs import dump_dimacs, parse_dimacs, load_into_session

__all__ = [
    "SatSession",
    "SolverTimeout",
    "SolverUsageError",
    "luby",
    "encode_amo",
    "AUTO_THRESHOLD",
    "dump_dimacs",
    "parse_dimacs",
    "load_into_session",
]
