"""Incremental SAT solving: CDCL session, AMO encodings, DIMACS I/O."""

from .solver import SatSession, SolverTimeout, SolverUsageError, luby
from .amo import (
    encode_amo,
    PAIRWISE,
    BINARY,
    BIMANDER_HALF,
    BIMANDER_SQRT,
    AUTO,
    AUTO_THRESHOLD,
    DEFAULT_SCHEME,
    SCHEMES,
)
from .dimacs import dump_dimacs, parse_dimacs, load_into_session

__all__ = [
    "SatSession",
    "SolverTimeout",
    "SolverUsageError",
    "luby",
    "encode_amo",
    "PAIRWISE",
    "BINARY",
    "BIMANDER_HALF",
    "BIMANDER_SQRT",
    "AUTO",
    "AUTO_THRESHOLD",
    "DEFAULT_SCHEME",
    "SCHEMES",
    "dump_dimacs",
    "parse_dimacs",
    "load_into_session",
]
