"""Exact decomposition of Ind(1) from PGSp_n, PGO_n^+ and PGO_n^- into
irreducible characters of PGL_n(F_q), for even n and odd prime powers q.

Three independent computational routes (closed formulas on irreducible
labels, closed formulas on basic characters, and brute-force involution
counting) are cross-checked against each other.  Group orders check the
totals: sum(mult * degree) must be the index of the subgroup.  Double cosets,
counted as orbits on forms, give sum(mult * mult) for a pair of subgroups.
"""

from .dualgroup import QContext, q_context
from .errors import CapacityError, InvariantViolation
from .formulas import DecompositionReport, Subgroup, decompose
from .params import MultiPartition, make_label, parse_label
from .partitions import Partition, partitions_of
from .symchar import chi

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DecompositionReport",
    "InvariantViolation",
    "MultiPartition",
    "Partition",
    "QContext",
    "Subgroup",
    "chi",
    "decompose",
    "make_label",
    "parse_label",
    "partitions_of",
    "q_context",
    "__version__",
]
