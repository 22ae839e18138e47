"""Shared exception types and the capacity limits.

Argument errors are plain ValueError.  The two classes here separate "the
request is too big for the desk-scale envelope" from "an exact identity the
implementation relies on failed", because callers (notably the CLI) map them
to different exit codes.

LIMITS is the one table of capacity limits.  Each is checked through
check_limit() before the work it guards starts.  enumerate_labels checks
LABEL_BUDGET against the exact label count before its search, and again as
it keeps each label, as a guard.
"""

LIMITS = {
    # q, checked before q_context factors it by trial division up to sqrt(q)
    "Q_BOUND": 1 << 40,
    # n^2 * bit_length(q), which bounds the bits of |GL_n(F_q)|: orders, degrees
    "ORDER_BITS_BOUND": 1 << 18,
    # dual-group elements of order dividing q^e - 1, e <= n, listed by orbits_up_to
    "ORBIT_ELEMENT_BUDGET": 2_000_000,
    # labels kept by enumerate_labels
    "LABEL_BUDGET": 250_000,
    # |nu| for enumerating involutions commuting with w_nu
    "ZINV_SIZE_BOUND": 9,
    # m for the full character table of S_m
    "CHARACTER_TABLE_BOUND": 14,
    # m for listing the partitions of m
    "PARTITIONS_OF_BOUND": 30,
    # q^(n^2), which bounds the matrices scanned to list PGL_n(F_q) for
    # subgroup_elements and the class count; the scan visits only the
    # (q^(n^2) - 1)/(q - 1) whose first nonzero entry is 1
    "MATRIX_SCAN_BUDGET": 5_000_000,
    # forms up to scalars times the maps applied to them: for the double-coset
    # count, the index of H1 times GL_n's and H2's generators and the q - 1
    # scalings that key the class table; for the orbits on forms, the three
    # indices times GL_n's n(n - 1) + 1 generators
    "FORM_ACTION_BUDGET": 1_100_000,
}


class CapacityError(Exception):
    """Requested computation exceeds the configured capacity envelope."""


class InvariantViolation(Exception):
    """An exact internal invariant failed; indicates a bug, never bad input."""


def check_limit(name: str, value: int, what: str) -> None:
    """Raise CapacityError naming the limit if value exceeds LIMITS[name]."""
    limit = LIMITS[name]
    if value > limit:
        raise CapacityError(f"{what}: {value} exceeds {name} = {limit}")
