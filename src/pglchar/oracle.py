"""Formula-independent ground truth at desk scale: closed forms and the oracles' fronts.

Closed-form group orders and q-analog hook-length degrees work for any odd
prime power q; a degree's factors, prod (q^i - 1) per (q, n) and each block's
hook factor per (q, m, partition), are memoised for the life of the process,
and a full decompose multiplies the same factors down the label search.
The matrix oracles (prime q only) are split by one rule: here each checks its
input, charges its capacity limit and keeps its memo; every matrix is built
and multiplied in `formorbits`, which is loaded only after the charge.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvariantViolation, QContext, check_limit, even_n, exact_div, q_context

if TYPE_CHECKING:  # annotations only: orders loads none of these modules
    from .formorbits import Matrix, ProjectiveMatrixGroup
    from .params import MultiPartition
    from .partitions import Partition


class GroupOrders(NamedTuple):
    q: int
    n: int
    gl: int
    sp: int
    o_plus: int
    o_minus: int
    pgl: int
    pgsp: int
    pgo_plus: int
    pgo_minus: int
    index_pgsp: int
    index_pgo_plus: int
    index_pgo_minus: int

    def to_json_dict(self) -> dict:
        return self._asdict()

    def index_of(self, kind) -> int:
        """The index in PGL of a Subgroup, or of the subgroup Subgroup.parse reads kind as."""
        from .subgroups import Subgroup  # loaded on use: orders does not pay for it
        return dict(zip(Subgroup, self[-3:]))[Subgroup.parse(kind)]


def orders(q: int, n: int) -> GroupOrders:
    """Closed-form orders and induced-character degrees (indices) for even n.

    The images of Sp^F and O^F in PGL have index 2 in the form-class
    stabilizers and kernel {+1,-1}, so |PGSp| = |Sp| and |PGO^eps| = |O^eps|.
    """
    even_n(n)
    q_context(q)  # q must be an odd prime power
    check_order_bits(q, n)
    m = n // 2
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    sp = q ** (m * m)
    for i in range(1, m + 1):
        sp *= q ** (2 * i) - 1
    base = 2 * q ** (m * (m - 1))
    for i in range(1, m):
        base *= q ** (2 * i) - 1
    o_plus = base * (q**m - 1)
    o_minus = base * (q**m + 1)
    pgl = exact_div(gl, q - 1, "|PGL| = {value}")
    return GroupOrders(
        q, n, gl, sp, o_plus, o_minus, pgl, sp, o_plus, o_minus,
        exact_div(pgl, sp, "index_pgsp = {value}"),
        exact_div(pgl, o_plus, "index_pgo_plus = {value}"),
        exact_div(pgl, o_minus, "index_pgo_minus = {value}"),
    )


def check_order_bits(q: int, n: int) -> None:
    """Refuse (q, n) before any group order or degree is computed.

    n^2 * bit_length(q) bounds the bits of |GL_n(F_q)|, and so of every
    order, index and degree.
    """
    check_limit("ORDER_BITS_BOUND", n * n * q.bit_length(), f"n^2 * bit_length(q) at q={q}, n={n}")


# Names exact_div's quotient for a degree: degree's, and a full decompose's,
# which carries the products of block_degree_factor down the label search.
DEGREE = "degree({}) = {value}"


def degree(ctx: QContext, label: MultiPartition) -> int:
    """Degree of the irreducible character with the given label.

    q-analog hook-length formula: prod_(i<=n) (q^i - 1) times, per orbit,
    q^(m * n(rho)) / prod_(cells) (q^(m*hook) - 1), where n(rho) is the sum
    of (row index - 1) * part.  The orientation (n(rho), not n(rho')) is
    pinned by the sum-of-squares consistency tests.  ctx must be the label's.
    """
    if label.ctx != ctx:
        raise ValueError(f"label {label} is not at q = {ctx.q}")
    q = ctx.q
    num = prod_qi_minus_one(q, label.n)
    den = 1
    for data, part in label.entries:
        block_num, block_den = block_degree_factor(q, data.m, part)
        num *= block_num
        den *= block_den
    return exact_div(num, den, DEGREE, label)


@lru_cache(maxsize=None)
def prod_qi_minus_one(q: int, n: int) -> int:
    """prod over 1 <= i <= n of (q^i - 1)."""
    out = 1
    for i in range(1, n + 1):
        out *= q**i - 1
    return out


@lru_cache(maxsize=None)
def block_degree_factor(q: int, m: int, part: Partition) -> tuple[int, int]:
    """t^n(rho) and prod over the cells of (t^hook - 1), for t = q^m."""
    t = q**m
    num = t ** sum(i * p for i, p in enumerate(part))
    den = 1
    transpose = part.transpose()
    for i, p in enumerate(part):
        for j in range(p):
            hook = p - j + transpose[j] - i - 1
            den *= t**hook - 1
    return num, den


# The fronts of the matrix oracles.


@lru_cache(maxsize=None)
def projective_group(q: int, n: int) -> ProjectiveMatrixGroup:
    """PGL_n(F_q), listed by formorbits.ProjectiveMatrixGroup.

    MATRIX_SCAN_BUDGET charges q^(n^2), the bound on the matrices scanned.
    """
    _require_prime(q)
    orders(q, n)  # n and the order bits are refused before the charge
    check_limit("MATRIX_SCAN_BUDGET", q ** (n * n), f"matrices to scan for n={n}, q={q}")
    from .formorbits import ProjectiveMatrixGroup  # loaded on use: no other command pays for it
    return ProjectiveMatrixGroup(q, n)


def conjugacy_class_count(q: int, n: int) -> int:
    return projective_group(q, n).class_count()


class FormOrbit(NamedTuple):
    kind: str  # "pgsp" (skew class), "pgo+" or "pgo-"
    size: int
    stabilizer_order: int

    def to_json_dict(self) -> dict:
        return self._asdict()


def _require_prime(q: int) -> None:
    if q_context(q).k != 1:
        raise ValueError(f"matrix oracle supports odd prime q only, got {q}")


def enumerate_forms(q: int, n: int) -> tuple[FormOrbit, ...]:
    """Orbits of PGL on nondegenerate forms up to scalars: exactly three.

    Each is the orbit of one kind's standard form, of the kind's index in
    size (form_orbit checks it), in the order pgo+, pgsp, pgo-.  They are
    all: the two symmetric orbits are disjoint, and the sizes add up to the
    closed counts of form classes.  The charge is the forms of the three
    kinds times the n(n - 1) + 1 generators of GL_n applied to them.
    """
    _require_prime(q)
    ords = orders(q, n)
    check_limit(
        "FORM_ACTION_BUDGET",
        (ords.index_pgsp + ords.index_pgo_plus + ords.index_pgo_minus) * (n * (n - 1) + 1),
        f"forms of the three kinds times generators of GL_n at q={q}, n={n}",
    )
    from .formorbits import form_orbit  # loaded on use: no other command pays for it
    orbits = {kind: form_orbit(q, n, kind)[1] for kind in ("pgo+", "pgsp", "pgo-")}
    if not set(orbits["pgo+"]).isdisjoint(orbits["pgo-"]):
        raise InvariantViolation("the pgo+ and pgo- form orbits meet")
    symmetric, skew = _form_class_counts(q, n)
    if len(orbits["pgo+"]) + len(orbits["pgo-"]) != symmetric or len(orbits["pgsp"]) != skew:
        raise InvariantViolation(f"form orbits do not cover the {symmetric} + {skew} classes")
    return tuple(
        FormOrbit(kind, len(keys), exact_div(ords.pgl, len(keys), "stabilizer of {} {value}", kind))
        for kind, keys in orbits.items()
    )


def _form_class_counts(q: int, n: int) -> tuple[int, int]:
    """Nonsingular symmetric and alternating matrices up to scalars, n = 2m.

    There are q^(m(m+1)) and q^(m(m-1)) times prod_(i<=m) (q^(2i-1) - 1) of
    them (MacWilliams 1969), before the division by q - 1.
    """
    m = n // 2
    common = 1
    for i in range(1, m + 1):
        common *= q ** (2 * i - 1) - 1
    return (
        exact_div(q ** (m * (m + 1)) * common, q - 1, "symmetric class count {value}"),
        exact_div(q ** (m * (m - 1)) * common, q - 1, "skew class count {value}"),
    )


def subgroup_elements(q: int, n: int, kind: str) -> tuple[Matrix, ...]:
    """The stabilizer of the class of the kind's standard form, listed from PGL."""
    from .subgroups import Subgroup  # loaded on use: orders does not pay for it
    return _form_stabilizer(q, n, Subgroup.parse(kind).value)  # one memo entry per subgroup


@lru_cache(maxsize=None)
def _form_stabilizer(q: int, n: int, kind: str) -> tuple[Matrix, ...]:
    return projective_group(q, n).form_stabilizer(kind)


def double_cosets(q: int, n: int, kind1: str, kind2: str) -> int:
    """#(H1 \\ PGL_n(F_q) / H2) for prime q, without listing PGL.

    The count is symmetric (g -> g^-1 swaps the sides), so it is taken as
    orbits on the forms of the kind with the smaller index.  The charge is
    that index times the generators applied to the forms plus the q - 1
    scalings, whose images key the table of classes.
    """
    from .subgroups import Subgroup  # loaded on use: orders does not pay for it
    kind1, kind2 = (Subgroup.parse(kind).value for kind in (kind1, kind2))
    _require_prime(q)
    ords = orders(q, n)
    if ords.index_of(kind1) > ords.index_of(kind2):
        kind1, kind2 = kind2, kind1
    points = (q**n - 1) // (q - 1)
    generators = n * (n - 1) + 1 + (2 if kind2 == "pgsp" else 1) * points + 1
    check_limit(
        "FORM_ACTION_BUDGET",
        ords.index_of(kind1) * (generators + q - 1),
        f"forms of kind {kind1} times generators for {kind2} and scalings at q={q}, n={n}",
    )
    from .formorbits import orbits_on_forms  # loaded on use: no other command pays for it
    return orbits_on_forms(q, n, kind1, kind2)
