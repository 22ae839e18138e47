"""Shared exception types, the capacity limits and the exact quotients.

Argument errors are plain ValueError.  The two classes here separate "the
request is too big for the desk-scale envelope" from "an exact identity the
implementation relies on failed", because callers (notably the CLI) map them
to different exit codes.

Every exact quotient (a multiplicity, a group order, a degree) goes through
exact_div.  by_sign finishes every route's orthogonal multiplicity,
4 * mult = T1 + 2 * eps * T2 + T3, for both signs; each route has its own terms.

LIMITS is the one table of capacity limits.  Each is checked through
check_limit() before the work it guards starts, and, where only q and n are
needed, before the work's modules load: the CLI makes those checks (the
ORBIT_ELEMENT_BUDGET estimate of check_orbit_budget, ZINV_SIZE_BOUND) before
it imports them.  The label search checks LABEL_BUDGET once, against the
exact label count, before it starts; keeping a label past that count is an
InvariantViolation, raised before it is emitted.

The argument rules, here so an argument-only refusal loads no other module:
q_context (q is an odd prime power int >= 3), even_n (n is an even int >= 2), sign_index
(eps = +-1), int_arg (type(x) is int: no bool), parse_int (a number written as text).
"""

from math import isqrt
from typing import NamedTuple

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
    """Raise CapacityError naming the limit if value exceeds LIMITS[name].

    A value of more than 30 digits shows as a power-of-ten bound read from its
    bit length, never converted to decimal, so the message stays one short line.
    """
    limit = LIMITS[name]
    if value > limit:
        if value >= 10**30:  # 10^k < 2^(bits - 1) <= value, as 0.301029 < log10(2)
            value = f"more than 10^{(value.bit_length() - 1) * 301029 // 10**6}"
        raise CapacityError(f"{what}: {value} exceeds {name} = {limit}")


def exact_div(total: int, den: int, what: str, *args, nonneg: bool = False) -> int:
    """total / den as an int; a remainder (or with nonneg, a negative) is a bug.

    The InvariantViolation names what.format(*args), formatted only then; a
    {value} field in what shows the quotient.
    """
    quot, rem = divmod(total, den)
    if rem or (nonneg and quot < 0):
        from fractions import Fraction
        kind = "non-integral" if rem else "negative"
        raise InvariantViolation(f"{kind} {what.format(*args, value=Fraction(total, den))}")
    return quot


def by_sign(t1: int, t2: int, t3: int, what: str, label, nonneg: bool = False) -> tuple[int, int]:
    """exact_div(T1 + 2 * eps * T2 + T3, 4, what, label, eps) for eps = +1, then -1.

    The two totals differ by 4 * T2, so one divmod serves both; exact_div
    runs only to raise, for the first sign that fails.  Callers on a hot path
    pass nonneg by position: a keyword call costs more than the division.
    """
    plus, rem = divmod(t1 + 2 * t2 + t3, 4)
    minus = plus - t2
    if rem or nonneg and (plus < 0 or minus < 0):
        for eps in (1, -1):
            exact_div(t1 + 2 * eps * t2 + t3, 4, what, label, eps, nonneg=nonneg)
    return plus, minus


def sign_index(eps: int) -> int:
    """The position of eps's value in by_sign's pair: 0 for +1, 1 for -1."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    return 0 if eps == 1 else 1


def int_arg(name: str, value) -> int:
    """value, if type(value) is int: a bool, float or str is a ValueError naming the argument."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def even_n(n) -> int:
    """n, if it is an even int >= 2: the n of every command, label and group order."""
    if type(n) is not int or n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return n


class _QFields(NamedTuple):
    q: int
    p: int
    k: int


class QContext(_QFields):
    """An odd prime power q = p^k with q >= 3; p and k are found from q."""

    __slots__ = ()

    def __new__(cls, q: int):
        if type(q) is not int or q < 3 or q % 2 == 0:
            raise ValueError(f"q must be an odd prime power >= 3, got {q!r}")
        check_limit("Q_BOUND", q, "q")
        # The least divisor d > 1 of q is its prime p.
        p = next((d for d in range(3, isqrt(q) + 1, 2) if q % d == 0), q)
        k = 0
        rest = q
        while rest % p == 0:
            rest //= p
            k += 1
        if rest != 1:
            raise ValueError(f"q = {q} is not a prime power")
        return super().__new__(cls, q, p, k)

    def __getnewargs__(self) -> tuple[int]:  # pickle and copy rebuild from q alone
        return (self.q,)


def q_context(q: int) -> QContext:
    """The context for q; a q that is not an int (an int subclass included) is refused."""
    return QContext(q)


def check_orbit_budget(ctx: QContext, n: int) -> None:
    """Refuse, with ORBIT_ELEMENT_BUDGET, an n >= 1 whose dualgroup.orbits_up_to lists too much.

    The estimate is q + q^2 + ... + q^n, the elements of the levels e <= n.
    It reads only q and n, so a command can refuse before it loads the work.
    """
    if int_arg("n", n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Stop summing once the budget is passed: q^e for large e is a huge int.
    estimate = 0
    for e in range(1, n + 1):
        estimate += ctx.q**e
        if estimate > LIMITS["ORBIT_ELEMENT_BUDGET"]:
            break
    what = f"dual elements to list at q={ctx.q}, n={n}, levels e <= {e}"
    check_limit("ORBIT_ELEMENT_BUDGET", estimate, what)


def parse_int(text: str) -> int:
    """The int written as decimal digits (str.isdecimal), whitespace (str.isspace) around them
    allowed, no sign or _: each number in text (CLI flags, a/b, partition parts) is read here."""
    digits = text.strip()
    if not digits.isdecimal():
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(digits)
