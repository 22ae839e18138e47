"""The dual group of the multiplicative groups of extensions of F_q, in Q/Z.

The direct limit of the character groups of F_{q^e}^x is modeled as the
subgroup of Q/Z of fractions with denominator coprime to q; the q-th power
map sigma acts as multiplication by q mod 1.  An element is carried as a
reduced integer pair num/den with 0 <= num < den, from the text ``a/b`` to
OrbitData.  A Fraction is built only at the edge, and fractions is
imported only there: in OrbitData.rep (which canonical_rep returns),
parse_fraction, as_dual (the one reader of a dual element given as a
number, an int or a Fraction: orbit_data, phi() and params.make_label go
through it), params.half_norm_product and the exit-4 messages of
errors.exact_div and phi_sign; params.random_labels builds none.
All pairings with field elements are pure exponent arithmetic relative to
a norm-compatible system of generators (g_e = g_{e'}^((q^e'-1)/(q^e-1))
for e | e'), so no finite field is ever constructed.  The only field
elements the formulas pair with are -1, a fixed non-square beta and its
square root; their exponents are forced to (q-1)/2 at level 1 and (q+1)/2
at level 2.  QContext and check_orbit_budget read only arguments, so live in errors.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from .errors import LIMITS, InvariantViolation, check_limit, parse_int
from .errors import QContext, check_orbit_budget, q_context  # defined in errors, read here too

if TYPE_CHECKING:  # annotations only: fractions is imported where a Fraction is built
    from fractions import Fraction


class OrbitData(NamedTuple):
    """A sigma-orbit: canonical representative num/den, size m, norm residue r, sign d.

    num/den is reduced, with 0 <= num < den.  The norm N(xi) lies in
    L^sigma = (1/(q-1))Z/Z; r is its residue mod q - 1, so N(xi) = r / (q - 1),
    and d = <-1, N(xi)> = (-1)^r, a parity since -1 has exponent (q-1)/2.
    """

    num: int
    den: int
    m: int
    r: int
    d: int

    @property
    def rep(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.num, self.den)


def _check_coprime(q: int, num: int, den: int) -> None:
    if gcd(den, q) != 1:
        raise ValueError(f"{num}/{den} has denominator not coprime to q = {q}")


def as_dual(ctx: QContext, x) -> Fraction:
    """Normalise x, an int or a Fraction, into [0,1); its denominator must be coprime to q."""
    from fractions import Fraction
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"a dual element must be an int or a Fraction, got {x!r}")
    x = Fraction(x) % 1
    _check_coprime(ctx.q, x.numerator, x.denominator)
    return x


def parse_pair(text: str) -> tuple[int, int]:
    """Parse the text form ``a/b`` to the reduced pair (num, den) of a/b mod 1.

    a and b are numbers as errors.parse_int reads them, so a second ``/`` is refused.
    """
    a, sep, b = text.partition("/")
    if not sep:
        raise ValueError(f"cannot parse dual element {text!r}; expected a/b")
    try:
        num, den = parse_int(a), parse_int(b)
    except ValueError as exc:
        raise ValueError(f"cannot parse dual element {text!r}: {exc}") from None
    if den < 1:
        raise ValueError(f"denominator must be >= 1 in {text!r}")
    num %= den
    g = gcd(num, den)
    return num // g, den // g


def parse_fraction(text: str) -> Fraction:
    """Parse the text form ``a/b`` (identity: ``0/1``)."""
    from fractions import Fraction
    return Fraction(*parse_pair(text))


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def orbit_data(ctx: QContext, x, max_m: Optional[int] = None) -> Optional[OrbitData]:
    """The OrbitData of the sigma-orbit of x, or None if it has more than max_m elements."""
    x = as_dual(ctx, x)
    return pair_orbit_data(ctx, x.numerator, x.denominator, max_m)


def pair_orbit_data(
    ctx: QContext, num: int, den: int, max_m: Optional[int] = None
) -> Optional[OrbitData]:
    """orbit_data of num/den, reduced with 0 <= num < den; den is checked coprime to q.

    All orbit elements share a denominator, so one walk of num -> num * q mod
    den gives the size m and the least numerator, which is the canonical
    representative: the minimal (denominator, numerator) in the orbit.  With
    max_m the walk stops after max_m steps, before a long orbit is listed; a
    walk still open after ORBIT_ELEMENT_BUDGET steps that max_m allows is refused.
    """
    q = ctx.q
    if not 0 <= num < den or gcd(num, den) != 1:
        raise ValueError(f"{num}/{den} is not a reduced fraction in [0, 1)")
    _check_coprime(q, num, den)
    # An orbit has fewer than den elements, so den alone never stops the walk.
    limit = den if max_m is None else max_m
    stop = min(limit, LIMITS["ORBIT_ELEMENT_BUDGET"])
    least = num
    m = 1
    y = num * q % den
    while y != num:
        if m >= stop:
            if m >= limit:
                return None
            what = f"elements walked in the sigma-orbit of {num}/{den}"
            check_limit("ORBIT_ELEMENT_BUDGET", m + 1, what)
        if y < least:
            least = y
        y = y * q % den
        m += 1
    # r = least * (q^m - 1) / den mod q - 1, from q^m mod den * (q - 1), which is >= 1.
    t = pow(q, m, den * (q - 1)) - 1
    if t % den:
        raise InvariantViolation(f"orbit size {m} of {num}/{den} does not satisfy den | q^m - 1")
    r = least * (t // den) % (q - 1)
    return OrbitData(least, den, m, r, -1 if r % 2 else 1)


def canonical_rep(ctx: QContext, x) -> Fraction:
    """Frozen orbit representative: minimal (denominator, numerator) in the orbit."""
    return orbit_data(ctx, x).rep


def orbits_up_to(ctx: QContext, n: int, *, residue: Optional[int] = None) -> list[OrbitData]:
    """All sigma-orbits with m_xi <= n, once each, sorted by representative.

    Level e lists the residues a mod q^e - 1 by orbits of a -> a * q.  An
    orbit shorter than e belongs to a lower level and is skipped.  The first
    unmarked a is the least member of its orbit, so a / (q^e - 1) is the
    canonical representative, and its norm residue r is a mod (q - 1).

    With residue, level n keeps only the orbits with r == residue and walks
    only a = residue mod (q - 1): as q = 1 mod (q - 1) and (q - 1) | q^n - 1,
    a -> a * q fixes a mod (q - 1), so that class is a union of orbits and
    its least unmarked a is still the least member of its orbit.  The
    ORBIT_ELEMENT_BUDGET estimate, check_orbit_budget, is the same with or
    without residue.
    """
    check_orbit_budget(ctx, n)  # n is an int >= 1
    if residue is not None and not 0 <= residue < ctx.q - 1:
        raise ValueError(f"residue must be in [0, {ctx.q - 1}), got {residue}")
    q = ctx.q
    out: list[OrbitData] = []
    for e in range(1, n + 1):
        level = q**e - 1
        marked = bytearray(level)
        first, step = (residue, q - 1) if e == n and residue is not None else (0, 1)
        for a in range(first, level, step):
            if marked[a]:
                continue
            b = a
            length = 0
            while True:
                marked[b] = 1
                length += 1
                b = b * q % level
                if b == a:
                    break
            if length == e:
                g = gcd(a, level)
                r = a % (q - 1)
                out.append(OrbitData(a // g, level // g, e, r, -1 if r % 2 else 1))
    out.sort(key=lambda od: (od.den, od.num))
    return out


def phi(ctx: QContext, blocks: Mapping[Fraction, int]) -> int:
    """The sign Phi of a label given as a map orbit-representative -> block size.

    Defined when the norm product over the blocks is trivial and every
    m_xi * size is even.  Uses the frozen square root sqrt(beta) = g_2^((q+1)/2),
    so beta = g_1 is a non-square; the result does not depend on that choice.
    """
    # The pairing is taken at each key itself, which need not be the least member.
    pairs = []
    for xi, size in blocks.items():
        xi = as_dual(ctx, xi)
        data = pair_orbit_data(ctx, xi.numerator, xi.denominator)
        pairs.append((data._replace(num=xi.numerator), size))
    return phi_from_orbits(ctx, pairs)


def phi_from_orbits(ctx: QContext, blocks: Iterable[tuple[OrbitData, int]]) -> int:
    """Phi over blocks (orbit data of xi = num/den, block size), in integer arithmetic.

    The pairing exponents (phi_term) are summed and the norm residues taken
    mod q - 1; phi_sign reads the sign from the sum, at the frozen
    sqrt(beta) of phi().
    """
    total = 0
    pi_total = 0
    for data, size in blocks:
        if size < 1:
            raise ValueError("block sizes must be positive")
        e = data.m * size
        if e % 2:
            raise ValueError(f"phi needs m_xi * |nu_xi| even; orbit {data.rep} gives {e}")
        pi_total += size * data.r
        total += phi_term(ctx.q, data, e)
    if pi_total % (ctx.q - 1):
        raise ValueError("phi needs a trivial norm product over the blocks")
    return phi_sign(ctx.q, total)


def phi_term(q: int, data: OrbitData, e: int) -> int:
    """One block's term of Phi, for the orbit data of xi = num/den and e = m * size.

    <sqrt(beta), xi>_e with sqrt(beta) = g_e^((q+1)/2 * (q^e-1)/(q^2-1)):
    the exponent fraction collapses to (q+1)/2 * t_e / (q^2 - 1),
    t_e = xi * (q^e - 1), needed mod q^2 - 1.  This is t_e: den divides
    q^e - 1, and q is prime to den * (q^2 - 1), so q^e modulo that is >= 1
    and 1 mod den, and a huge block costs no more than a small one.
    """
    den = data.den
    return data.num * ((pow(q, e, den * (q * q - 1)) - 1) // den)


def phi_sign(q: int, total: int) -> int:
    """Phi from the sum of its blocks' phi_term, over a trivial norm product:
    the pairing with sqrt(beta) = g_2^((q+1)/2) is 1 or -1."""
    q2 = q * q - 1
    total = (q + 1) // 2 * total % q2
    if total == 0:
        return 1
    if 2 * total == q2:
        return -1
    # Guaranteed by the trivial norm product: the square of the pairing
    # product is <beta, Pi> = 1.
    from fractions import Fraction
    raise InvariantViolation(
        f"phi pairing product exponent {Fraction(total, q2)} is not half-integral"
    )
