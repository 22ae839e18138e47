"""Involutions commuting with a fixed permutation, and the identity checks.

For a partition nu, Z_inv(nu) is the set of involutions (including the
identity) in S_|nu| commuting with a fixed permutation w_nu of cycle type
nu.  Such an involution permutes the cycles of w_nu; each cycle is either
fixed pointwise (type 1), mapped to itself with a half-rotation (type 2,
even length only), or swapped with another cycle of the same length
(type 3, counted in pairs).

Route 3, threeterm_values, is the enumeration alone: it sums the three
terms of a label's double-coset count over its tuples of such involutions,
one per block, and reads of the label only its entries and the shape it
holds, no closed form; errors.by_sign turns the three sums into the values
for both signs, and params is loaded only to refuse a label.  What it reads
of an involution on a block is in the block's table, _block_involutions, an
lru_cache keyed by the block's (sign, size, partition), never by label, and
kept for the life of the process (cache_clear empties it), as _zinv is.
check_identities walks Z_inv(nu) once per nu and compares four sums over it
with symchar's character sums; they make route 2's closed forms equal this count.

Z_inv(nu) is listed straight from the centralizer of w_nu, cycle by cycle
(_zinv), so no permutation of S_|nu| is ever built; the tests compare it,
as a multiset, with a brute-force filter of all involutions of S_|nu| for
every nu the size bound admits.  Z_inv(nu) is listed once per partition,
and one enumeration of a label's involution tuples serves both signs eps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import symchar
from .errors import InvariantViolation, by_sign, check_limit, int_arg, sign_index
from .partitions import Partition, partitions_of

if TYPE_CHECKING:  # annotations only: check_identities loads no label code
    from .params import MultiPartition


class _InvolutionFields(NamedTuple):
    nu: Partition
    type1: tuple
    type2: tuple
    type3: tuple
    ell1: int
    ell1_odd: int
    ell1_2mod4: int
    is_fixed_point_free: bool


class CentralizerInvolution(_InvolutionFields):
    """An involution commuting with w_nu, recorded by its cycle statistics.

    type1 lists the lengths of pointwise-fixed cycles, type2 those of
    half-rotated cycles (all even), type3 one length per swapped pair of
    cycles.  It is built from those four; the type-1 counts are computed
    then, once.
    """

    __slots__ = ()

    def __new__(cls, nu: Partition, type1: tuple, type2: tuple, type3: tuple):
        if any(l % 2 for l in type2):
            raise InvariantViolation("type-2 cycles must have even length")
        rebuilt = sorted(type1 + type2 + type3 + type3, reverse=True)
        if rebuilt != list(nu):
            raise InvariantViolation(f"cycle lengths {rebuilt} do not reassemble the type {nu}")
        odd = sum(1 for l in type1 if l % 2)
        two_mod_4 = sum(1 for l in type1 if l % 4 == 2)
        return super().__new__(cls, nu, type1, type2, type3, len(type1), odd, two_mod_4, not type1)

    def __getnewargs__(self) -> tuple:  # pickle and copy rebuild from the four given fields
        return self[:4]


class IdentityCheckResult(NamedTuple):
    name: str
    nu: Partition
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@lru_cache(maxsize=None)
def _zinv(nu: Partition) -> tuple[CentralizerInvolution, ...]:
    """Z_inv(nu), built from the centralizer of w_nu one cycle at a time.

    An involution commuting with w_nu acts on the cycles of w_nu.  Taking the
    cycles in order, each one still free is fixed pointwise (type 1),
    half-rotated if its length l is even (type 2), or swapped with a later
    free cycle of length l (type 3), matching the points of the two cycles in
    one of l alignments.  The cycle lengths come in weakly decreasing order,
    so every type tuple is built already sorted.
    """
    out: list[CentralizerInvolution] = []

    def rec(free: tuple[int, ...], type1: tuple, type2: tuple, type3: tuple) -> None:
        if not free:
            out.append(CentralizerInvolution(nu, type1, type2, type3))
            return
        length, rest = free[0], free[1:]
        rec(rest, type1 + (length,), type2, type3)
        if length % 2 == 0:
            rec(rest, type1, type2 + (length,), type3)
        # Every partner of length l leaves the same free cycles rest[1:].
        for _ in range(rest.count(length) * length):
            rec(rest[1:], type1, type2, type3 + (length,))

    rec(tuple(nu), (), (), ())
    return tuple(out)


def enumerate_zinv(nu) -> tuple[CentralizerInvolution, ...]:
    """All involutions commuting with w_nu (the identity included), with stats.

    A Partition argument is used as it is; anything else is built into one,
    which validates it.
    """
    if not isinstance(nu, Partition):
        nu = Partition(nu)
    check_limit("ZINV_SIZE_BOUND", nu.size(), "|nu|")
    return _zinv(nu)


_IDENTITY_NAMES = ("ff-count", "weight-all", "weight-even-type1", "weight-signed")


def _left_sides(nu: Partition) -> tuple[int, int, int, int]:
    """The four identities' left sides at nu, in one pass over Z_inv(nu).

    The number of fixed-point-free involutions, the sum of (-2)^ell1, that
    sum over the involutions with no odd type-1 cycle, and the same signed
    by (-1)^ell1_2mod4.
    """
    ff = weight_all = weight_even = weight_signed = 0
    for w in enumerate_zinv(nu):
        weight = (-2) ** w.ell1
        ff += w.is_fixed_point_free
        weight_all += weight
        if not w.ell1_odd:
            weight_even += weight
            weight_signed += (-1) ** w.ell1_2mod4 * weight
    return ff, weight_all, weight_even, weight_signed


def check_identities(max_size: int) -> list[IdentityCheckResult]:
    """Run all four identities for every nu of size 1..max_size.

    Each compares a sum over Z_inv(nu) with one of symchar.chi_sums(nu).
    """
    if int_arg("max_size", max_size) < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    check_limit("ZINV_SIZE_BOUND", max_size, "max_size")
    out = []
    for m in range(1, max_size + 1):
        for nu in partitions_of(m):
            even, transpose_even, weighted, signed = symchar.chi_sums(nu)
            rhs = (even, (-1) ** m * weighted, transpose_even, signed)
            for name, lhs, right in zip(_IDENTITY_NAMES, _left_sides(nu), rhs):
                out.append(IdentityCheckResult(name, nu, lhs, right))
    return out


def epsilon_nu(mp: MultiPartition) -> int:
    """Sign of the Frobenius permutation of the torus fixed lines.

    One cycle of length m_xi * part for every orbit xi and part of nu_xi.
    """
    sign = 1
    for data, part in mp.entries:
        for length in part:
            sign *= (-1) ** (data.m * length - 1)
    return sign


def _block_sign(d: int, m: int, w: CentralizerInvolution) -> int:
    """One block's factor of Phi_w, w on an orbit of sign d and size m; outside Y, a ValueError."""
    sign = 1
    for length in w.type1:
        if (m * length) % 2:
            raise ValueError("tuple lies outside Y: odd m_xi * length on a type-1 cycle")
        sign *= (-1) ** (m * length // 2)
    for length in w.type2:
        sign *= d ** (m * length // 2)
    for length in w.type3:
        sign *= d ** (m * length)
    return sign


def phi_w(ws: Sequence[CentralizerInvolution], mp: MultiPartition) -> int:
    """The sign of a per-orbit involution tuple, defined on the set Y.

    ws[i] must commute with a permutation of cycle type equal to the i-th
    block of the label.  Raises if some type-1 cycle has m_xi * length odd
    (the tuple then lies outside Y and the sign is undefined).
    """
    entries = mp.entries
    if len(ws) != len(entries):
        raise ValueError("one involution per label block is required")
    sign = 1
    for (data, part), w in zip(entries, ws):
        if w.nu != part:
            raise ValueError(f"involution for block {part} has type {w.nu}")
        sign *= _block_sign(data.d, data.m, w)
    return sign


@lru_cache(maxsize=None)
def _block_involutions(d: int, m: int, part: Partition) -> tuple[tuple[int, bool, int], ...]:
    """The involution route's table for a block part on an orbit of sign d and size m.

    One entry per w in Z_inv(part) that lies in X on the block (any w if d = 1,
    else one with no odd type-1 cycle): (-2)^ell1, whether w is fixed-point
    free, and its factor of Phi_w if w lies in Y on the block (m even or no
    odd type-1 cycle), else 0.
    """
    return tuple(
        ((-2) ** w.ell1, w.is_fixed_point_free, 0 if m % 2 and w.ell1_odd else _block_sign(d, m, w))
        for w in enumerate_zinv(part)
        if d == 1 or not w.ell1_odd
    )


def threeterm_bruteforce(mp: MultiPartition, eps: int) -> int:
    """Third route to the orthogonal multiplicity, by involution enumeration.

    One sign's value of threeterm_values.
    """
    return threeterm_values(mp)[sign_index(eps)]


def threeterm_values(mp: MultiPartition) -> tuple[int, int]:
    """The three-term double-coset count for eps = +1 and -1, by enumeration.

    4 times the count is T1 + 2 * eps * T2 + T3.  One walk over every tuple
    in X of the label's involutions (one per block, each an entry of the
    block's _block_involutions) sums all three terms for both signs: T1 sums
    the tuple's (-2)^ell1, T2 counts the fixed-point-free tuples, and T3 sums
    Phi_w (-2)^ell1 over the tuples in Y.  No character sum is read, so the
    value is independent of the closed forms it is compared with.
    Returns (eps = +1, eps = -1).
    """
    if mp.shape.pi:  # only a label that does not descend loads params, to refuse it
        from .params import require_descends
        require_descends(mp)
    # Each block's size is checked by enumerate_zinv before any tuple is summed.
    tables = [_block_involutions(data.d, data.m, part) for data, part in mp.entries]
    s1 = s3 = ff_count = 0
    for ws in iter_product(*tables):
        weight = ff = sign = 1
        for w_weight, w_ff, w_sign in ws:
            weight *= w_weight
            ff *= w_ff
            sign *= w_sign
        s1 += weight
        ff_count += ff
        s3 += sign * weight
    t2 = epsilon_nu(mp) * ff_count if mp.shape.half == 0 else 0
    # A block of odd m * size has an odd type-1 cycle, with m odd, in each of
    # its involutions, so s3 is 0 unless every m * size is even, as Phi needs.
    t3 = mp.shape.phi() * s3 if s3 else 0
    return by_sign(s1, t2, t3, "three-term value {value} for {} at eps = {:+d}", mp)
