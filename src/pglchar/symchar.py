"""Exact symmetric-group character values computed by border-strip recursion.

chi(rho, mu) is the value of the irreducible character of S_m indexed by rho
at a permutation of cycle type mu, normalised so that chi((m), mu) = 1 and
chi(rho', mu) = sign(mu) * chi(rho, mu).  The recursion removes one border
strip per part of mu, working on first-column hook lengths (beta-sets).

Values are memoised by _chi's lru_cache.  Per partition nu, the nonzero
column chi_column(nu) and the four weighted sums of chi_sums(nu), filled in
one pass over that column, are memoised (memo_per_partition), as are each
rho's four weights (_weights); sum_chi_* each read one of the four sums.
Writes are idempotent, so concurrent use from several threads can at worst
duplicate work; clear_memo() empties the four memos together.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import check_limit, int_arg
from .partitions import Partition, memo_per_partition, partitions_of


def chi(rho, mu) -> int:
    """Character value chi^rho at cycle type mu; requires |rho| = |mu|.

    A Partition argument is used as it is; anything else is built into one,
    which validates it.
    """
    if not isinstance(rho, Partition):
        rho = Partition(rho)
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    if rho.size() != mu.size():
        raise ValueError(f"size mismatch: |{rho}| = {rho.size()} but |{mu}| = {mu.size()}")
    return _chi(rho, mu)


@lru_cache(maxsize=None)
def _chi(rho: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    length = len(rho)
    beta = [rho[i] + (length - 1 - i) for i in range(length)]
    present = set(beta)
    total = 0
    for i, b in enumerate(beta):
        lowered = b - strip
        if lowered < 0 or lowered in present:
            continue
        height = sum(1 for c in beta if lowered < c < b)
        newbeta = sorted((lowered if j == i else c for j, c in enumerate(beta)), reverse=True)
        parts = []
        for j, c in enumerate(newbeta):
            v = c - (length - 1 - j)
            if v:
                parts.append(v)
        total += (-1) ** height * _chi(tuple(parts), rest)
    return total


def character_table(m: int) -> list[list[int]]:
    """Full table for S_m: rows rho, columns mu, both in partitions_of(m) order.

    partitions_of refuses a negative m.
    """
    check_limit("CHARACTER_TABLE_BOUND", int_arg("m", m), "character_table m")
    parts = partitions_of(m)
    return [[chi(rho, mu) for mu in parts] for rho in parts]


def clear_memo() -> None:
    """Empty the memos of _chi, chi_column, chi_sums and _weights.  The tables formulas
    builds from them (_basic_step, _transition_column) keep theirs."""
    for memo in _MEMOS:
        memo.cache_clear()


@memo_per_partition
def chi_column(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The pairs (rho, chi(rho, mu)) with a nonzero value, rho in partitions_of order."""
    return tuple(
        (rho, value) for rho in partitions_of(mu.size()) if (value := chi(rho, mu))
    )


@lru_cache(maxsize=None)
def _weights(rho: Partition) -> tuple[int, int, int, int]:
    """rho's weights in the four sums of chi_sums, as the sum_chi_* below give them."""
    weighted = signed = 1
    for part, mult in rho.multiplicities().items():
        weighted *= mult + 1
        if part % 2 == 0:
            signed *= mult + 1
        elif mult % 2:
            signed = 0
    signed *= (-1) ** (rho.size() // 2 + rho.length_stats().ell2mod4)
    return int(rho.is_even()), int(rho.transpose().is_even()), weighted, signed


@memo_per_partition
def chi_sums(nu: Partition) -> tuple[int, int, int, int]:
    """The weighted chi-sums that the closed formulas and the identity checks read,
    (even, transpose_even, weighted, signed_even): the sums over rho of
    _weights(rho) times chi(rho, nu), in one pass over chi_column(nu)."""
    even = transpose_even = weighted = signed = 0
    for rho, value in chi_column(nu):
        w_even, w_transpose, w_weighted, w_signed = _weights(rho)
        even += w_even * value
        transpose_even += w_transpose * value
        weighted += w_weighted * value
        signed += w_signed * value
    return even, transpose_even, weighted, signed


def sum_chi_even(nu) -> int:
    """Sum of chi(rho, nu) over even rho (all parts even)."""
    return chi_sums(nu)[0]


def sum_chi_transpose_even(nu) -> int:
    """Sum of chi(rho, nu) over rho with even transpose (all multiplicities even)."""
    return chi_sums(nu)[1]


def sum_chi_weighted(nu) -> int:
    """Sum over all rho of prod_i (m_i(rho)+1) times chi(rho, nu)."""
    return chi_sums(nu)[2]


def sum_chi_signed_even(nu) -> int:
    """Sum of (-1)^(|rho|/2 + #parts congruent to 2 mod 4) prod_i (m_2i(rho)+1) chi(rho, nu)
    over rho whose odd parts all have even multiplicity."""
    return chi_sums(nu)[3]


_MEMOS = (_chi, chi_column, chi_sums, _weights)
