"""Exact symmetric-group character values computed by border-strip recursion.

chi(rho, mu) is the value of the irreducible character of S_m indexed by rho
at a permutation of cycle type mu, normalised so that chi((m), mu) = 1 and
chi(rho', mu) = sign(mu) * chi(rho, mu).  The recursion removes one border
strip per part of mu, working on first-column hook lengths (beta-sets).

Values are memoised by _chi's lru_cache, and the nonzero column chi_column
and each of the four weighted sums sum_chi_* are memoised per partition
(memo_per_partition).  Writes are idempotent, so concurrent use from several
threads can at worst duplicate work; clear_memo() empties the chi memo and
the five per-partition memos together.
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
    """Empty the chi memo, the chi_column memo and the memos of the four sums.

    The tables formulas builds from these values (_basic_step and
    _transition_column) keep theirs; each one's cache_clear empties it.
    """
    for memo in _MEMOS:
        memo.cache_clear()


@memo_per_partition
def chi_column(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The pairs (rho, chi(rho, mu)) with a nonzero value, rho in partitions_of order."""
    return tuple(
        (rho, value) for rho in partitions_of(mu.size()) if (value := chi(rho, mu))
    )


# Weighted chi-sums shared by the closed formulas and the identity checks.


@memo_per_partition
def sum_chi_even(nu: Partition) -> int:
    """Sum of chi(rho, nu) over even rho (all parts even)."""
    return sum(chi(rho, nu) for rho in partitions_of(nu.size()) if rho.is_even())


@memo_per_partition
def sum_chi_transpose_even(nu: Partition) -> int:
    """Sum of chi(rho, nu) over rho with even transpose (all multiplicities even)."""
    return sum(chi(rho, nu) for rho in partitions_of(nu.size()) if rho.transpose().is_even())


@memo_per_partition
def sum_chi_weighted(nu: Partition) -> int:
    """Sum over all rho of prod_i (m_i(rho)+1) times chi(rho, nu)."""
    total = 0
    for rho in partitions_of(nu.size()):
        weight = 1
        for mult in rho.multiplicities().values():
            weight *= mult + 1
        total += weight * chi(rho, nu)
    return total


@memo_per_partition
def sum_chi_signed_even(nu: Partition) -> int:
    """Signed sum over rho whose odd parts all have even multiplicity.

    Each such rho contributes
    (-1)^(|rho|/2 + #parts congruent to 2 mod 4) * prod_i (m_2i(rho)+1) * chi(rho, nu).
    """
    total = 0
    for rho in partitions_of(nu.size()):
        mults = rho.multiplicities()
        if any(part % 2 and mult % 2 for part, mult in mults.items()):
            continue
        weight = 1
        for part, mult in mults.items():
            if part % 2 == 0:
                weight *= mult + 1
        sign = (-1) ** (rho.size() // 2 + rho.length_stats().ell2mod4)
        total += sign * weight * chi(rho, nu)
    return total


_MEMOS = (
    _chi,
    chi_column,
    sum_chi_even,
    sum_chi_transpose_even,
    sum_chi_weighted,
    sum_chi_signed_even,
)
