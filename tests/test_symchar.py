import itertools
from fractions import Fraction

import pytest

from pglchar.errors import CapacityError
from pglchar.partitions import Partition, partitions_of
from pglchar import symchar
from pglchar.symchar import character_table, chi

from test_partitions import centralizer_order


# Independent oracle: build the character table of S_m from permutation
# modules on Young-subgroup cosets, orthogonalizing in reverse-lex order
# (unitriangularity of Kostka numbers).  No border strips anywhere.


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def ordered_set_partitions(points, sizes):
    if not sizes:
        yield ()
        return
    for chosen in itertools.combinations(points, sizes[0]):
        block = frozenset(chosen)
        remaining = tuple(x for x in points if x not in block)
        for tail in ordered_set_partitions(remaining, sizes[1:]):
            yield (block,) + tail


def naive_character_table(m):
    perms = list(itertools.permutations(range(m)))
    classes = {}
    for perm in perms:
        classes.setdefault(cycle_type(perm), []).append(perm)
    mus = list(partitions_of(m))
    class_size = {mu: len(classes[mu]) for mu in mus}
    order = len(perms)

    def perm_char(lam):
        values = {}
        for mu in mus:
            rep = classes[mu][0]
            count = 0
            for blocks in ordered_set_partitions(tuple(range(m)), tuple(lam)):
                if all(frozenset(rep[x] for x in block) == block for block in blocks):
                    count += 1
            values[mu] = Fraction(count)
        return values

    def inner(a, b):
        return sum(class_size[mu] * a[mu] * b[mu] for mu in mus) / order

    table = {}
    for lam in mus:  # reverse-lex: every dominance-larger partition comes first
        v = perm_char(lam)
        for prev in table.values():
            c = inner(v, prev)
            v = {mu: v[mu] - c * prev[mu] for mu in mus}
        assert inner(v, v) == 1
        table[lam] = v
    return {
        (lam, mu): int(value)
        for lam, row in table.items()
        for mu, value in row.items()
    }


@pytest.mark.parametrize("m", range(6))
def test_against_permutation_module_oracle(m):
    expected = naive_character_table(m) if m else {(Partition(), Partition()): 1}
    for (rho, mu), value in expected.items():
        assert chi(rho, mu) == value


def test_size_mismatch():
    with pytest.raises(ValueError):
        chi([2], [1, 1, 1])


def test_chi_refuses_a_fractional_part():
    # int() would read them as [2] and [1,1], where chi is 1.
    with pytest.raises(ValueError, match=r"^partition parts must be integers, got 2\.9$"):
        chi([2.9], [1.2, 1.7])


def test_trivial_row_is_one():
    for m in range(1, 9):
        for mu in partitions_of(m):
            assert chi([m], mu) == 1


def test_transpose_sign_rule():
    for m in range(1, 8):
        for rho in partitions_of(m):
            for mu in partitions_of(m):
                assert chi(rho.transpose(), mu) == mu.sign() * chi(rho, mu)


def test_sign_rep_value():
    # brute-force trace over the sign representation of S_2
    assert chi([1, 1], [2]) == -1


def test_hook_length_dimension():
    # dimension of the (2,2)-irreducible of S_4 by the hook-length count
    assert chi([2, 2], [1, 1, 1, 1]) == 24 // (3 * 2 * 2 * 1)


def test_row_orthogonality():
    for m in range(1, 10):
        parts = partitions_of(m)
        for rho in parts:
            for tau in parts:
                total = sum(
                    Fraction(chi(rho, mu) * chi(tau, mu), centralizer_order(mu))
                    for mu in parts
                )
                assert total == (1 if rho == tau else 0)


def test_column_orthogonality():
    for m in range(1, 10):
        parts = partitions_of(m)
        for mu in parts:
            for nu in parts:
                total = sum(chi(rho, mu) * chi(rho, nu) for rho in parts)
                assert total == (centralizer_order(mu) if mu == nu else 0)


def test_dimensions_positive():
    for m in range(1, 11):
        ones = Partition([1] * m)
        for rho in partitions_of(m):
            assert chi(rho, ones) > 0


def test_character_table_layout():
    assert character_table(1) == [[1]]
    # m = 2: rows/columns ordered (2), (1,1); the sign row is (-1 at the
    # transposition class, +1 at the identity class)
    assert character_table(2) == [[1, 1], [-1, 1]]
    table = character_table(4)
    parts = partitions_of(4)
    assert table[parts.index(Partition([2, 2]))][parts.index(Partition([1, 1, 1, 1]))] == 2


def test_character_table_capacity():
    with pytest.raises(CapacityError):
        character_table(15)


def test_clear_memo_then_rebuild_is_unchanged():
    before = character_table(5)
    symchar.clear_memo()
    assert character_table(5) == before


def test_chi_validates_outside_input():
    with pytest.raises(ValueError):
        chi([1, 2], [2, 1])  # not weakly decreasing
    with pytest.raises(ValueError):
        chi([2, 1], [1, 2])
    with pytest.raises(ValueError):
        chi(Partition([2]), Partition([1, 1, 1]))


def test_chi_builds_no_partition_from_partitions(monkeypatch):
    rho, mu = Partition([3, 1]), Partition([2, 2])
    expected = chi(rho, mu)
    built = []
    original = Partition.__new__

    def counting(cls, parts=()):
        built.append(parts)
        return original(cls, parts)

    monkeypatch.setattr(Partition, "__new__", counting)
    assert chi(rho, mu) == expected
    assert built == []
    assert chi([3, 1], (2, 2)) == expected
    assert len(built) == 2


SUMS = (
    symchar.sum_chi_even,
    symchar.sum_chi_transpose_even,
    symchar.sum_chi_weighted,
    symchar.sum_chi_signed_even,
)


def test_clear_memo_empties_every_memo_and_cold_values_are_unchanged():
    tables = [character_table(m) for m in range(7)]
    sums = [[fn(nu) for nu in partitions_of(m)] for m in range(7) for fn in SUMS]
    assert symchar._chi.cache_info().currsize
    assert all(fn.cache_info().currsize for fn in SUMS)
    symchar.clear_memo()
    assert symchar._chi.cache_info().currsize == 0
    assert all(fn.cache_info().currsize == 0 for fn in SUMS)
    assert [character_table(m) for m in range(7)] == tables
    assert [[fn(nu) for nu in partitions_of(m)] for m in range(7) for fn in SUMS] == sums


def test_sums_accept_any_partition_form():
    for fn in SUMS:
        assert fn([2, 1, 1]) == fn((2, 1, 1)) == fn(Partition([2, 1, 1]))
        with pytest.raises(ValueError):
            fn([1, 2])


def test_chi_column_lists_the_nonzero_values_and_is_cleared_with_the_memo():
    for m in range(7):
        for mu in partitions_of(m):
            expected = tuple((rho, chi(rho, mu)) for rho in partitions_of(m) if chi(rho, mu))
            assert symchar.chi_column(mu) == expected
    assert symchar.chi_column([2, 1]) == symchar.chi_column(Partition([2, 1]))
    assert symchar.chi_column.cache_info().currsize
    symchar.clear_memo()
    assert symchar.chi_column.cache_info().currsize == 0
