import itertools
import json
import re
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


def test_character_table_leaves_a_negative_m_to_partitions_of(monkeypatch):
    # partitions_of is the one home of the rule; character_table once made
    # the same check with the same text first.
    real = symchar.partitions_of
    asked = []

    def recorded(m):
        asked.append(m)
        return real(m)

    monkeypatch.setattr(symchar, "partitions_of", recorded)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        character_table(-1)
    assert asked == [-1]

    def fail(m):
        raise AssertionError("a table was started past CHARACTER_TABLE_BOUND")

    monkeypatch.setattr(symchar, "partitions_of", fail)
    with pytest.raises(CapacityError, match="character_table m: 15 exceeds CHARACTER_TABLE_BOUND = 14"):
        character_table(15)


@pytest.mark.parametrize("m", [2.5, True, "2"])
def test_character_table_takes_m_only_as_an_int(m):
    with pytest.raises(ValueError, match=f"^m must be an int, got {re.escape(repr(m))}$"):
        character_table(m)


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


# The four sums as separate passes over every rho of |nu|, each rho's weight
# worked out again: the reference for chi_sums and the four names.


def ref_sum_chi_even(nu):
    return sum(chi(rho, nu) for rho in partitions_of(nu.size()) if rho.is_even())


def ref_sum_chi_transpose_even(nu):
    return sum(chi(rho, nu) for rho in partitions_of(nu.size()) if rho.transpose().is_even())


def ref_sum_chi_weighted(nu):
    total = 0
    for rho in partitions_of(nu.size()):
        weight = 1
        for mult in rho.multiplicities().values():
            weight *= mult + 1
        total += weight * chi(rho, nu)
    return total


def ref_sum_chi_signed_even(nu):
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


REF_SUMS = (ref_sum_chi_even, ref_sum_chi_transpose_even, ref_sum_chi_weighted,
            ref_sum_chi_signed_even)


@pytest.mark.parametrize("m", range(11))
def test_chi_sums_and_the_four_names_match_the_four_pass_reference(m):
    for nu in partitions_of(m):
        expected = tuple(ref(nu) for ref in REF_SUMS)
        assert symchar.chi_sums(nu) == expected, nu
        assert tuple(fn(nu) for fn in SUMS) == expected, nu
        assert tuple(fn(list(nu)) for fn in SUMS) == expected, nu


def test_chi_sums_walk_the_column_once_and_weigh_each_rho_once(monkeypatch):
    symchar.clear_memo()  # and the memos' statistics
    columns = []
    real = symchar.chi_column
    monkeypatch.setattr(symchar, "chi_column", lambda nu: columns.append(nu) or real(nu))
    for m in range(8):
        for nu in partitions_of(m):
            for fn in SUMS:
                fn(nu)
    assert columns == [nu for m in range(8) for nu in partitions_of(m)]
    # Every rho is in the column of (1^m), and its weights are worked out once.
    assert symchar._weights.cache_info().misses == sum(len(partitions_of(m)) for m in range(8))
    symchar.clear_memo()


def test_clear_memo_empties_every_memo_and_cold_values_are_unchanged():
    # The memos are found by introspection, so a table added later cannot be missed.
    memos = [value for value in vars(symchar).values() if hasattr(value, "cache_info")]
    assert set(memos) == set(symchar._MEMOS) and len(memos) <= 4
    tables = [character_table(m) for m in range(7)]
    sums = [[fn(nu) for nu in partitions_of(m)] for m in range(7) for fn in SUMS]
    assert all(memo.cache_info().currsize for memo in memos)
    symchar.clear_memo()
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    assert [character_table(m) for m in range(7)] == tables
    assert [[fn(nu) for nu in partitions_of(m)] for m in range(7) for fn in SUMS] == sums


def test_sums_accept_any_partition_form():
    for fn in (*SUMS, symchar.chi_sums):
        assert fn([2, 1, 1]) == fn((2, 1, 1)) == fn(Partition([2, 1, 1]))
        with pytest.raises(ValueError):
            fn([1, 2])


@pytest.fixture
def fresh_sums(fresh_route_tables):
    """Empty symchar's memos before the test and after it, with the route tables."""
    symchar.clear_memo()
    yield
    symchar.clear_memo()


def weighted_off_by_four(monkeypatch):
    """Add 4 to [2,1,1]'s weight in the weighted sum: every quotient by 4 stays exact."""
    real = symchar._weights

    def wrong(rho):
        even, transpose_even, weighted, signed = real(rho)
        return even, transpose_even, weighted + 4 * (rho == Partition([2, 1, 1])), signed

    monkeypatch.setattr(symchar, "_weights", wrong)


def main_json(capsys, *argv):
    from pglchar.cli import main
    code = main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_a_wrong_weight_fails_weight_all_in_the_identities(capsys, monkeypatch, fresh_sums):
    weighted_off_by_four(monkeypatch)
    code, report, err = main_json(capsys, "verify-identities", "--max-size", "4")
    failed = [check for check in report["checks"] if check["status"] == "FAIL"]
    assert code == 4
    assert err == f"invariant violation: {len(failed)} identity checks failed\n"
    assert failed and {check["identity"] for check in failed} == {"weight-all"}
    assert {check["nu"] for check in failed} <= {str(nu) for nu in partitions_of(4)}


def test_a_wrong_weight_is_a_closed_form_mismatch_in_the_cross_check(capsys, monkeypatch,
                                                                        fresh_sums):
    weighted_off_by_four(monkeypatch)
    code, report, err = main_json(capsys, "cross-check", "--q", "3", "--n", "4")
    mismatches = report["mismatches"]
    assert code == 4
    assert err == f"invariant violation: {len(mismatches)} route mismatches\n"
    assert mismatches
    for item in mismatches:
        routes = dict(item["routes"])
        closed = routes.pop("closed-form")
        assert len(set(routes.values())) == 1 and closed not in routes.values(), item


def test_chi_column_lists_the_nonzero_values_and_is_cleared_with_the_memo():
    for m in range(7):
        for mu in partitions_of(m):
            expected = tuple((rho, chi(rho, mu)) for rho in partitions_of(m) if chi(rho, mu))
            assert symchar.chi_column(mu) == expected
    assert symchar.chi_column([2, 1]) == symchar.chi_column(Partition([2, 1]))
    assert symchar.chi_column.cache_info().currsize
    symchar.clear_memo()
    assert symchar.chi_column.cache_info().currsize == 0
