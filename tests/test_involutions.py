import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import pytest

from pglchar import involutions, params, symchar
from pglchar.cli import main
from pglchar.dualgroup import q_context
from pglchar.errors import LIMITS, CapacityError, InvariantViolation
from pglchar.involutions import (
    CentralizerInvolution,
    check_identities,
    enumerate_zinv,
    epsilon_nu,
    phi_w,
    threeterm_bruteforce,
)
from pglchar.params import enumerate_labels, make_label
from pglchar.partitions import Partition, partitions_of

Q3 = q_context(3)
Q5 = q_context(5)


# The brute-force reference for Z_inv(nu): list every involution of S_m, keep
# the ones that commute with w_nu, and type each kept one by its action on
# the cycles of w_nu.


def base_permutation(nu):
    """w_nu in one-line form, cycles laid out consecutively in part order."""
    perm = []
    for length in nu:
        offset = len(perm)
        perm += [offset + (i + 1) % length for i in range(length)]
    return tuple(perm)


def involutions_of(m):
    """All involutions of S_m (the identity included), in one-line form."""
    out = []
    current = list(range(m))

    def rec(free):
        if not free:
            out.append(tuple(current))
            return
        x = free[0]
        rec(free[1:])
        for i in range(1, len(free)):
            y = free[i]
            current[x], current[y] = y, x
            rec(free[1:i] + free[i + 1 :])
            current[x], current[y] = x, y

    rec(tuple(range(m)))
    return out


def cycles_of(w):
    seen = set()
    cycles = []
    for start in range(len(w)):
        if start in seen:
            continue
        cyc = [start]
        while w[cyc[-1]] != start:
            cyc.append(w[cyc[-1]])
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def reference_zinv(base):
    """Counter of (type1, type2, type3) over the involutions commuting with base."""
    m = len(base)
    cycles = cycles_of(base)
    where = {x: (idx, pos) for idx, cyc in enumerate(cycles) for pos, x in enumerate(cyc)}
    out = Counter()
    for v in involutions_of(m):
        if any(v[base[i]] != base[v[i]] for i in range(m)):
            continue
        types = ([], [], [])
        for idx, cyc in enumerate(cycles):
            # v commutes with base, so v(cyc[0]) fixes where the whole cycle goes.
            target, shift = where[v[cyc[0]]]
            if target == idx:
                assert 2 * shift in (0, len(cyc))
                types[0 if shift == 0 else 1].append(len(cyc))
            elif target > idx:
                assert len(cycles[target]) == len(cyc)
                types[2].append(len(cyc))
        out[tuple(tuple(sorted(t, reverse=True)) for t in types)] += 1
    return out


def zinv_counter(nu):
    return Counter((w.type1, w.type2, w.type3) for w in enumerate_zinv(nu))


class ZinvSums(NamedTuple):
    """Sums over Z_inv(nu) that the factorized three-term references read."""

    ff: int  # fixed-point-free involutions
    all: int  # (-2)^ell1 over all of Z_inv(nu)
    even_type1: int  # (-2)^ell1 over those with no odd type-1 cycle
    signed: int  # the same, times (-1)^ell1_2mod4


def zinv_sums(nu):
    ws = enumerate_zinv(nu)
    even = [w for w in ws if w.ell1_odd == 0]
    return ZinvSums(
        sum(1 for w in ws if w.is_fixed_point_free),
        sum((-2) ** w.ell1 for w in ws),
        sum((-2) ** w.ell1 for w in even),
        sum((-1) ** w.ell1_2mod4 * (-2) ** w.ell1 for w in even),
    )


def test_base_permutation_layout():
    assert base_permutation([3, 2]) == (1, 2, 0, 4, 3)
    assert base_permutation([1, 1]) == (0, 1)


def naive_involutions(m):
    return [
        p
        for p in itertools.permutations(range(m))
        if all(p[p[i]] == i for i in range(m))
    ]


def test_involution_generator_matches_naive_filter():
    for m in range(7):
        got = involutions_of(m)
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(naive_involutions(m))


def test_enumerate_zinv_examples():
    # nu = (1,1): identity and the swap
    ws = enumerate_zinv([1, 1])
    kinds = sorted((w.type1, w.type2, w.type3) for w in ws)
    assert kinds == [((), (), (1,)), ((1, 1), (), ())]

    # nu = (2): identity (pointwise-fixed 2-cycle) and the half-rotation
    ws = enumerate_zinv([2])
    kinds = sorted((w.type1, w.type2, w.type3) for w in ws)
    assert kinds == [((), (2,), ()), ((2,), (), ())]

    # nu = (1^4): the fixed-point-free involutions are the 3 perfect matchings
    assert sum(w.is_fixed_point_free for w in enumerate_zinv([1, 1, 1, 1])) == 3


def test_zinv_matches_naive_centralizer_filter():
    # Every nu the size bound admits; raising the bound must revisit this.
    assert LIMITS["ZINV_SIZE_BOUND"] == 9
    total = 0
    for m in range(1, 10):
        for nu in partitions_of(m):
            got = zinv_counter(nu)
            assert got == reference_zinv(base_permutation(nu)), nu
            total += sum(got.values())
    assert total == 5518


def test_stats_examples():
    identity = next(
        w for w in enumerate_zinv([2, 1]) if w.type1 == (2, 1)
    )
    assert identity.ell1 == 2
    assert identity.ell1_odd == 1
    assert identity.ell1_2mod4 == 1
    assert not identity.is_fixed_point_free

    swap = next(w for w in enumerate_zinv([1, 1]) if w.type3)
    assert swap.ell1 == 0 and swap.is_fixed_point_free

    shift = next(w for w in enumerate_zinv([2]) if w.type2)
    assert shift.ell1 == 0 and shift.is_fixed_point_free


def test_cycle_multiset_reconstruction():
    for m in range(1, 8):
        for nu in partitions_of(m):
            for w in enumerate_zinv(nu):
                rebuilt = sorted(w.type1 + w.type2 + w.type3 + w.type3, reverse=True)
                assert rebuilt == list(nu)


def test_zinv_independent_of_base_permutation():
    rng = random.Random(11)
    for m in range(1, 8):
        for nu in partitions_of(m):
            # lay cycles out in increasing order and relabel by a random shuffle
            perm = base_permutation(sorted(nu))
            relabel = list(range(m))
            rng.shuffle(relabel)
            alt = [0] * m
            for i in range(m):
                alt[relabel[i]] = relabel[perm[i]]
            assert sorted(len(c) for c in cycles_of(alt)) == sorted(nu)
            assert zinv_counter(nu) == reference_zinv(tuple(alt))


def test_enumerate_zinv_validation():
    with pytest.raises(CapacityError):
        enumerate_zinv([5, 5])


def test_identity_examples():
    rows = {(res.name, tuple(res.nu)): res for res in check_identities(4)}
    res = rows["ff-count", (1, 1, 1, 1)]
    assert (res.lhs, res.rhs, res.passed) == (3, 3, True)
    res = rows["ff-count", (2, 1)]
    assert (res.lhs, res.rhs) == (0, 0)
    res = rows["weight-all", (1,)]
    assert (res.lhs, res.rhs) == (-2, -2)
    res = rows["weight-even-type1", (1, 1)]
    assert (res.lhs, res.rhs) == (1, 1)
    res = rows["weight-signed", (2,)]
    assert (res.lhs, res.rhs) == (3, 3)


def test_identities_fast_tier():
    results = check_identities(7)
    assert results and all(r.passed for r in results)


@pytest.mark.slow
def test_identities_slow_tier():
    for res in check_identities(9):
        if res.nu.size() >= 8:
            assert res.passed, (res.name, res.nu, res.lhs, res.rhs)


def test_check_identities_capacity():
    with pytest.raises(CapacityError):
        check_identities(99)


@pytest.mark.parametrize("max_size", [0, -1])
def test_check_identities_needs_a_positive_max_size(max_size):
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        check_identities(max_size)


@pytest.mark.parametrize("max_size", [2.5, True])
def test_check_identities_takes_max_size_only_as_an_int(max_size):
    # A library argument error is a ValueError, and True is not read as 1.
    with pytest.raises(ValueError, match=f"^max_size must be an int, got {max_size}$"):
        check_identities(max_size)


def test_epsilon_nu_examples():
    assert epsilon_nu(make_label(Q3, 2, {Fraction(0): [1, 1]})) == 1
    assert epsilon_nu(make_label(Q3, 2, {Fraction(1, 2): [2]})) == -1
    assert epsilon_nu(make_label(Q3, 2, {Fraction(1, 8): [1]})) == -1


def test_phi_w_examples():
    # swap on eta:[1,1] at q=3: one type-3 pair of length 1, d_eta = -1
    label = make_label(Q3, 2, {Fraction(1, 2): [1, 1]})
    swap = next(w for w in enumerate_zinv([1, 1]) if w.type3)
    assert phi_w([swap], label) == -1
    # same tuple against a d = +1 orbit gives +1
    label5 = make_label(Q5, 2, {Fraction(1, 2): [1, 1]})
    assert phi_w([swap], label5) == 1
    # half-rotation on 1:[2] at q=3: type-2 of length 2, d_1 = +1
    label = make_label(Q3, 2, {Fraction(0): [2]})
    shift = next(w for w in enumerate_zinv([2]) if w.type2)
    assert phi_w([shift], label) == 1


def test_phi_w_outside_y_raises():
    label = make_label(Q3, 2, {Fraction(0): [1, 1]})
    identity = next(w for w in enumerate_zinv([1, 1]) if w.type1 == (1, 1))
    with pytest.raises(ValueError):
        phi_w([identity], label)  # m=1 and odd type-1 lengths


def test_phi_w_mismatched_block_raises():
    label = make_label(Q3, 2, {Fraction(0): [2]})
    swap = next(w for w in enumerate_zinv([1, 1]) if w.type3)
    with pytest.raises(ValueError):
        phi_w([swap], label)


def test_parity_congruences_on_y():
    # for every involution with all m*length even on type-1 cycles:
    #   m odd:  sum of m*l/2 over type-1 = number of 2-mod-4 type-1 lengths (mod 2)
    #   m even: sum of m*l/2 over type-1 = m*|nu|/2 (mod 2)
    for ctx, n in ((Q3, 4), (Q5, 4)):
        for mp in params.enumerate_labels(ctx, n, True):
            for data, part in mp.entries:
                for w in enumerate_zinv(part):
                    if any(data.m * l % 2 for l in w.type1):
                        continue
                    half_sum = sum(data.m * l // 2 for l in w.type1)
                    if data.m % 2:
                        if w.ell1_odd == 0:
                            assert half_sum % 2 == w.ell1_2mod4 % 2
                    else:
                        assert half_sum % 2 == (data.m * part.size() // 2) % 2


def test_threeterm_examples_match_closed_form():
    from pglchar import formulas

    cases = [
        (Q3, 2, {Fraction(0): [1, 1]}, 1),
        (Q3, 2, {Fraction(1, 2): [1, 1]}, -1),
        (Q5, 4, {Fraction(0): [2, 2]}, 1),
    ]
    for ctx, n, entries, eps in cases:
        mp = make_label(ctx, n, entries)
        assert threeterm_bruteforce(mp, eps) == formulas.mult_pgo_basic(mp, eps)


def test_threeterm_validation():
    mp = make_label(Q3, 2, {Fraction(1, 8): [1]})
    with pytest.raises(ValueError):
        threeterm_bruteforce(mp, 1)  # not in PP-hat
    mp = make_label(Q3, 2, {Fraction(0): [1, 1]})
    with pytest.raises(ValueError):
        threeterm_bruteforce(mp, 2)  # bad eps
    big = make_label(Q3, 20, {Fraction(0): [10, 10]})
    with pytest.raises(CapacityError):
        threeterm_bruteforce(big, 1)


def test_threeterm_refuses_a_block_past_the_bound_before_listing_it(monkeypatch):
    def listed(nu):
        raise AssertionError(f"Z_inv({nu}) listed before the ZINV_SIZE_BOUND check")

    monkeypatch.setattr(involutions, "_zinv", listed)
    mp = make_label(Q3, 10, {Fraction(0): [1] * 10})
    with pytest.raises(CapacityError, match="ZINV_SIZE_BOUND = 9"):
        involutions.threeterm_values(mp)
    with pytest.raises(CapacityError, match="ZINV_SIZE_BOUND"):
        threeterm_bruteforce(mp, -1)


def _ref_threeterm(mp, eps):
    """The factorized and direct three-term values in Fraction arithmetic."""
    entries = mp.entries
    s1 = 1
    for data, part in entries:
        sums = zinv_sums(part)
        s1 *= sums.all if data.d == 1 else sums.even_type1
    factorized = Fraction(s1, 4)
    middle = (
        all(part.size() % 2 == 0 for _, part in entries) and params.half_norm_product(mp) == 0
    )
    if middle:
        ff = 1
        for _, part in entries:
            ff *= part.sign() * zinv_sums(part).ff
        factorized += Fraction(eps * ff, 2)
    third = all((data.m * part.size()) % 2 == 0 for data, part in entries)
    if third:
        s3 = 1
        for data, part in entries:
            sums = zinv_sums(part)
            if data.d == 1 and data.m % 2:
                s3 *= sums.signed
            elif data.d == 1:
                s3 *= (-1) ** (data.m * part.size() // 2) * sums.all
            else:
                s3 *= (-1) ** (data.m * part.size() // 2) * sums.even_type1
        factorized += Fraction(params.phi(mp) * s3, 4)

    data = [d for d, _ in entries]
    s1 = s3 = ff_count = 0
    for ws in itertools.product(*[enumerate_zinv(part) for _, part in entries]):
        if any(d.d == -1 and w.ell1_odd for d, w in zip(data, ws)):
            continue
        ell1_total = sum(w.ell1 for w in ws)
        s1 += (-2) ** ell1_total
        ff_count += all(w.is_fixed_point_free for w in ws)
        if all(d.m % 2 == 0 or w.ell1_odd == 0 for d, w in zip(data, ws)):
            s3 += phi_w(ws, mp) * (-2) ** ell1_total
    direct = Fraction(s1, 4)
    if middle:
        direct += Fraction(eps * epsilon_nu(mp) * ff_count, 2)
    if third:
        direct += Fraction(params.phi(mp) * s3, 4)
    return factorized, direct


@pytest.mark.parametrize("q", [3, 5])
def test_integer_threeterm_matches_fraction_reference(q):
    for mp in enumerate_labels(q_context(q), 4, True):
        # threeterm_values returns (eps = +1, eps = -1).
        values = involutions.threeterm_values(mp)
        for value, eps in zip(values, (1, -1)):
            factorized, direct = _ref_threeterm(mp, eps)
            assert factorized == direct == value, mp


@pytest.mark.parametrize("q", [3, 5])
def test_threeterm_reads_no_involution_sum(monkeypatch, q):
    labels = enumerate_labels(q_context(q), 4, True)
    expected = []
    for mp in labels:
        factorized, direct = zip(*(_ref_threeterm(mp, eps) for eps in (1, -1)))
        assert factorized == direct, mp
        expected.append(factorized)

    def refuse(nu):
        raise AssertionError("the involution route read a character sum")

    for name in ("sum_chi_even", "sum_chi_transpose_even", "sum_chi_weighted",
                 "sum_chi_signed_even", "chi_sums", "chi_column"):
        monkeypatch.setattr(symchar, name, refuse)
    assert [involutions.threeterm_values(mp) for mp in labels] == expected


def test_threeterm_refuses_an_odd_quadruple(monkeypatch, fresh_route_tables):
    mp = make_label(Q3, 2, {Fraction(0): [2]})
    assert threeterm_bruteforce(mp, 1) == 0
    # Dropping T3 leaves T1 + 2 T2 = -1 - 2, which is not a multiple of 4.
    # The route reads Phi_w's block factors from its table, built again here.
    monkeypatch.setattr(involutions, "_block_sign", lambda d, m, w: 0)
    involutions._block_involutions.cache_clear()
    with pytest.raises(InvariantViolation, match="non-integral three-term value -3/4"):
        threeterm_bruteforce(mp, 1)


@pytest.fixture
def one_alignment_per_pair(monkeypatch, fresh_route_tables):
    """Z_inv with one alignment per swapped pair of l-cycles instead of l; the
    involution route's table is emptied before and after, so it reads the fault."""
    real = involutions._zinv

    def faulty(nu):
        counts = Counter((w.type1, w.type2, w.type3) for w in real(nu))
        return tuple(
            CentralizerInvolution(nu, *key)
            for key, count in counts.items()
            for _ in range(count // math.prod(key[2]))
        )

    monkeypatch.setattr(involutions, "_zinv", faulty)


def test_a_construction_fault_exits_4(capsys, one_alignment_per_pair):
    code = main(["verify-identities", "--max-size", "4"])
    assert code == 4
    assert "4 identity checks failed" in capsys.readouterr().err
    code = main(["cross-check", "--q", "3", "--n", "4", "--tier", "slow"])
    assert code == 4
    assert "2 route mismatches" in capsys.readouterr().err
