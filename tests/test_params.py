import gc
import hashlib
import random
import re
from fractions import Fraction

import pytest

from pglchar import dualgroup, params
from pglchar.dualgroup import q_context
from pglchar.errors import LIMITS, CapacityError, InvariantViolation
from pglchar.params import (
    enumerate_labels,
    half_norm_product,
    in_P_hat,
    label_count,
    make_label,
    parse_label,
    random_labels,
)
from pglchar.partitions import Partition, partitions_of

Q3 = q_context(3)
Q5 = q_context(5)


def _keyed(mp):
    """The entries of mp with each orbit given by its representative."""
    return tuple((data.rep, part) for data, part in mp.entries)


def test_make_label_validation():
    mp = make_label(Q3, 2, {Fraction(0): [1, 1]})
    assert _keyed(mp) == ((Fraction(0), Partition([1, 1])),)
    with pytest.raises(ValueError):
        make_label(Q3, 3, {Fraction(0): [2, 1]})  # n odd
    with pytest.raises(ValueError):
        make_label(Q3, 2, {Fraction(0): [1]})  # weight 1 != 2
    with pytest.raises(ValueError):
        make_label(Q3, 2, {Fraction(0): []})  # empty block
    with pytest.raises(ValueError):
        make_label(Q3, 2, [(Fraction(1, 8), [1]), (Fraction(3, 8), [1])])  # same orbit twice
    with pytest.raises(ValueError, match=r"^partition parts must be integers, got 2\.5$"):
        make_label(Q3, 2, {Fraction(0): [2.5]})  # not read as [2]


def test_weight_uses_orbit_size():
    # orbit of 1/8 under q=3 has size 2, so one part of size 1 weighs 2
    mp = make_label(Q3, 2, {Fraction(1, 8): [1]})
    assert mp.n == 2


def test_pi_examples():
    # Pi as a residue mod q - 1: Pi = 1/2 at q = 3 is the residue 1.
    assert make_label(Q3, 2, {Fraction(0): [1, 1]}).shape.pi == 0
    assert make_label(Q3, 2, {Fraction(1, 2): [2]}).shape.pi == 0
    assert make_label(Q3, 2, {Fraction(1, 8): [1]}).shape.pi == 1


def test_in_P_hat_examples():
    assert in_P_hat(make_label(Q3, 2, {Fraction(0): [2]}))
    assert not in_P_hat(make_label(Q3, 2, {Fraction(1, 8): [1]}))
    assert in_P_hat(make_label(Q3, 2, {Fraction(1, 4): [1]}))


def test_half_norm_product_examples():
    assert half_norm_product(make_label(Q3, 2, {Fraction(0): [1, 1]})) == 0
    assert half_norm_product(make_label(Q3, 2, {Fraction(1, 2): [1, 1]})) == Fraction(1, 2)
    assert half_norm_product(make_label(Q3, 4, {Fraction(0): [2, 1, 1]})) == 0
    # undefined on an odd block
    assert half_norm_product(make_label(Q3, 2, {Fraction(1, 4): [1]})) is None


def test_half_norm_doubles_to_pi():
    for ctx, n in ((Q3, 2), (Q3, 4), (Q5, 2)):
        for mp in enumerate_labels(ctx, n, False):
            half = half_norm_product(mp)
            if half is not None:
                assert (2 * half) % 1 == Fraction(mp.shape.pi, ctx.q - 1)


def test_parse_label_examples():
    mp = parse_label(Q3, 2, "0/1:[2]")
    assert _keyed(mp) == ((Fraction(0), Partition([2])),)
    mp = parse_label(Q3, 2, "3/8:[1]")
    assert _keyed(mp) == ((Fraction(1, 8), Partition([1])),)
    with pytest.raises(ValueError):
        parse_label(Q3, 2, "0/1:[1]")  # weight mismatch
    with pytest.raises(ValueError):
        parse_label(Q3, 2, "0/1:[1] + 1/8:[1] + 3/8:[1]")  # duplicate orbit
    with pytest.raises(ValueError):
        parse_label(Q3, 2, "0/1 [2]")  # missing colon
    with pytest.raises(ValueError):
        parse_label(Q3, 2, "0/1:[2] + ")  # dangling separator


def _other_members_text(mp, rng):
    """mp's text with each block named by a random orbit member, plus an
    integer, in a shuffled order."""
    q = mp.ctx.q
    chunks = []
    for data, part in mp.entries:
        num = data.num * pow(q, rng.randrange(data.m), data.den) % data.den
        chunks.append(f"{num + data.den * rng.randrange(3)}/{data.den}:{part}")
    rng.shuffle(chunks)
    return " + ".join(chunks)


def _round_trip_cases():
    for q, n in ((3, 2), (3, 4), (5, 2), (5, 4), (3, 6)):
        ctx = q_context(q)
        yield ctx, n, enumerate_labels(ctx, n, True)
    for q, n in ((9, 8), (27, 6)):
        ctx = q_context(q)
        yield ctx, n, random_labels(ctx, n, 40, seed=q)


def test_text_round_trip():
    rng = random.Random(22)
    for ctx, n, labels in _round_trip_cases():
        for mp in labels:
            assert parse_label(ctx, n, mp.text()) == mp
            assert parse_label(ctx, n, _other_members_text(mp, rng)) == mp


@pytest.mark.parametrize(
    "n,text,message",
    [
        (2, "x/y:[2]", "cannot parse dual element 'x/y': expected decimal digits, got 'x'"),
        (2, "1/0:[2]", "denominator must be >= 1 in '1/0'"),
        (2, "1/3:[2]", "1/3 has denominator not coprime to q = 3"),
        (2, "1/1000000007:[1]", "the sigma-orbit of 1/1000000007 is longer than n = 2"),
        (4, "1/4:[1] + 3/4:[1]", "duplicate orbit key 1/4 after canonicalization"),
        (4, "0/1:[2]", "label weight 2 does not match n = 4"),
        (2, "0/1:[1,2]", "cannot parse partition '[1,2]': partition parts must be weakly "
                         "decreasing, got (1, 2)"),
        (2, "0/1:[0,a]", "cannot parse partition '[0,a]': expected decimal digits, got 'a'"),
    ],
)
def test_parse_errors_are_pinned(n, text, message):
    with pytest.raises(ValueError) as info:
        parse_label(Q3, n, text)
    assert str(info.value) == message


def test_enumerate_labels_q3_n2():
    got = {mp.text() for mp in enumerate_labels(Q3, 2, True)}
    assert got == {"0/1:[2]", "0/1:[1,1]", "1/2:[2]", "1/2:[1,1]", "1/4:[1]"}
    # unrestricted: all of the labels parametrizing GL_2(F_3) classes
    assert len(enumerate_labels(Q3, 2, False)) == 8


def test_enumerate_labels_counts():
    # |PP-hat| = number of PGL_2(F_q) conjugacy classes = q + 2 for odd q
    for q in (3, 5, 7, 9):
        ctx = q_context(q)
        assert len(enumerate_labels(ctx, 2, True)) == q + 2


def test_enumeration_order_is_deterministic_and_trivial_first():
    for ctx, n in ((Q3, 2), (Q5, 2), (Q3, 4)):
        first = enumerate_labels(ctx, n, True)
        assert first[0].text() == f"0/1:[{n}]"
        assert first == enumerate_labels(ctx, n, True)
        assert len(set(first)) == len(first)


def test_weight_invariant_on_enumeration():
    for ctx, n in ((Q3, 4), (Q5, 2)):
        for mp in enumerate_labels(ctx, n, False):
            weight = sum(
                dualgroup.orbit_data(ctx, xi).m * part.size() for xi, part in _keyed(mp)
            )
            assert weight == n
            for xi, _ in _keyed(mp):
                assert dualgroup.canonical_rep(ctx, xi) == xi


def test_closed_under_inversion():
    for ctx, n in ((Q3, 2), (Q3, 4), (Q5, 2), (Q5, 4)):
        for restrict in (True, False):
            labels = set(enumerate_labels(ctx, n, restrict))
            # xi -> xi^(-1) on every orbit key, partitions unchanged
            inverted = {
                make_label(ctx, n, [((-xi) % 1, part) for xi, part in _keyed(mp)])
                for mp in labels
            }
            assert inverted == labels


def test_phi_invariance_across_labels():
    # phi squares to one and ignores the choice of sqrt(beta), label-wide
    for ctx, n in ((Q3, 2), (Q3, 4), (Q5, 2), (Q5, 4)):
        for mp in enumerate_labels(ctx, n, True):
            if any(
                data.m * part.size() % 2 for data, part in mp.entries
            ):
                continue
            value = params.phi(mp)
            assert value in (-1, 1)
            sizes = {xi: part.size() for xi, part in _keyed(mp)}
            for j in (1, 3):
                assert dualgroup.phi(ctx, sizes, (ctx.q + 1) // 2 + j * (ctx.q + 1)) == value


def test_random_labels_are_valid():
    ctx = q_context(9)
    labels = random_labels(ctx, 6, 25, seed=7)
    assert len(labels) == 25
    for mp in labels:
        assert mp.n == 6
        assert in_P_hat(mp)
    # determinism given the seed
    assert labels == random_labels(ctx, 6, 25, seed=7)


def test_enumerate_labels_capacity(monkeypatch):
    monkeypatch.setitem(LIMITS, "ORBIT_ELEMENT_BUDGET", 10)
    with pytest.raises(CapacityError, match="ORBIT_ELEMENT_BUDGET"):
        enumerate_labels(Q3, 4, True)
    monkeypatch.undo()
    monkeypatch.setitem(LIMITS, "LABEL_BUDGET", 3)
    with pytest.raises(CapacityError, match="LABEL_BUDGET"):
        enumerate_labels(Q3, 4, True)
    with pytest.raises(ValueError):
        enumerate_labels(Q3, 3, True)


def test_label_budget_is_still_checked_per_label(capsys, monkeypatch):
    # A count that is too low is a bug, not a capacity refusal: the label
    # past it is refused before it is emitted, so none past LABEL_BUDGET is.
    from pglchar.cli import main

    labels = enumerate_labels(Q3, 4, True)
    monkeypatch.setitem(LIMITS, "LABEL_BUDGET", 3)
    for count in (0, 3):  # 3 = LABEL_BUDGET
        monkeypatch.setattr(params, "label_count", lambda *args: count)
        emitted = []
        search = params.label_search(Q3, 4)
        message = f"kept {count + 1} labels; label_count is {count}$"
        with pytest.raises(InvariantViolation, match=message):
            search(emitted.append)
        assert emitted == labels[:count]
        argv = ["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+", "--include-zeros"]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"invariant violation: the label search {message[:-1]}\n"


def test_search_that_disagrees_with_the_count_is_an_invariant_violation(monkeypatch):
    real = params.label_count
    monkeypatch.setattr(params, "label_count", lambda *args: real(*args) + 1)
    with pytest.raises(InvariantViolation, match="kept 43 labels; label_count is 44"):
        enumerate_labels(Q3, 4, True)


# Every size the tests enumerate.  enumerate_labels itself compares the two;
# here the count is taken over the unfiltered orbit list.
@pytest.mark.parametrize(
    "q,n",
    [(3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (3, 4), (5, 4), (7, 4), (9, 4), (3, 6), (5, 6), (3, 8)],
)
@pytest.mark.parametrize("restrict", [True, False])
def test_label_count_matches_enumeration(q, n, restrict):
    ctx = q_context(q)
    orbits = dualgroup.orbits_up_to(ctx, n)
    assert label_count(ctx, n, orbits, restrict) == len(enumerate_labels(ctx, n, restrict))


@pytest.mark.parametrize(
    "q,n,count", [(7, 6, 19_674), (3, 10, 29_588), (5, 8, 97_787), (3, 12, 265_924)]
)
def test_label_count_pins(q, n, count):
    # (5,8) and (3,12) are beyond what the tests enumerate; (3,12) is beyond
    # LABEL_BUDGET.
    ctx = q_context(q)
    assert label_count(ctx, n, dualgroup.orbits_up_to(ctx, n, residue=0)) == count


def _linear_scan_labels(ctx, n, restrict):
    """Reference DFS: every node scans all orbits and skips those too large."""
    orbits = dualgroup.orbits_up_to(ctx, n)
    out = []
    acc = []

    def rec(start, remaining):
        if remaining == 0:
            mp = params.MultiPartition(ctx, n, tuple(acc))
            if not restrict or in_P_hat(mp):
                out.append(mp)
            return
        for i in range(start, len(orbits)):
            data = orbits[i]
            if data.m > remaining:
                continue
            for k in range(remaining // data.m, 0, -1):
                for part in partitions_of(k):
                    acc.append((data, part))
                    rec(i + 1, remaining - data.m * k)
                    acc.pop()

    rec(0, n)
    return out


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (7, 4), (9, 4), (11, 2), (3, 6), (5, 6)])
@pytest.mark.parametrize("restrict", [True, False])
def test_enumeration_order_matches_linear_scan(q, n, restrict):
    ctx = q_context(q)
    assert enumerate_labels(ctx, n, restrict) == _linear_scan_labels(ctx, n, restrict)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4)])
def test_enumeration_keeps_labels_without_testing_pi(monkeypatch, q, n):
    # The norm product is carried down the search, so no label is filtered
    # after it is built.
    ctx = q_context(q)
    expected = _linear_scan_labels(ctx, n, True)

    def fail(mp):
        raise AssertionError("enumerate_labels called in_P_hat")

    monkeypatch.setattr(params, "in_P_hat", fail)
    assert enumerate_labels(ctx, n, True) == expected


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (3, 6)])
def test_enumeration_lists_the_partitions_once(monkeypatch, q, n):
    # The partitions of each k <= n are listed before the search, not at
    # every (orbit, k) node.
    ctx = q_context(q)
    expected = _linear_scan_labels(ctx, n, True)
    calls = []

    def counting(k):
        calls.append(k)
        return partitions_of(k)

    monkeypatch.setattr(params, "partitions_of", counting)
    assert enumerate_labels(ctx, n, True) == expected
    assert len(calls) <= n + 1


def test_label_search_leaves_no_cycle_behind():
    # The search's state is freed when enumerate_labels returns, not at the
    # next cyclic collection.
    enumerate_labels(Q3, 4)
    gc.collect()
    gc.disable()
    try:
        enumerate_labels(Q3, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_make_label_reads_reduced_pairs_and_refuses_others():
    assert make_label(Q5, 2, {(1, 2): [2]}) == make_label(Q5, 2, {Fraction(3, 2): [2]})
    for bad in ((2, 4), (3, 2), (-1, 2), (1, 0)):
        with pytest.raises(ValueError):
            make_label(Q5, 2, {bad: [2]})


@pytest.mark.parametrize("count", [2.5, True, "2"])
def test_random_labels_takes_count_only_as_an_int(count):
    with pytest.raises(ValueError, match=f"^count must be an int, got {re.escape(repr(count))}$"):
        random_labels(q_context(3), 2, count, seed=1)


def test_make_label_refuses_a_pair_key_that_is_not_two_ints():
    assert make_label(Q3, 2, {(1, 2): [1, 1]}).text() == "1/2:[1,1]"
    # Unchecked, a bool became the numerator and the others failed in the orbit walk.
    for key in ((True, 2), (1, False), (1.0, 2), (Fraction(1, 2), 1), ("1", 2), (1, 2, 3), (1,)):
        message = f"^a pair key must be two ints \\(num, den\\), got {re.escape(repr(key))}$"
        with pytest.raises(ValueError, match=message):
            make_label(Q3, 2, {key: [2]})


def test_make_label_reads_a_number_only_as_an_int_or_a_fraction():
    assert make_label(Q3, 2, {1: [1, 1]}) == make_label(Q3, 2, {Fraction(0): [1, 1]})
    # 0.1 as a Fraction has an orbit longer than n; "1/2" is text, read by parse_label;
    # True is not read as 1.
    for key in (0.1, "1/2", True):
        message = f"^a dual element must be an int or a Fraction, got {re.escape(repr(key))}$"
        with pytest.raises(ValueError, match=message):
            make_label(Q3, 2, {key: [1, 1]})
    assert parse_label(Q3, 2, "1/2:[1,1]").text() == "1/2:[1,1]"


def test_make_label_checks_the_denominator_as_it_reads_the_keys():
    # The key 1/3 is refused while the keys are read, before the empty block.
    with pytest.raises(ValueError, match=r"^1/3 has denominator not coprime to q = 3$"):
        make_label(Q3, 2, {Fraction(0): [], Fraction(1, 3): [2]})


def test_a_non_integer_n_is_refused():
    from pglchar import formulas, oracle
    from pglchar.subgroups import Subgroup

    calls = [
        lambda: parse_label(Q3, 2.0, "0/1:[2]"),
        lambda: make_label(Q3, 2.0, {0: [2]}),
        lambda: enumerate_labels(Q3, 2.0),
        lambda: params.label_search(Q3, 2.0),
        lambda: random_labels(Q3, 2.0, 1, seed=1),
        lambda: formulas.decompose(Q3, 2.0, Subgroup.PGO_PLUS),
        lambda: oracle.orders(3, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^n must be even and >= 2, got 2\.0$"):
            call()


def test_random_labels_of_a_seed_are_pinned():
    # Reducing a draw must not change it: the labels of one seed at (9,6), by digest.
    texts = "\n".join(mp.text() for mp in random_labels(q_context(9), 6, 300, seed=20260811))
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "cebc4d22a1f627f3d1c62e70d98dc34a5a2c4d858b3558bf2703537685f42405"
    )


def test_orbit_longer_than_n_is_rejected_before_listing():
    # The orbit of 1/1000000007 under q = 3 has about 5 * 10^8 elements.
    with pytest.raises(ValueError, match="longer than n"):
        parse_label(Q3, 2, "1/1000000007:[1]")
    with pytest.raises(ValueError, match="longer than n"):
        make_label(Q3, 2, {Fraction(1, 1000000007): [1]})
    # 1/26 has an orbit of size 3 at q = 3: too long for n = 2, fine for n = 4.
    with pytest.raises(ValueError, match="longer than n"):
        make_label(Q3, 2, {Fraction(1, 26): [1]})
    assert make_label(Q3, 4, {Fraction(1, 26): [1], Fraction(0): [1]}).n == 4


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (9, 4)])
def test_enumerated_labels_carry_their_orbit_data(q, n):
    ctx = q_context(q)
    for restrict in (True, False):
        for mp in enumerate_labels(ctx, n, restrict):
            for data, _ in mp.entries:
                assert data == dualgroup.orbit_data(ctx, data.rep)


def _both_ways_cases():
    for q, n in ((3, 4), (5, 4), (9, 4), (3, 6)):
        ctx = q_context(q)
        yield ctx, n, enumerate_labels(ctx, n, True)
    ctx = q_context(27)
    yield ctx, 6, random_labels(ctx, 6, 200, seed=27)


def test_parse_label_and_make_label_build_the_same_label():
    for ctx, n, labels in _both_ways_cases():
        for mp in labels:
            assert parse_label(ctx, n, mp.text()) == mp
            assert make_label(ctx, n, {data.rep: list(part) for data, part in mp.entries}) == mp


@pytest.mark.parametrize(
    "n,text,entries",
    [
        (4, "1/4:[1] + 3/4:[1]", [(Fraction(1, 4), [1]), (Fraction(3, 4), [1])]),
        (4, "0/1:[2]", {Fraction(0): [2]}),
        (2, "0/1:[] + 1/2:[2]", {Fraction(0): [], Fraction(1, 2): [2]}),
        (2, "1/1000000007:[1]", {Fraction(1, 1000000007): [1]}),
    ],
    ids=["duplicate", "weight", "empty block", "longer than n"],
)
def test_parse_label_and_make_label_refuse_with_the_same_message(n, text, entries):
    with pytest.raises(ValueError) as parsed:
        parse_label(Q3, n, text)
    with pytest.raises(ValueError) as made:
        make_label(Q3, n, entries)
    assert str(parsed.value) == str(made.value)


def test_parse_label_builds_each_partition_text_once(monkeypatch):
    built = []
    new = Partition.__new__

    def counting(cls, parts=()):
        parts = tuple(parts)
        built.append(parts)
        return new(cls, parts)

    Partition.parse.cache_clear()
    monkeypatch.setattr(Partition, "__new__", counting)
    # 100 labels at n = 8 over 12 partition texts: [a,1] and [7-a].
    texts = [f"{k}/1:[{a},1] + {2 * k + 1}/2:[{7 - a}]" for k in range(17) for a in range(1, 7)]
    for text in texts[:100]:
        assert parse_label(Q3, 8, text).n == 8
    assert len(built) == 12
    for _ in range(2):
        with pytest.raises(ValueError, match="decimal digits"):
            parse_label(Q3, 8, "0/1:[1_0]")
    assert Partition.parse.cache_info().currsize == 12


def test_orbit_data_does_not_change_equality_or_hash():
    for ctx, n in ((Q3, 4), (Q5, 4)):
        for mp in enumerate_labels(ctx, n, True):
            parsed = parse_label(ctx, n, mp.text())
            assert parsed == mp and hash(parsed) == hash(mp)
            assert parsed.text() == mp.text()
            assert repr(parsed) == repr(mp)


def test_a_label_holds_the_shape_of_its_own_entries():
    label = parse_label(Q3, 2, "1/2:[2]")
    other = parse_label(Q3, 2, "0/1:[1,1]")
    fresh = params.LabelShape(Q3, other.entries)
    assert label.shape == params.LabelShape(Q3, label.entries) != fresh
    assert (fresh.sizes, fresh.pi, fresh.half) == ((2,), 0, 0)
    # Every way to a label with other entries builds their shape; none keeps the old one.
    for moved in (
        label._replace(entries=other.entries),
        label.__replace__(entries=other.entries),  # copy.replace
        params.MultiPartition(Q3, 2, other.entries),
    ):
        assert moved.shape == fresh and moved == other and hash(moved) == hash(other)
    # A shape is never given beside the entries.
    with pytest.raises(TypeError):
        label._replace(shape=fresh)
    with pytest.raises(TypeError):
        params.MultiPartition(Q3, 2, other.entries, label.shape)
    assert (label.shape.sizes, label.shape.pi, label.shape.half) == ((2,), 0, 1)
