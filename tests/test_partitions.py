import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from pglchar.errors import CapacityError
from pglchar.partitions import Partition, partitions_of


def naive_partition_count(m):
    # independent of the library generator: recursive count with bounded parts
    def count(rest, cap):
        if rest == 0:
            return 1
        return sum(count(rest - first, first) for first in range(1, min(rest, cap) + 1))

    return count(m, m if m else 1)


def test_validation():
    assert Partition([3, 1, 1]) == (3, 1, 1)
    assert Partition() == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    # Refused, not truncated, parsed or read as 1.
    for parts, bad in (([2.9], "2.9"), (["3", "1"], "'3'"), ([3, 1.0], "1.0"),
                       ([True, True], "True")):
        message = f"^partition parts must be integers, got {re.escape(bad)}$"
        with pytest.raises(ValueError, match=message):
            Partition(parts)


def test_transpose_examples():
    assert Partition([2, 2]).transpose() == Partition([2, 2])
    assert Partition([3, 1]).transpose() == Partition([2, 1, 1])
    assert Partition([4]).transpose() == Partition([1, 1, 1, 1])


def test_transpose_involutive_up_to_12():
    for m in range(13):
        for p in partitions_of(m):
            assert p.transpose().transpose() == p
            assert p.transpose().size() == p.size()


def test_multiplicity_examples():
    assert Partition([2, 2, 1]).multiplicities() == {2: 2, 1: 1}
    assert Partition([1, 1, 1, 1]).multiplicities() == {1: 4}
    assert Partition().multiplicities() == {}


def test_multiplicity_weight_identity():
    for m in range(9):
        for p in partitions_of(m):
            assert sum(i * mult for i, mult in p.multiplicities().items()) == p.size()


def test_is_even_examples():
    assert Partition([2, 2]).is_even()
    assert not Partition([3, 1]).is_even()
    assert Partition().is_even()


def test_is_even_via_transpose_multiplicities():
    for m in range(13):
        for p in partitions_of(m):
            t = p.transpose()
            assert p.is_even() == all(mult % 2 == 0 for mult in t.multiplicities().values())


def test_length_stats_examples():
    s = Partition([4, 2, 1]).length_stats()
    assert (s.ell, s.ell0, s.ell1, s.ell0mod4, s.ell2mod4) == (3, 2, 1, 1, 1)
    s = Partition([2, 2]).length_stats()
    assert (s.ell, s.ell0, s.ell1, s.ell0mod4, s.ell2mod4) == (2, 2, 0, 0, 2)
    s = Partition([1, 1]).length_stats()
    assert (s.ell, s.ell0, s.ell1, s.ell0mod4, s.ell2mod4) == (2, 0, 2, 0, 0)


def test_length_stats_consistency():
    for m in range(11):
        for p in partitions_of(m):
            s = p.length_stats()
            assert s.ell0 == s.ell0mod4 + s.ell2mod4
            assert s.ell == s.ell0 + s.ell1


def centralizer_order(p):
    """Order of the centralizer in S_|p| of a permutation of cycle type p."""
    z = 1
    for i, m in p.multiplicities().items():
        z *= i**m * math.factorial(m)
    return z


def brute_centralizer_order(p):
    import itertools

    m = p.size()
    base = []
    offset = 0
    for length in p:
        cycle = list(range(offset + 1, offset + length)) + [offset]
        base.extend(cycle)
        offset += length
    base = tuple(base)
    count = 0
    for perm in itertools.permutations(range(m)):
        if all(perm[base[i]] == base[perm[i]] for i in range(m)):
            count += 1
    return count


def test_centralizer_order_examples():
    assert centralizer_order(Partition([1, 1, 1])) == 6
    assert centralizer_order(Partition([2, 1])) == brute_centralizer_order(Partition([2, 1]))
    assert centralizer_order(Partition([3])) == brute_centralizer_order(Partition([3]))


def test_centralizer_brute_force_up_to_6():
    for m in range(1, 7):
        for p in partitions_of(m):
            assert centralizer_order(p) == brute_centralizer_order(p)


def test_class_equation():
    for m in range(11):
        total = sum(
            math.factorial(m) // centralizer_order(p) for p in partitions_of(m)
        )
        assert total == math.factorial(m)


def test_sign_examples():
    assert Partition([2]).sign() == -1
    assert Partition([3]).sign() == 1
    assert Partition([2, 2]).sign() == 1


def test_sign_formula():
    for m in range(13):
        for p in partitions_of(m):
            assert p.sign() == (-1) ** (p.size() - len(p))


def test_partitions_of_counts_and_order():
    assert partitions_of(0) == (Partition(),)
    assert len(partitions_of(4)) == naive_partition_count(4) == 5
    assert len(partitions_of(7)) == naive_partition_count(7) == 15
    # reverse-lexicographic: (m) first, (1^m) last, strictly decreasing in lex
    for m in range(1, 10):
        parts = partitions_of(m)
        assert parts[0] == Partition([m])
        assert parts[-1] == Partition([1] * m)
        assert all(tuple(parts[i]) > tuple(parts[i + 1]) for i in range(len(parts) - 1))
        assert len(set(parts)) == len(parts)
        assert all(p.size() == m for p in parts)


def test_partitions_of_capacity():
    with pytest.raises(CapacityError):
        partitions_of(31)
    with pytest.raises(ValueError):
        partitions_of(-1)


@given(st.lists(st.integers(min_value=1, max_value=20), max_size=8))
def test_parse_str_round_trip(parts):
    p = Partition(sorted(parts, reverse=True))
    assert Partition.parse(str(p)) == p


def test_parse_errors():
    with pytest.raises(ValueError):
        Partition.parse("3,1")
    with pytest.raises(ValueError):
        Partition.parse("[3,x]")


@pytest.mark.parametrize("text", ["[+1,1]", "[1_0]", "[2,-1]", "[1,+0]", "[ 1_0 ]"])
def test_parse_refuses_a_part_that_is_not_decimal_digits(text):
    # int() reads every one of these parts; a part is read by errors.parse_int, as a/b is.
    with pytest.raises(ValueError, match="expected decimal digits, got"):
        Partition.parse(text)


# The part grammar, written as a regular expression: the reference that the
# parser must agree with.  \d is a Unicode decimal digit and \s Unicode
# whitespace, as str.isdecimal and str.isspace.
_REFERENCE_PARTITION = re.compile(r"\s*\[\s*(\d+(?:\s*,\s*\d+)*)?\s*\]\s*")

_DIGITS = "0123456789\u0663\u0966\uff15"  # ASCII, Arabic-Indic 3, Devanagari 0, fullwidth 5
_SPACES = " \t\n\x0b\x1c\u00a0\u2003"
_NOISE = "+-_/²xa[],"


@st.composite
def _partition_texts(draw):
    """Near-partition text: padded parts between brackets, with one noise
    character put in a third of the time; or free text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(_DIGITS + _SPACES + _NOISE, max_size=12))
    pad = st.text(_SPACES, max_size=2)
    part = st.tuples(pad, st.text(_DIGITS, min_size=1, max_size=2), pad).map("".join)
    parts = draw(st.lists(part, max_size=4))
    left, right = draw(st.one_of(st.just(("[", "]")), st.sampled_from([("[", ""), ("", "]")])))
    text = draw(pad) + left + ",".join(parts) + right + draw(pad)
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at:]
    return text


@settings(max_examples=300)
@given(_partition_texts())
def test_parse_accepts_exactly_the_reference_grammar(text):
    match = _REFERENCE_PARTITION.fullmatch(text)
    expected = None
    if match is not None:
        parts = [int(part) for part in re.findall(r"\d+", match.group(1) or "")]
        try:
            expected = Partition(parts)
        except ValueError:
            pass
    if expected is None:
        with pytest.raises(ValueError):
            Partition.parse(text)
    else:
        assert Partition.parse(text) == expected
