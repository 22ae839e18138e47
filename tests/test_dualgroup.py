import random
import re
from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from pglchar import dualgroup, errors
from pglchar.dualgroup import (
    OrbitData,
    as_dual,
    canonical_rep,
    check_orbit_budget,
    orbit_data,
    orbits_up_to,
    parse_fraction,
    phi,
    q_context,
)
from pglchar.errors import CapacityError, InvariantViolation, parse_int

# References: the sigma action on Fractions, with each orbit listed, and
# tilde_d, which only the tests read.  The package walks an orbit once, on
# integers, in pair_orbit_data.

# The unique element of order 2 fixed by sigma: q odd makes denominator 2 legal.
ETA = Fraction(1, 2)


def sigma(ctx, x):
    """The q-th power map: multiplication by q mod 1."""
    return as_dual(ctx, x) * ctx.q % 1


def orbit(ctx, x):
    """The sigma-orbit of x, starting at x."""
    x = as_dual(ctx, x)
    out = [x]
    y = sigma(ctx, x)
    while y != x:
        out.append(y)
        y = sigma(ctx, y)
    return out


def norm(ctx, x):
    """N(xi) = (1 + q + ... + q^(m-1)) * xi, which lands in L^sigma."""
    m = len(orbit(ctx, x))
    return as_dual(ctx, x) * ((ctx.q**m - 1) // (ctx.q - 1)) % 1


def in_sigma_tilde(ctx, x):
    """True iff q*x = -x in Q/Z (the 'twisted-fixed' locus)."""
    return (ctx.q + 1) * as_dual(ctx, x) % 1 == 0


def tilde_d(ctx, x):
    """Sign comparing the q-power of a square root of x with its inverse.

    For x with q*x = -x, pick zeta with 2*zeta = x; return +1 if
    q*zeta = -zeta and -1 if q*zeta = -zeta + 1/2.  Well-defined since the
    two choices of zeta differ by 1/2 and q is odd.
    """
    x = as_dual(ctx, x)
    if not in_sigma_tilde(ctx, x):
        raise ValueError(f"{x} does not satisfy q*x = -x")
    zeta = x / 2
    r = (ctx.q + 1) * zeta % 1
    if r == 0:
        return 1
    if r == Fraction(1, 2):
        return -1
    raise InvariantViolation(f"tilde_d residue {r} is not half-integral")


Q3 = q_context(3)
Q5 = q_context(5)
Q7 = q_context(7)
Q9 = q_context(9)


def test_q_context_validation():
    assert (Q9.p, Q9.k) == (3, 2)
    for bad in (1, 2, 4, 8, 15, 21):
        with pytest.raises(ValueError):
            q_context(bad)


class Q(IntEnum):
    FIVE = 5


@pytest.mark.parametrize("bad", [3.7, 5.9, 9.0, "9", Q.FIVE])
def test_q_context_refuses_a_non_integer(bad):
    # An int subclass is refused as a bool is, not kept as the context's q.
    message = f"q must be an odd prime power >= 3, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        q_context(bad)


def test_the_q_rule_and_the_orbit_estimate_live_in_errors():
    for name in ("QContext", "q_context", "check_orbit_budget"):
        assert getattr(dualgroup, name) is getattr(errors, name)


def test_q_context_factors_q_once(monkeypatch):
    calls = []
    real = errors.isqrt
    monkeypatch.setattr(errors, "isqrt", lambda x: calls.append(x) or real(x))
    for q, p, k in ((1_099_511_627_689, 1_099_511_627_689, 1), (3**5, 3, 5)):
        # 1_099_511_627_689 is the largest prime below Q_BOUND.
        ctx = q_context(q)
        assert (ctx.p, ctx.k) == (p, k)
        assert calls == [q]
        calls.clear()


def test_a_directly_built_context_is_checked():
    assert dualgroup.QContext(9) == Q9
    for bad in (15, 4, 1):
        with pytest.raises(ValueError):
            dualgroup.QContext(bad)
    with pytest.raises(CapacityError):
        dualgroup.QContext((1 << 40) + 1)


def test_as_dual_rejects_denominator_sharing_p():
    with pytest.raises(ValueError):
        dualgroup.as_dual(Q3, Fraction(1, 3))
    with pytest.raises(ValueError):
        dualgroup.as_dual(Q9, Fraction(1, 6))


INEXACT = [0.1, 0.5, "1/2", None, True]


@pytest.mark.parametrize("x", INEXACT, ids=repr)
def test_a_dual_element_given_as_a_number_is_an_int_or_a_fraction(x):
    message = f"^a dual element must be an int or a Fraction, got {re.escape(repr(x))}$"
    for read in (as_dual, orbit_data, canonical_rep):
        with pytest.raises(ValueError, match=message):
            read(Q3, x)
    with pytest.raises(ValueError, match=message):
        phi(Q3, {x: 2})
    assert as_dual(Q3, -1) == 0
    assert as_dual(Q3, Fraction(5, 4)) == Fraction(1, 4)


def test_sigma_examples():
    assert sigma(Q3, Fraction(1, 2)) == Fraction(1, 2)
    assert sigma(Q3, Fraction(1, 8)) == Fraction(3, 8)
    assert sigma(Q5, Fraction(1, 13)) == Fraction(5, 13)


def test_eta_is_the_order_two_sigma_fixed_element():
    for ctx in (Q3, Q5, Q9):
        assert sigma(ctx, ETA) == ETA
        assert (ETA + ETA) % 1 == 0


def test_orbit_data_examples():
    # N(eta) = eta = r / (q - 1): r = 1 at q = 3 and r = 2 at q = 5.
    data = orbit_data(Q3, Fraction(1, 2))
    assert (data.m, data.r, data.d) == (1, 1, -1)
    data = orbit_data(Q5, Fraction(1, 2))
    assert (data.m, data.r, data.d) == (1, 2, 1)
    data = orbit_data(Q3, Fraction(0))
    assert (data.m, data.r, data.d) == (1, 0, 1)


def test_d_eta_parity_rule():
    # d_eta = +1 exactly when q = 1 mod 4
    for q in (3, 5, 7, 9, 11, 13):
        ctx = q_context(q)
        assert orbit_data(ctx, ETA).d == (1 if q % 4 == 1 else -1)


def test_canonical_rep_examples():
    assert canonical_rep(Q3, Fraction(3, 8)) == Fraction(1, 8)
    assert canonical_rep(Q3, Fraction(1, 2)) == Fraction(1, 2)
    # q=5: orbit of 2/3 is {2/3, 1/3}
    assert canonical_rep(Q5, Fraction(2, 3)) == Fraction(1, 3)
    assert orbit(Q5, Fraction(2, 3)) == [Fraction(2, 3), Fraction(1, 3)]


def test_canonical_rep_idempotent_and_orbit_constant():
    for ctx in (Q3, Q5):
        for data in orbits_up_to(ctx, 3):
            for x in orbit(ctx, data.rep):
                assert canonical_rep(ctx, x) == data.rep
            assert canonical_rep(ctx, data.rep) == data.rep


def brute_orbits_mod_8_under_times_3():
    elements = {Fraction(a, 8) % 1 for a in range(8)} | {Fraction(0), Fraction(1, 2)}
    elements |= {Fraction(a, 2) for a in range(2)} | {Fraction(a, 4) for a in range(4)}
    orbits = set()
    for x in elements:
        orb = {x}
        y = 3 * x % 1
        while y not in orb:
            orb.add(y)
            y = 3 * y % 1
        orbits.add(frozenset(orb))
    return orbits


def test_orbits_up_to_examples():
    reps3_1 = [d.rep for d in orbits_up_to(Q3, 1)]
    assert reps3_1 == [Fraction(0), Fraction(1, 2)]

    # q=3, n=2: confirmed against an independent enumeration of Z/8 under x3
    data = orbits_up_to(Q3, 2)
    got = {frozenset(orbit(Q3, d.rep)) for d in data}
    assert got == brute_orbits_mod_8_under_times_3()
    assert len(data) == 5
    assert [d.rep for d in data] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(5, 8),
    ]

    # q=5, n=1: all of Z/4 is sigma-fixed
    data = orbits_up_to(Q5, 1)
    assert len(data) == 4
    assert all(d.m == 1 for d in data)


def test_orbits_are_complete_and_disjoint():
    for ctx, n in ((Q3, 4), (Q5, 3), (Q7, 2)):
        data = orbits_up_to(ctx, n)
        seen = set()
        for d in data:
            orb = set(orbit(ctx, d.rep))
            assert len(orb) == d.m <= n
            assert not (orb & seen)
            seen |= orb
        # every element at every level e <= n appears
        for e in range(1, n + 1):
            level = ctx.q**e - 1
            for a in range(level):
                assert Fraction(a, level) in seen


def test_orbit_size_is_minimal():
    for ctx in (Q3, Q5, Q7):
        for data in orbits_up_to(ctx, 4):
            x = data.rep
            for e in range(1, data.m):
                assert x * ctx.q**e % 1 != x
            assert x * ctx.q**data.m % 1 == x


def test_norm_is_sigma_invariant_and_sigma_fixed():
    for ctx in (Q3, Q5):
        for data in orbits_up_to(ctx, 4):
            n_xi = Fraction(data.r, ctx.q - 1)
            assert sigma(ctx, n_xi) == n_xi
            for x in orbit(ctx, data.rep):
                assert norm(ctx, x) == n_xi


def _fraction_orbit_data(ctx, x):
    """Reference: canonical rep and norm residue from the listed Fraction orbit of x."""
    orb = orbit(ctx, x)
    rep = min(orb, key=lambda f: (f.denominator, f.numerator))
    nx = rep * ((ctx.q ** len(orb) - 1) // (ctx.q - 1)) % 1
    t = nx.numerator * ((ctx.q - 1) // nx.denominator)
    return OrbitData(rep.numerator, rep.denominator, len(orb), t, -1 if t % 2 else 1)


def _fraction_orbits_up_to(ctx, n):
    """Reference: every level listed as Fractions, with a seen-set of elements."""
    seen = set()
    out = []
    for e in range(1, n + 1):
        level = ctx.q**e - 1
        for a in range(level):
            x = Fraction(a, level)
            if x in seen:
                continue
            seen.update(orbit(ctx, x))
            out.append(_fraction_orbit_data(ctx, x))
    out.sort(key=lambda od: (od.rep.denominator, od.rep.numerator))
    return out


# (9,4): q = 9 is a prime power, not a prime.
@pytest.mark.parametrize("q,n", [(3, 2), (3, 6), (5, 4), (7, 4), (9, 4)])
def test_orbits_up_to_matches_fraction_reference(q, n):
    ctx = q_context(q)
    assert orbits_up_to(ctx, n) == _fraction_orbits_up_to(ctx, n)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (7, 4), (9, 4)])
def test_orbits_up_to_with_residue_filters_level_n(q, n):
    ctx = q_context(q)
    reference = _fraction_orbits_up_to(ctx, n)
    for r in range(q - 1):
        expected = [data for data in reference if data.m < n or data.r == r]
        assert orbits_up_to(ctx, n, residue=r) == expected


def test_orbits_up_to_residue_is_checked():
    for residue in (-1, 2):
        with pytest.raises(ValueError, match="residue"):
            orbits_up_to(Q3, 2, residue=residue)
    # The budget prices every level in full, with or without the filter.
    with pytest.raises(CapacityError):
        orbits_up_to(Q9, 7, residue=0)


@pytest.mark.parametrize("n", [2.5, True, "2", 0, -1])
def test_orbits_up_to_takes_n_only_as_an_int(n):
    rule = ">= 1" if type(n) is int else "an int"
    with pytest.raises(ValueError, match=f"^n must be {rule}, got {re.escape(repr(n))}$"):
        orbits_up_to(Q3, n)


@pytest.mark.parametrize("n", [2.5, True, "2", 0, -1])
def test_check_orbit_budget_takes_n_only_as_an_int_from_1(n):
    with pytest.raises(ValueError, match=f"^n must be (an int|>= 1), got {re.escape(repr(n))}$"):
        check_orbit_budget(Q3, n)


def test_canonical_rep_and_orbit_data_match_fraction_reference():
    # Includes the denominators of the single-label sizes (9,8) and (27,6).
    rng = random.Random(8)
    for q, n in ((3, 6), (5, 4), (7, 6), (9, 8), (27, 6)):
        ctx = q_context(q)
        for _ in range(60):
            level = q ** rng.randint(1, n) - 1
            x = Fraction(rng.randrange(level), level)
            expected = _fraction_orbit_data(ctx, x)
            assert canonical_rep(ctx, x) == expected.rep
            assert orbit_data(ctx, x) == expected


_PAD = st.text(alphabet=" \t\n\r\f\v", max_size=2)


@given(
    st.integers(min_value=0, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.tuples(_PAD, _PAD, _PAD, _PAD),
)
def test_parse_pair_is_the_reduced_fraction_mod_1(a, b, pads):
    text = f"{pads[0]}{a}{pads[1]}/{pads[2]}{b}{pads[3]}"
    x = Fraction(a, b) % 1
    assert dualgroup.parse_pair(text) == (x.numerator, x.denominator)
    assert parse_fraction(text) == x


# The a/b grammar as the regular expression the parser once used: the
# reference it must agree with.  \d is a Unicode decimal digit and \s
# Unicode whitespace.
_REFERENCE_PAIR = re.compile(r"\s*(\d+)\s*/\s*(\d+)\s*")

_DIGITS = "0123456789\u0663\u0966\uff15"  # ASCII, Arabic-Indic 3, Devanagari 0, fullwidth 5
_SPACES = " \t\n\x0b\x1c\u00a0\u2003"
_NOISE = "+-_²xa/"


@st.composite
def _pair_texts(draw):
    """Near-``a/b`` text: padded numbers around slashes, with one noise character
    put in a third of the time; or free text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(_DIGITS + _SPACES + _NOISE, max_size=10))
    pads = [draw(st.text(_SPACES, max_size=2)) for _ in range(4)]
    a, b = (draw(st.text(_DIGITS, min_size=1, max_size=3)) for _ in range(2))
    slash = draw(st.one_of(st.just("/"), st.sampled_from(["", "//", "/1/"])))
    text = pads[0] + a + pads[1] + slash + pads[2] + b + pads[3]
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at:]
    return text


@settings(max_examples=300)
@given(_pair_texts())
def test_parse_pair_accepts_exactly_the_reference_grammar(text):
    match = _REFERENCE_PAIR.fullmatch(text)
    if match is None or int(match.group(2)) == 0:
        with pytest.raises(ValueError):
            dualgroup.parse_pair(text)
    else:
        x = Fraction(int(match.group(1)), int(match.group(2))) % 1
        assert dualgroup.parse_pair(text) == (x.numerator, x.denominator)


_REFERENCE_NUMBER = re.compile(r"\s*(\d+)\s*")


@settings(max_examples=300)
@given(st.text(_DIGITS + _SPACES + _NOISE, max_size=8))
def test_parse_int_accepts_exactly_the_reference_grammar(text):
    match = _REFERENCE_NUMBER.fullmatch(text)
    if match is None:
        message = f"^expected decimal digits, got {re.escape(repr(text))}$"
        with pytest.raises(ValueError, match=message):
            parse_int(text)
    else:
        assert parse_int(text) == int(match.group(1))


# x = a / (q^e - 1): every element whose orbit has at most 8 members, with an
# integer part from a >= q^e - 1.
@given(
    st.sampled_from([3, 5, 9, 27]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0),
)
def test_orbit_data_matches_the_fraction_reference(q, e, a):
    ctx = q_context(q)
    x = Fraction(a % (4 * (q**e - 1)), q**e - 1)
    expected = _fraction_orbit_data(ctx, x)
    assert orbit_data(ctx, x) == expected
    assert dualgroup.pair_orbit_data(ctx, expected.num, expected.den) == expected


@given(st.sampled_from([3, 5, 9, 27]), st.integers(min_value=0), st.integers(min_value=1))
def test_orbit_data_refuses_a_denominator_sharing_p(q, a, b):
    x = Fraction(a, b * q)
    assume(gcd(x.denominator, q) != 1)
    message = f"{x % 1} has denominator not coprime to q = {q}"
    for read in (as_dual, orbit_data):
        with pytest.raises(ValueError) as info:
            read(q_context(q), x)
        assert str(info.value) == message


def test_orbit_walk_stops_at_the_element_budget(monkeypatch):
    monkeypatch.setitem(dualgroup.LIMITS, "ORBIT_ELEMENT_BUDGET", 10)
    # 1/1000000007 has a long orbit; 1/(3^10 - 1) closes after exactly 10 steps.
    with pytest.raises(CapacityError, match="ORBIT_ELEMENT_BUDGET"):
        orbit_data(Q3, Fraction(1, 1000000007))
    assert orbit_data(Q3, Fraction(1, 1000000007), 10) is None
    assert orbit_data(Q3, Fraction(1, 3**10 - 1)).m == 10
    with pytest.raises(CapacityError, match="ORBIT_ELEMENT_BUDGET"):
        orbit_data(Q3, Fraction(1, 3**11 - 1))


def test_the_orbit_listing_refuses_by_its_estimate_alone():
    # q + q^2 + ... + q^n: 488,280 elements at (5,8); at (5,10) the sum
    # passes the budget at e = 9, so the listing is refused before it starts.
    message = (
        "dual elements to list at q=5, n=10, levels e <= 9: 2441405 exceeds "
        "ORBIT_ELEMENT_BUDGET = 2000000"
    )
    for refuse in (dualgroup.check_orbit_budget, orbits_up_to):
        with pytest.raises(CapacityError) as info:
            refuse(Q5, 10)
        assert str(info.value) == message
    dualgroup.check_orbit_budget(Q5, 8)


def test_orbit_data_stops_after_max_m_steps():
    # The orbit of 1/1000000007 under q = 3 has about 5 * 10^8 elements.
    assert orbit_data(Q3, Fraction(1, 1000000007), 2) is None
    assert orbit_data(Q3, Fraction(1, 8), 1) is None
    assert orbit_data(Q3, Fraction(3, 8), 2) == orbit_data(Q3, Fraction(1, 8))
    assert orbit_data(Q3, Fraction(0), 1).m == 1
    for ctx, n in ((Q3, 4), (Q5, 3)):
        for data in orbits_up_to(ctx, n):
            for x in orbit(ctx, data.rep):
                assert orbit_data(ctx, x, data.m) == data
                if data.m > 1:
                    assert orbit_data(ctx, x, data.m - 1) is None


def test_orbit_size_and_canonical_rep_read_orbit_data():
    for x in (Fraction(0), Fraction(1, 2), Fraction(5, 8), Fraction(7, 80)):
        data = orbit_data(Q3, x)
        assert data.m == len(orbit(Q3, x))
        assert canonical_rep(Q3, x) == data.rep


def test_orbits_capacity():
    with pytest.raises(CapacityError):
        orbits_up_to(Q9, 7)


def test_phi_examples():
    # phi of eta with a block of size 2 equals -d_eta
    assert phi(Q3, {Fraction(1, 2): 2}) == 1
    assert phi(Q5, {Fraction(1, 2): 2}) == -1
    # trivial character pairs trivially
    assert phi(Q3, {Fraction(0): 4}) == 1


def test_phi_matches_minus_d_eta_generally():
    for q in (3, 5, 7, 9, 11, 13):
        ctx = q_context(q)
        assert phi(ctx, {Fraction(1, 2): 2}) == -orbit_data(ctx, Fraction(1, 2)).d


def test_phi_equals_tilde_d_on_twisted_elements():
    # for xi with q*xi = -xi (and xi not of order <= 2), <sqrt(beta), xi>_2 = tilde_d
    for ctx in (Q3, Q5, Q7):
        level = ctx.q + 1
        for c in range(1, level):
            x = Fraction(c, level)
            if 2 * x % 1 == 0:
                continue
            assert phi(ctx, {x: 1}) == tilde_d(ctx, x)


def test_phi_preconditions():
    with pytest.raises(ValueError):
        phi(Q3, {Fraction(1, 2): 1})  # odd m*size
    with pytest.raises(ValueError):
        phi(Q3, {Fraction(1, 8): 1})  # norm product is eta, not 1


def test_phi_independent_of_sqrt_choice():
    # multiplying sqrt(beta) by an element of F_q^x shifts the exponent by
    # multiples of q+1; phi must not move
    for ctx in (Q3, Q5):
        for n in (2, 4):
            for data in orbits_up_to(ctx, n):
                for size in range(1, n // data.m + 1):
                    blocks = {data.rep: size}
                    if (data.m * size) % 2 or size * data.r % (ctx.q - 1):
                        continue
                    base = phi(ctx, blocks)
                    assert base in (-1, 1)
                    for j in (1, 2, 5):
                        shifted = phi(
                            ctx, blocks, (ctx.q + 1) // 2 + j * (ctx.q + 1)
                        )
                        assert shifted == base


def test_tilde_d_examples():
    assert tilde_d(Q3, Fraction(1, 4)) == -1
    assert tilde_d(Q3, Fraction(1, 2)) == 1
    assert tilde_d(Q5, Fraction(1, 2)) == -1


def test_tilde_d_by_direct_enumeration():
    # recompute by scanning both square roots explicitly
    for ctx in (Q3, Q5, Q7):
        level = ctx.q + 1
        for c in range(level):
            x = Fraction(c, level)
            if not in_sigma_tilde(ctx, x):
                continue
            roots = [z for z in (x / 2, x / 2 + Fraction(1, 2)) if (2 * z) % 1 == x]
            signs = set()
            for z in roots:
                if ctx.q * z % 1 == (-z) % 1:
                    signs.add(1)
                elif ctx.q * z % 1 == (-z + Fraction(1, 2)) % 1:
                    signs.add(-1)
            assert signs == {tilde_d(ctx, x)}


def test_tilde_d_precondition():
    with pytest.raises(ValueError):
        tilde_d(Q3, Fraction(1, 8))  # 3 * 1/8 = 3/8 != -1/8


def test_parse_and_format_fraction():
    assert parse_fraction("3/8") == Fraction(3, 8)
    assert parse_fraction("0/1") == Fraction(0)
    assert dualgroup.format_fraction(Fraction(0)) == "0/1"
    assert dualgroup.format_fraction(Fraction(5, 8)) == "5/8"
    with pytest.raises(ValueError):
        parse_fraction("1/2/3")
    with pytest.raises(ValueError):
        parse_fraction("x")
