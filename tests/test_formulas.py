import re
from collections import Counter
from fractions import Fraction

import pytest

from pglchar import dualgroup, errors, formulas, involutions, oracle, params, symchar
from pglchar.dualgroup import q_context, canonical_rep
from pglchar.errors import InvariantViolation
from pglchar.formulas import (
    Subgroup,
    decompose,
    mult_basic_via_transition,
    mult_irr,
    mult_pgo_basic,
    mult_pgo_irr,
    mult_pgsp_basic,
    mult_pgsp_irr,
    mult_unipotent_gl_o,
    mult_unipotent_pgo,
)
from pglchar.params import MultiPartition, enumerate_labels, make_label
from pglchar.partitions import Partition, partitions_of
from pglchar.subgroups import EXPECTED

from test_dualgroup import orbit, tilde_d

Q3 = q_context(3)
Q5 = q_context(5)
Q7 = q_context(7)


def unipotent(ctx, rho):
    return make_label(ctx, sum(rho), {Fraction(0): rho})


def _block_sizes(mp):
    return {data.rep: part.size() for data, part in mp.entries}


def test_subgroup_parse():
    assert Subgroup.parse("pgsp") is Subgroup.PGSP
    assert Subgroup.parse("PGO+") is Subgroup.PGO_PLUS
    assert Subgroup.PGO_MINUS.eps == -1
    assert Subgroup.PGSP.eps is None
    with pytest.raises(ValueError):
        Subgroup.parse("so3")


# Not a subgroup: each is a ValueError that lists the three names.
NOT_SUBGROUPS = ["so3", 5, None, ("pgsp",)]


def _each_refused(call):
    for value in NOT_SUBGROUPS:
        with pytest.raises(ValueError, match=re.escape(f"unknown subgroup {value!r}; {EXPECTED}")):
            call(value)


def test_subgroup_parse_returns_a_member_unchanged_and_refuses_the_rest():
    for member in Subgroup:
        assert Subgroup.parse(member) is member
    _each_refused(Subgroup.parse)


def test_decompose_reads_its_subgroup_once_through_subgroup_parse(monkeypatch):
    for member in Subgroup:
        expected = decompose(Q3, 4, member, with_degrees=True)
        assert decompose(Q3, 4, f" {member.value.upper()} ", with_degrees=True) == expected
        assert decompose(Q3, 4, member.value, with_degrees=True).subgroup is member
    _each_refused(lambda value: decompose(Q3, 2, value))
    calls = []
    real = Subgroup.parse.__func__
    monkeypatch.setattr(Subgroup, "parse", classmethod(lambda cls, v: calls.append(v) or real(cls, v)))
    assert len(decompose(Q3, 4, "pgo+", include_zeros=True).rows) > 1
    assert calls == ["pgo+"]  # once per call, never per label


def test_mult_irr_reads_its_subgroup_through_subgroup_parse():
    labels = enumerate_labels(Q3, 2)
    for rho in labels:
        for member in Subgroup:
            expected = mult_irr(rho, member)
            assert mult_irr(rho, member.value) == mult_irr(rho, member.value.upper()) == expected
    _each_refused(lambda value: mult_irr(labels[0], value))


def test_mult_basic_via_transition_reads_its_subgroup_through_subgroup_parse():
    labels = enumerate_labels(Q3, 2)
    for nu in labels:
        for member in Subgroup:
            expected = mult_basic_via_transition(nu, member)
            assert mult_basic_via_transition(nu, member.value) == expected
            assert mult_basic_via_transition(nu, member.value.upper()) == expected
    _each_refused(lambda value: mult_basic_via_transition(labels[0], value))


def test_mult_pgsp_irr_examples():
    for ctx in (Q3, Q5, Q7):
        assert mult_pgsp_irr(unipotent(ctx, [2, 2])) == 1
        assert mult_pgsp_irr(unipotent(ctx, [3, 1])) == 0
    assert mult_pgsp_irr(make_label(Q3, 2, {Fraction(1, 2): [2]})) == 0


def test_mult_pgsp_irr_requires_descent():
    with pytest.raises(ValueError):
        mult_pgsp_irr(make_label(Q3, 2, {Fraction(1, 8): [1]}))


def test_mult_pgo_irr_unipotent_table_n4():
    for ctx in (Q3, Q5, Q7):
        assert mult_pgo_irr(unipotent(ctx, [1, 1, 1, 1]), +1) == 2
        assert mult_pgo_irr(unipotent(ctx, [1, 1, 1, 1]), -1) == 1


def test_mult_pgo_irr_eta_rows_n2():
    # eta^(2) is never a constituent; eta^(1^2) appears iff d_eta = +1
    for eps in (1, -1):
        assert mult_pgo_irr(make_label(Q3, 2, {Fraction(1, 2): [2]}), eps) == 0
        assert mult_pgo_irr(make_label(Q3, 2, {Fraction(1, 2): [1, 1]}), eps) == 0
        assert mult_pgo_irr(make_label(Q5, 2, {Fraction(1, 2): [2]}), eps) == 0
        assert mult_pgo_irr(make_label(Q5, 2, {Fraction(1, 2): [1, 1]}), eps) == 1


def test_mult_pgo_irr_validation():
    with pytest.raises(ValueError):
        mult_pgo_irr(make_label(Q3, 2, {Fraction(1, 8): [1]}), 1)
    for eps in (0, True, 1.0, -1.0):  # eps is the int +1 or -1, not a value equal to one
        with pytest.raises(ValueError, match=f"^eps must be \\+1 or -1, got {eps}$"):
            mult_pgo_irr(unipotent(Q3, [2]), eps)


def test_unipotent_pgsp_examples():
    assert mult_pgsp_irr(unipotent(Q3, [4])) == 1
    assert mult_pgsp_irr(unipotent(Q3, [2, 1, 1])) == 0
    assert mult_pgsp_irr(unipotent(Q3, [2, 2])) == 1
    with pytest.raises(ValueError):
        mult_pgsp_irr(unipotent(Q3, [2, 1]))


def test_unipotent_gl_o_examples():
    assert mult_unipotent_gl_o(Partition([2, 2]), +1) == 2
    assert mult_unipotent_gl_o(Partition([4]), -1) == 1
    assert mult_unipotent_gl_o(Partition([1, 1]), -1) == 1
    with pytest.raises(ValueError, match=r"^partition parts must be integers, got 2\.9$"):
        mult_unipotent_gl_o([2.9], 1)  # not read as [2]


def test_unipotent_pgo_examples():
    assert mult_unipotent_pgo(Partition([3, 1]), +1) == 1
    assert mult_unipotent_pgo(Partition([2, 1, 1]), -1) == 1
    assert mult_unipotent_pgo(Partition([2, 2]), +1) == 2


def test_unipotent_consistency_with_general_formula():
    # the general formula restricted to {0/1: rho} equals the closed unipotent
    # forms, independently of q
    for n in (2, 4, 6, 8):
        for rho in partitions_of(n):
            for ctx in (Q3, Q5):
                label = unipotent(ctx, rho)
                assert mult_pgsp_irr(label) == _ref_mult_unipotent_pgsp(rho)
                for eps in (1, -1):
                    assert mult_pgo_irr(label, eps) == _ref_mult_unipotent_pgo(rho, eps)
                    assert mult_unipotent_pgo(rho, eps) == _ref_mult_unipotent_pgo(rho, eps)


def test_unipotent_inequality():
    for n in (2, 4, 6, 8, 10):
        for rho in partitions_of(n):
            for eps in (1, -1):
                assert 0 <= mult_unipotent_pgo(rho, eps) <= mult_unipotent_gl_o(rho, eps)


def test_mult_pgsp_basic_examples():
    assert mult_pgsp_basic(make_label(Q3, 2, {Fraction(0): [1, 1]})) == 1
    assert mult_pgsp_basic(make_label(Q3, 2, {Fraction(0): [2]})) == 1
    assert mult_pgsp_basic(make_label(Q3, 2, {Fraction(1, 4): [1]})) == 0


def test_mult_pgo_basic_examples():
    assert mult_pgo_basic(make_label(Q3, 2, {Fraction(0): [1, 1]}), +1) == 2
    nu = make_label(Q3, 2, {Fraction(1, 2): [2]})
    assert mult_pgo_basic(nu, +1) == mult_basic_via_transition(nu, Subgroup.PGO_PLUS)
    nu = make_label(Q3, 2, {Fraction(1, 4): [1]})
    assert mult_pgo_basic(nu, -1) == mult_basic_via_transition(nu, Subgroup.PGO_MINUS)


def test_transition_small_example():
    assert mult_basic_via_transition(make_label(Q3, 2, {Fraction(0): [2]}), Subgroup.PGSP) == 1


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
def test_route_equality_fast(q, n):
    ctx = q_context(q)
    for label in enumerate_labels(ctx, n, True):
        for sg in Subgroup:
            transition = mult_basic_via_transition(label, sg)
            if sg is Subgroup.PGSP:
                assert transition == mult_pgsp_basic(label)
            else:
                assert transition == mult_pgo_basic(label, sg.eps)
                assert transition == involutions.threeterm_bruteforce(label, sg.eps)


@pytest.mark.slow
@pytest.mark.parametrize("q,n", [(3, 4), (5, 4)])
def test_route_equality_slow(q, n):
    ctx = q_context(q)
    for label in enumerate_labels(ctx, n, True):
        for sg in Subgroup:
            transition = mult_basic_via_transition(label, sg)
            if sg is Subgroup.PGSP:
                assert transition == mult_pgsp_basic(label)
            else:
                assert transition == mult_pgo_basic(label, sg.eps)
                assert transition == involutions.threeterm_bruteforce(label, sg.eps)


def test_multiplicities_integral_nonnegative_fast():
    for q, n in ((3, 2), (5, 2), (7, 2), (3, 4)):
        ctx = q_context(q)
        for label in enumerate_labels(ctx, n, True):
            assert mult_pgsp_irr(label) in (0, 1)
            for eps in (1, -1):
                assert mult_pgo_irr(label, eps) >= 0


@pytest.mark.slow
def test_multiplicities_integral_nonnegative_slow():
    for q in (5, 7):
        ctx = q_context(q)
        for label in enumerate_labels(ctx, 4, True):
            assert mult_pgsp_irr(label) in (0, 1)
            for eps in (1, -1):
                assert mult_pgo_irr(label, eps) >= 0


def test_trivial_character_total_is_three():
    # one orbit of forms per subgroup: the trivial character appears once in each
    for ctx, n in ((Q3, 2), (Q5, 2), (Q3, 4), (Q5, 4)):
        trivial = unipotent(ctx, [n])
        total = sum(mult_irr(trivial, sg) for sg in Subgroup)
        assert total == 3


def alternate_rep_label(mp):
    # replace every canonical representative by the orbit element with
    # maximal (denominator, numerator); multiplicities must not notice
    def alternate(data):
        rep = max(orbit(mp.ctx, data.rep), key=lambda f: (f.denominator, f.numerator))
        return data._replace(num=rep.numerator, den=rep.denominator)

    entries = tuple((alternate(data), part) for data, part in mp.entries)
    return MultiPartition(mp.ctx, mp.n, entries)


def test_multiplicities_independent_of_orbit_representatives():
    for ctx, n in ((Q3, 2), (Q3, 4), (Q5, 2), (Q5, 4)):
        for label in enumerate_labels(ctx, n, True):
            other = alternate_rep_label(label)
            assert mult_pgsp_irr(other) == mult_pgsp_irr(label)
            for eps in (1, -1):
                assert mult_pgo_irr(other, eps) == mult_pgo_irr(label, eps)
                assert mult_pgo_basic(other, eps) == mult_pgo_basic(label, eps)


def test_decompose_pgsp_q3_n2():
    report = decompose(Q3, 2, Subgroup.PGSP)
    assert [(r.label.text(), r.mult) for r in report.rows] == [("0/1:[2]", 1)]
    assert report.sum_mult_squared == 1


def test_decompose_unipotent_only_matches_fast_paths():
    for q in (3, 5):
        ctx = q_context(q)
        for sg in Subgroup:
            report = decompose(ctx, 4, sg, include_zeros=True, unipotent_only=True)
            expected = [
                _ref_mult_unipotent_pgsp(r)
                if sg is Subgroup.PGSP
                else _ref_mult_unipotent_pgo(r, sg.eps)
                for r in partitions_of(4)
            ]
            assert [row.mult for row in report.rows] == expected


def test_decompose_include_zeros_and_degree_toggle():
    report = decompose(Q3, 2, Subgroup.PGO_MINUS, include_zeros=True)
    assert len(report.rows) == 5
    assert report.sum_mult_times_degree is None
    report = decompose(Q3, 2, Subgroup.PGO_MINUS, with_degrees=True)
    assert report.sum_mult_times_degree == oracle.orders(3, 2).index_pgo_minus


def expected_n2_constituents(q):
    # closed-form list: trivial; Steinberg for eps=+1; eta^(1^2) iff q = 1 mod 4;
    # sigma-fixed pairs with d = +1; twisted pairs with tilde_d = -1
    ctx = q_context(q)
    plus, minus = {"0/1:[2]", "0/1:[1,1]"}, {"0/1:[2]"}
    if q % 4 == 1:
        plus.add("1/2:[1,1]")
        minus.add("1/2:[1,1]")
    for c in range(1, q - 1):
        xi = Fraction(c, q - 1)
        if 2 * xi % 1 == 0 or c > q - 1 - c:
            continue
        if (-1) ** c == 1:  # d_xi = (-1)^c for xi = c/(q-1)
            text = f"{xi.numerator}/{xi.denominator}:[1] + {(1-xi).numerator}/{(1-xi).denominator}:[1]"
            plus.add(text)
            minus.add(text)
    for c in range(1, q + 1):
        xi = Fraction(c, q + 1)
        if 2 * xi % 1 == 0:
            continue
        rep = canonical_rep(ctx, xi)
        assert rep == canonical_rep(ctx, -xi)  # xi and xi^(-1) share the orbit
        if tilde_d(ctx, xi) == -1:
            text = f"{rep.numerator}/{rep.denominator}:[1]"
            plus.add(text)
            minus.add(text)
    return plus, minus


@pytest.mark.parametrize("q", [3, 5, 7])
def test_decompose_pgo_n2_closed_form(q):
    ctx = q_context(q)
    plus, minus = expected_n2_constituents(q)
    report = decompose(ctx, 2, Subgroup.PGO_PLUS)
    assert {r.label.text() for r in report.rows} == plus
    assert all(r.mult == 1 for r in report.rows)
    report = decompose(ctx, 2, Subgroup.PGO_MINUS)
    assert {r.label.text() for r in report.rows} == minus
    assert all(r.mult == 1 for r in report.rows)


# The Fraction formulas the integer ones replaced, kept as the reference.


def _ref_prod_mult_plus_one(p):
    out = 1
    for mult in p.multiplicities().values():
        out *= mult + 1
    return out


def _ref_prod_even_mult_plus_one(p):
    out = 1
    for part, mult in p.multiplicities().items():
        if part % 2 == 0:
            out *= mult + 1
    return out


def _ref_odd_mults_even(p):
    return all(mult % 2 == 0 for part, mult in p.multiplicities().items() if part % 2)


def _ref_phi(ctx, blocks, sqrt_exponent):
    total = Fraction(0)
    pi_total = Fraction(0)
    for xi, size in blocks.items():
        data = dualgroup.orbit_data(ctx, xi)
        e = data.m * size
        assert e % 2 == 0
        pi_total += size * Fraction(data.r, ctx.q - 1)
        t = xi.numerator * ((ctx.q**e - 1) // xi.denominator)
        total += Fraction(sqrt_exponent * t, ctx.q**2 - 1)
    assert pi_total % 1 == 0
    total %= 1
    assert total in (0, Fraction(1, 2))
    return 1 if total == 0 else -1


def _ref_mult_pgo_irr(rho, eps):
    entries = [(dualgroup.orbit_data(rho.ctx, data.rep), part) for data, part in rho.entries]
    total = Fraction(0)
    if all(data.d == 1 or part.transpose().is_even() for data, part in entries):
        prod = 1
        for data, part in entries:
            if data.d == 1:
                prod *= _ref_prod_mult_plus_one(part)
        total += Fraction(prod, 4)
    if (
        all(part.transpose().is_even() for _, part in entries)
        and params.half_norm_product(rho) == 0
    ):
        total += Fraction(eps, 2)
    cond = all(
        _ref_odd_mults_even(part) if (data.d == 1 and data.m % 2) else part.transpose().is_even()
        for data, part in entries
        if not (data.d == 1 and data.m % 2 == 0)
    )
    if cond:
        prod = 1
        phi = _ref_phi(rho.ctx, _block_sizes(rho), (rho.ctx.q + 1) // 2)
        sign = (-1) ** (rho.n // 2) * phi
        for data, part in entries:
            if data.d == 1 and data.m % 2:
                prod *= _ref_prod_even_mult_plus_one(part)
                sign *= (-1) ** part.length_stats().ell2mod4
            elif data.d == 1:
                prod *= _ref_prod_mult_plus_one(part)
        total += Fraction(sign * prod, 4)
    assert total.denominator == 1 and total >= 0
    return int(total)


def _ref_mult_unipotent_pgsp(rho):
    return 1 if rho.is_even() else 0


def _ref_mult_unipotent_pgo(rho, eps):
    # The closed unipotent form: ell1 is the number of odd parts.
    total = Fraction(_ref_prod_mult_plus_one(rho), 4)
    if rho.transpose().is_even():
        total += Fraction(eps, 2)
    if _ref_odd_mults_even(rho):
        sign = (-1) ** (rho.length_stats().ell1 // 2)
        total += Fraction(sign * _ref_prod_even_mult_plus_one(rho), 4)
    assert total.denominator == 1 and total >= 0
    return int(total)


def _ref_mult_pgsp_irr(rho):
    """1 when the half-norm product is trivial and every part of every block is even."""
    if params.half_norm_product(rho) != 0:
        return 0
    return 1 if all(part.is_even() for _, part in rho.entries) else 0


@pytest.mark.parametrize(
    "q,n", [(3, 4), (5, 4), (9, 4), (3, 6), pytest.param(7, 6, marks=pytest.mark.slow)]
)
def test_integer_formulas_match_fraction_reference(q, n):
    ctx = q_context(q)
    phis = sp = 0
    for label in enumerate_labels(ctx, n, True):
        for eps in (1, -1):
            assert mult_pgo_irr(label, eps) == _ref_mult_pgo_irr(label, eps), label
        mult = mult_pgsp_irr(label)
        assert mult == _ref_mult_pgsp_irr(label), label
        sp += mult
        if all(data.m * part.size() % 2 == 0 for data, part in label.entries):
            # Phi takes sqrt(beta) = g_2^((q+1)/2); a shift by q + 1 is another root.
            expected = _ref_phi(ctx, _block_sizes(label), (q + 1) // 2)
            assert _ref_phi(ctx, _block_sizes(label), (q + 1) // 2 + (q + 1)) == expected
            assert dualgroup.phi(ctx, _block_sizes(label)) == expected
            assert params.phi(label) == expected
            phis += 1
    assert phis > 0 and sp > 0


@pytest.mark.parametrize("q", [3, 5])
def test_unipotent_formulas_match_fraction_reference(q):
    ctx = q_context(q)
    for n in (2, 4, 6, 8, 10):
        for rho in partitions_of(n):
            for eps in (1, -1):
                gl = Fraction(_ref_prod_mult_plus_one(rho), 2)
                if rho.transpose().is_even():
                    gl += Fraction(eps, 2)
                assert mult_unipotent_gl_o(rho, eps) == gl
                assert mult_unipotent_pgo(rho, eps) == _ref_mult_pgo_irr(
                    unipotent(ctx, rho), eps
                )


def _ref_mult_pgo_basic(nu, eps):
    """The closed basic form in Fraction arithmetic, as it was first written."""
    term1 = Fraction(1, 4)
    for data, part in nu.entries:
        if data.d == 1:
            term1 *= (-1) ** part.size() * symchar.sum_chi_weighted(part)
        else:
            term1 *= symchar.sum_chi_transpose_even(part)
    total = term1
    if params.half_norm_product(nu) == 0:
        term2 = Fraction(eps, 2)
        for _, part in nu.entries:
            term2 *= symchar.sum_chi_transpose_even(part)
        total += term2
    if all(data.m * part.size() % 2 == 0 for data, part in nu.entries):
        term3 = Fraction(params.phi(nu), 4)
        for data, part in nu.entries:
            if data.d == 1 and data.m % 2:
                term3 *= symchar.sum_chi_signed_even(part)
            elif data.d == 1:
                term3 *= (-1) ** (part.size() + data.m * part.size() // 2)
                term3 *= symchar.sum_chi_weighted(part)
            else:
                term3 *= (-1) ** (data.m * part.size() // 2)
                term3 *= symchar.sum_chi_transpose_even(part)
        total += term3
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("q", [3, 5])
def test_integer_basic_form_matches_fraction_reference(q):
    for label in enumerate_labels(q_context(q), 4, True):
        for eps in (1, -1):
            assert mult_pgo_basic(label, eps) == _ref_mult_pgo_basic(label, eps), label


def test_basic_form_refuses_an_odd_quadruple(monkeypatch, fresh_route_tables):
    label = unipotent(Q3, [2])
    assert mult_pgo_basic(label, 1) == 0
    real = symchar.chi_sums
    # The weighted sum, which T1 reads on a sign-1 orbit, set to 1.
    monkeypatch.setattr(symchar, "chi_sums", lambda nu: (*real(nu)[:2], 1, real(nu)[3]))
    formulas._basic_step.cache_clear()  # its table holds the true sum for [2]
    with pytest.raises(InvariantViolation, match="non-integral basic multiplicity"):
        mult_pgo_basic(label, 1)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4)])
def test_decompose_reads_the_orbit_data_carried_by_labels(monkeypatch, q, n):
    ctx = q_context(q)
    expected = {
        sg: decompose(ctx, n, sg, include_zeros=True, with_degrees=True) for sg in Subgroup
    }

    def fail(ctx, xi):
        raise AssertionError("orbit_data looked up again")

    monkeypatch.setattr(dualgroup, "orbit_data", fail)
    for sg in Subgroup:
        got = decompose(ctx, n, sg, include_zeros=True, with_degrees=True)
        assert got == expected[sg]


def test_labels_are_formatted_only_for_errors(monkeypatch):
    labels = enumerate_labels(Q3, 4, True)

    def fail(self):
        raise AssertionError("label formatted on the success path")

    monkeypatch.setattr(MultiPartition, "__str__", fail)
    for sg in Subgroup:
        decompose(Q3, 4, sg, with_degrees=True)
    for label in labels:
        mult_basic_via_transition(label, Subgroup.PGO_MINUS)
    label = unipotent(Q3, [4])
    assert errors.exact_div(8, 4, formulas._PGO_IRR, label, 1, nonneg=True) == 2
    assert errors.by_sign(1, 0, 3, formulas._PGO_IRR, label, True) == (1, 1)
    monkeypatch.undo()
    with pytest.raises(InvariantViolation) as info:
        errors.exact_div(-2, 4, formulas._PGO_IRR, label, 1, nonneg=True)
    assert str(info.value) == "non-integral mult_pgo_irr(0/1:[4], +1) = -1/2"
    with pytest.raises(InvariantViolation) as info:
        errors.by_sign(-4, 0, 0, formulas._PGO_IRR, label, True)
    assert str(info.value) == "negative mult_pgo_irr(0/1:[4], +1) = -1"
    with pytest.raises(InvariantViolation, match=r"^non-integral degree\(0/1:\[4\]\) = 7/2$"):
        errors.exact_div(7, 2, "degree({}) = {value}", label)


def test_a_negative_irreducible_multiplicity_is_refused(monkeypatch, fresh_route_tables):
    label = unipotent(Q3, [4])
    assert mult_pgo_irr(label, -1) == 1
    # T1 + 2 T2 + T3 = 0 and T1 - 2 T2 + T3 = -8: a multiple of 4, but negative.
    # Every label here has one block, whose factors are then its terms; the
    # transition route reads them from its table, emptied by the fixture.
    monkeypatch.setattr(formulas, "_pgo_step", lambda d, m, part: (-4, 2, 0))
    for eps in (1, -1):
        with pytest.raises(InvariantViolation, match=r"^negative mult_pgo_irr\(0/1:\[4\], -1\) = -2$"):
            mult_pgo_irr(label, eps)
    with pytest.raises(InvariantViolation, match="^negative mult_pgo_irr"):
        formulas.mults_via_transition(label)


@pytest.mark.parametrize("q,n", [(5, 2), (3, 4), (5, 4), (3, 6)])
@pytest.mark.parametrize("with_degrees", [True, False], ids=["degrees", "no-degrees"])
def test_given_labels_match_the_rows_of_decompose(q, n, with_degrees):
    ctx = q_context(q)
    for sg in Subgroup:
        full = decompose(ctx, n, sg, include_zeros=True, with_degrees=with_degrees)
        for row in full.rows:
            texts = []
            single = formulas.decompose(
                ctx, n, sg, labels=[row.label], include_zeros=True, with_degrees=with_degrees,
                texts=texts,
            )
            assert single.rows == (row,)
            assert texts == [row.label.text()]
            if with_degrees:
                assert single.sum_mult_times_degree == row.mult * row.degree
            assert single.sum_mult_squared == row.mult * row.mult
        rows = formulas.decompose(
            ctx, n, sg, labels=[r.label for r in full.rows], include_zeros=True,
            with_degrees=with_degrees,
        )
        assert rows == full
        kept = formulas.decompose(
            ctx, n, sg, labels=[r.label for r in full.rows], with_degrees=with_degrees
        )
        assert kept.rows == tuple(row for row in full.rows if row.mult)


def test_given_labels_check_the_pgsp_invariant(monkeypatch):
    label = unipotent(Q3, [2])
    monkeypatch.setattr(formulas, "_pgsp_step", lambda d, m, part: (2,))
    with pytest.raises(InvariantViolation, match="outside"):
        formulas.decompose(Q3, 2, Subgroup.PGSP, labels=[label], include_zeros=True)


def test_a_given_label_at_another_q_or_n_is_refused():
    label = params.parse_label(Q3, 2, "0/1:[1,1]")
    assert formulas.decompose(Q3, 2, Subgroup.PGO_PLUS, labels=[label]).rows
    with pytest.raises(ValueError, match=r"^label 0/1:\[1,1\] is not at q = 5, n = 2$"):
        formulas.decompose(Q5, 2, Subgroup.PGO_PLUS, labels=[label], with_degrees=True)
    with pytest.raises(ValueError, match=r"^label 0/1:\[1,1\] is not at q = 3, n = 4$"):
        formulas.decompose(Q3, 4, Subgroup.PGSP, labels=[label], include_zeros=True)


def test_decompose_takes_labels_or_unipotent_only_not_both():
    label = unipotent(Q3, [2])
    with pytest.raises(ValueError, match="^decompose takes labels or unipotent_only, not both$"):
        decompose(Q3, 2, Subgroup.PGO_PLUS, labels=[label], unipotent_only=True)



def _irr_labels():
    for q, n in ((3, 4), (5, 4), (9, 4), (3, 6)):
        yield from enumerate_labels(q_context(q), n, True)
    yield from params.random_labels(q_context(27), 6, 200, seed=27)


def test_irr_mults_equals_the_three_single_subgroup_functions():
    for label in _irr_labels():
        expected = (mult_pgsp_irr(label), mult_pgo_irr(label, 1), mult_pgo_irr(label, -1))
        assert formulas.irr_mults(label) == expected, label
        assert tuple(mult_irr(label, sg) for sg in Subgroup) == expected, label


# The message of params.require_descends, the one descent check of the routes.
NOT_DESCENDING = "label 1/8:[1] has nontrivial norm product; it does not descend to PGL"


def test_every_route_refuses_a_label_off_pgl_with_the_shared_message():
    label = make_label(Q3, 2, {Fraction(1, 8): [1]})
    assert label.shape.pi
    calls = [
        lambda: formulas.irr_mults(label),
        lambda: mult_pgsp_irr(label),
        lambda: mult_pgo_irr(label, 1),
        lambda: formulas.basic_mults(label),
        lambda: formulas.mults_via_transition(label),
        lambda: involutions.threeterm_values(label),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == NOT_DESCENDING


def test_every_route_reads_the_shape_from_the_label_alone():
    # A label and the shape of another label once went in side by side, and
    # these routes answered (1, 0, 0) or raised InvariantViolation for 1/2:[2].
    label = params.parse_label(Q3, 2, "1/2:[2]")
    other = params.parse_label(Q3, 2, "0/1:[1,1]")
    assert formulas.irr_mults(label) == (0, 0, 0)
    assert formulas.irr_mults(other) == (0, 1, 0)
    assert formulas.basic_mults(label) == formulas.mults_via_transition(label) == (0, 0, 0)
    assert involutions.threeterm_values(label) == (0, 0)
    # A label built from the other's entries reads the other's values.
    moved = label._replace(entries=other.entries)
    assert moved == other
    assert formulas.irr_mults(moved) == formulas.irr_mults(other)
    assert formulas.basic_mults(moved) == formulas.basic_mults(other)
    assert formulas.mults_via_transition(moved) == formulas.mults_via_transition(other)
    assert involutions.threeterm_values(moved) == involutions.threeterm_values(other)


def _counting(monkeypatch, name):
    """Wrap formulas.<name>; returns the list that gets the arguments of each call."""
    real = getattr(formulas, name)
    seen = []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(formulas, name, counted)
    return seen


def test_a_single_subgroup_decomposition_computes_only_its_own_subgroup(monkeypatch):
    # mult_irr and the two selectors stay separate: computing all three
    # subgroups per call, then selecting one, measured 40-60% slower on the
    # in-process multiplicity layer.  decompose folds its subgroup's step
    # down the search, or over each given label, and calls no per-label
    # function, nor oracle.degree.
    pgo_step = _counting(monkeypatch, "_pgo_step")
    pgsp_step = _counting(monkeypatch, "_pgsp_step")
    per_label = [_counting(monkeypatch, name) for name in ("_pgo_irr", "_pgsp_irr")]
    degrees = []
    monkeypatch.setattr(oracle, "degree", lambda *args: degrees.append(args))
    labels = enumerate_labels(Q3, 4)
    for given in ({}, {"labels": labels}, {"unipotent_only": True}):
        for include_zeros in (False, True):
            decompose(Q3, 4, Subgroup.PGSP, include_zeros=include_zeros, with_degrees=True, **given)
            assert pgsp_step and not pgo_step
            pgsp_step.clear()
            decompose(Q3, 4, Subgroup.PGO_PLUS, include_zeros=include_zeros, with_degrees=True,
                      **given)
            assert pgo_step and not pgsp_step
            pgo_step.clear()
    assert per_label == [[], []] and degrees == []


# A full decompose streams the label search; decompose over the labels of
# enumerate_labels is its reference.
STREAM_SIZES = [(3, 2), (5, 4), (9, 4), (3, 6)]


@pytest.mark.parametrize("q,n", STREAM_SIZES)
def test_a_streamed_decompose_equals_decompose_over_the_given_label_list(q, n):
    ctx = q_context(q)
    labels = enumerate_labels(ctx, n, True)
    for sg in Subgroup:
        for include_zeros in (False, True):
            for with_degrees in (False, True):
                got = decompose(
                    ctx, n, sg, include_zeros=include_zeros, with_degrees=with_degrees
                )
                expected = formulas.decompose(
                    ctx, n, sg, labels=labels, include_zeros=include_zeros,
                    with_degrees=with_degrees,
                )
                assert got == expected, (sg, include_zeros, with_degrees)


@pytest.mark.parametrize(
    "q,n,subgroups",
    [pytest.param(q, n, tuple(Subgroup), id=f"{q},{n}") for q, n in STREAM_SIZES + [(5, 6)]]
    + [pytest.param(7, 6, (Subgroup.PGO_PLUS,), marks=pytest.mark.slow, id="7,6,pgo+")],
)
def test_the_carried_rows_equal_the_per_label_functions(q, n, subgroups):
    # A full decompose carries each row's multiplicity, degree and text down
    # the label search; the per-label functions compute them from the label.
    ctx = q_context(q)
    labels = enumerate_labels(ctx, n, True)
    for sg in subgroups:
        listed = formulas.decompose(
            ctx, n, sg, labels=labels, include_zeros=True, with_degrees=True
        )
        for include_zeros in (False, True):
            texts = []
            got = decompose(
                ctx, n, sg, include_zeros=include_zeros, with_degrees=True, texts=texts
            )
            assert list(got.rows) == [row for row in listed.rows if row.mult or include_zeros]
            assert got[-2:] == listed[-2:]  # sum(mult * degree), sum(mult^2)
            assert texts == [row.label.text() for row in got.rows]
            for row in got.rows:
                assert row.mult == mult_irr(row.label, sg), row.label
                assert row.degree == oracle.degree(ctx, row.label), row.label


def test_a_fork_of_the_odd_m_t3_factor_shows_on_both_paths(capsys, monkeypatch):
    # mult_pgo_irr and a full decompose read one per-block step: a sign flip
    # of T3's factor on odd-m blocks of sign 1 reaches both.
    from pglchar.cli import main

    label = params.parse_label(Q3, 4, "0/1:[2,1,1]")  # T3's factor -2 on an orbit of size 1
    assert (mult_pgo_irr(label, 1), mult_pgo_irr(label, -1)) == (1, 1)
    real = formulas._pgo_step

    def flipped(d, m, part):
        t1, t2, t3 = real(d, m, part)
        return (t1, t2, -t3) if d == 1 and m % 2 else (t1, t2, t3)

    monkeypatch.setattr(formulas, "_pgo_step", flipped)
    assert (mult_pgo_irr(label, 1), mult_pgo_irr(label, -1)) == (2, 2)
    # T3 of 0/1:[2,2] is 3, so the flip makes its multiplicity 1/2: by_sign
    # refuses it before the sums reach the index check.
    code = main(["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "invariant violation: non-integral mult_pgo_irr(0/1:[2,2], +1) = 1/2\n"


def test_a_flipped_phi_in_the_one_finish_shows_on_both_paths(capsys, monkeypatch):
    # mult_pgo_irr and a full decompose finish every orthogonal multiplicity
    # in _pgo_finish: a sign flip of (-1)^(n/2) Phi there reaches both.
    from pglchar.cli import main

    label = params.parse_label(Q3, 4, "0/1:[2,1,1]")  # T3 = -2
    assert (mult_pgo_irr(label, 1), mult_pgo_irr(label, -1)) == (1, 1)
    real = formulas._pgo_finish

    def flipped(t1, t2, t3, half_zero, phi, label):
        return real(t1, t2, t3, half_zero, -phi, label)

    monkeypatch.setattr(formulas, "_pgo_finish", flipped)
    assert (mult_pgo_irr(label, 1), mult_pgo_irr(label, -1)) == (2, 2)
    # T3 of 0/1:[2,2] is 3: flipped, its multiplicity is 1/2, which by_sign refuses.
    code = main(["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "invariant violation: non-integral mult_pgo_irr(0/1:[2,2], +1) = 1/2\n"


def _count_shapes(monkeypatch) -> list:
    """Count the LabelShapes built from now on; returns the list of their entries."""
    built = []

    class CountedShape(params.LabelShape):
        __slots__ = ()

        def __init__(self, ctx, entries, *sums):
            built.append(entries)
            super().__init__(ctx, entries, *sums)

    monkeypatch.setattr(params, "LabelShape", CountedShape)
    return built


@pytest.mark.parametrize("q,n", STREAM_SIZES)
def test_a_full_decompose_builds_no_label_list_and_no_second_shape(monkeypatch, q, n):
    ctx = q_context(q)
    labels = enumerate_labels(ctx, n, True)
    expected = {
        (sg, include_zeros): decompose(ctx, n, sg, include_zeros=include_zeros, with_degrees=True)
        for sg in Subgroup
        for include_zeros in (False, True)
    }

    def fail(*args, **kwargs):
        raise AssertionError("a full decompose listed the labels")

    monkeypatch.setattr(params, "enumerate_labels", fail)
    built = _count_shapes(monkeypatch)
    for (sg, include_zeros), report in expected.items():
        assert decompose(ctx, n, sg, include_zeros=include_zeros, with_degrees=True) == report
        # One shape per row, built where the search keeps its label: with
        # include_zeros that is every searched label.
        assert Counter(built) == Counter(row.label.entries for row in report.rows), sg
        if include_zeros:
            assert [row.label for row in report.rows] == labels
        built.clear()


@pytest.mark.slow
def test_a_full_decompose_at_7_6_builds_a_shape_only_for_a_row(monkeypatch):
    # The pgo+ search walks 9,415 labels at (7,6); 6,881 of them are rows.
    ctx = q_context(7)
    orbits = dualgroup.orbits_up_to(ctx, 6, residue=0)
    counts = {
        (d, m): [sum(any(formulas._pgo_step(d, m, part)) for part in partitions_of(k))
                 for k in range(6 // m + 1)]
        for d in (1, -1)
        for m in range(1, 7)
    }
    assert params.label_count(ctx, 6, orbits, True, counts) == 9415
    built = _count_shapes(monkeypatch)
    report = decompose(ctx, 6, Subgroup.PGO_PLUS, with_degrees=True)
    assert len(report.rows) == len(built) == 6881


def test_a_query_builds_one_shape():
    # The sequence of one single-label query: read the label, its
    # multiplicity for each subgroup, its degree.
    for q, n, text in [(3, 2, "1/2:[2]"), (9, 8, "3/8:[1,1] + 141/728:[1,1]")]:
        ctx = q_context(q)
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = _count_shapes(monkeypatch)
            label = params.parse_label(ctx, n, text)
            mults = [mult_irr(label, sg) for sg in Subgroup]
            oracle.degree(ctx, label)
        assert built == [label.entries], text
        assert mults == list(formulas.irr_mults(label)), text


def test_the_search_shapes_equal_the_shapes_of_the_labels():
    for q, n in STREAM_SIZES + [(5, 6)]:
        ctx = q_context(q)
        streamed = []
        params.label_search(ctx, n)(streamed.append)
        assert streamed == enumerate_labels(ctx, n, True)
        for label in streamed:
            own = params.LabelShape(ctx, label.entries)
            assert label.shape == own, label  # equal sizes, pi and half
            blocks = zip(label.entries, own.sizes)
            if all(data.m * size % 2 == 0 for (data, _), size in blocks):
                assert label.shape.phi() == own.phi(), label


def test_a_streamed_decompose_holds_less_memory_than_the_label_list():
    import tracemalloc

    ctx = q_context(5)
    sg = Subgroup.PGO_PLUS

    def streamed():
        return decompose(ctx, 6, sg, with_degrees=True)

    def listed():
        labels = enumerate_labels(ctx, 6, True)
        return formulas.decompose(ctx, 6, sg, labels=labels, with_degrees=True)

    assert streamed() == listed()  # and every memo is warm for both
    peaks = {}
    for run in (listed, streamed):
        tracemalloc.start()
        try:
            run()
            peaks[run.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["streamed"] < peaks["listed"], peaks


# Without include_zeros, a full decompose walks only the blocks with a
# nonzero factor under its subgroup's step; a block whose factors are all 0
# forces mult 0.
STEPS = [
    (formulas._pgsp_step, (Subgroup.PGSP,)),
    (formulas._pgo_step, (Subgroup.PGO_PLUS, Subgroup.PGO_MINUS)),
]
FILTER_SIZES = [(3, 2), (5, 4), (9, 4), (3, 6), (5, 6)]


def _passes(label, step):
    return all(any(step(data.d, data.m, part)) for data, part in label.entries)


@pytest.mark.parametrize("q,n", FILTER_SIZES)
def test_a_label_the_block_filter_skips_has_mult_0(q, n):
    ctx = q_context(q)
    subgroups = tuple(Subgroup)
    labels = enumerate_labels(ctx, n, True)
    for step, served in STEPS:
        skipped = [label for label in labels if not _passes(label, step)]
        assert skipped, step.__name__
        for label in skipped:
            mults = formulas.irr_mults(label)
            assert [mults[subgroups.index(sg)] for sg in served] == [0] * len(served), label


@pytest.mark.parametrize("q,n", FILTER_SIZES)
@pytest.mark.parametrize("restrict", [True, False])
def test_the_filtered_label_count_counts_the_labels_that_pass(q, n, restrict):
    ctx = q_context(q)
    orbits = dualgroup.orbits_up_to(ctx, n)
    labels = enumerate_labels(ctx, n, restrict)
    for step, _ in STEPS:
        counts = {
            (d, m): [sum(any(step(d, m, part)) for part in partitions_of(k))
                     for k in range(n // m + 1)]
            for d in (1, -1)
            for m in range(1, n + 1)
        }
        expected = sum(_passes(label, step) for label in labels)
        assert params.label_count(ctx, n, orbits, restrict, counts) == expected
        kept = []
        search = params.label_search(ctx, n, restrict, step)
        assert search(kept.append) == expected
        assert kept == [label for label in labels if _passes(label, step)]


def test_a_filtered_search_that_disagrees_with_its_count_is_an_invariant_violation(monkeypatch):
    real = params.label_count
    # Only the filtered count (counts given) is off by one; the budget's is not.
    monkeypatch.setattr(params, "label_count", lambda *args: real(*args) + (len(args) > 4))
    with pytest.raises(InvariantViolation, match="kept 14 labels; label_count is 15"):
        decompose(Q5, 4, Subgroup.PGSP)
    # The unfiltered searches are checked against the true count.
    assert len(decompose(Q5, 4, Subgroup.PGSP, include_zeros=True).rows) == 163
    assert len(enumerate_labels(Q5, 4, True)) == 163


@pytest.mark.slow
@pytest.mark.parametrize("q,n,sg", [(7, 6, Subgroup.PGO_PLUS), (3, 8, Subgroup.PGSP)])
def test_a_pruned_decompose_is_the_full_report_without_its_zero_rows(q, n, sg):
    ctx = q_context(q)
    full = decompose(ctx, n, sg, include_zeros=True, with_degrees=True)
    pruned = decompose(ctx, n, sg, with_degrees=True)
    assert pruned.rows == tuple(row for row in full.rows if row.mult)
    assert pruned.sum_mult_times_degree == full.sum_mult_times_degree
    assert pruned.sum_mult_squared == full.sum_mult_squared
