"""Each route's per-label function against the per-subgroup code it replaced.

cross-check evaluates one label for all three subgroups in one pass of each
route: formulas.mults_via_transition, formulas.basic_mults and
involutions.threeterm_values.  The reference below is the per-subgroup form
of the same three routes: each call computes one subgroup's value, rebuilds
every rho-label, and reads Pi, the half-norm and Phi from the label's
entries itself, not from its shape.
"""

from itertools import product

import pytest

from pglchar import cli, dualgroup, errors, formulas, involutions, symchar
from pglchar.dualgroup import q_context
from pglchar.formulas import Subgroup, _block_stats
from pglchar.params import MultiPartition, enumerate_labels
from pglchar.partitions import partitions_of

from test_involutions import zinv_sums


def _ref_pi(mp):
    return sum(part.size() * data.r for data, part in mp.entries) % (mp.ctx.q - 1)


def _ref_half_is_trivial(mp):
    """True iff every block size is even and the half-norm product is 0."""
    total = 0
    for data, part in mp.entries:
        if part.size() % 2:
            return False
        total += (part.size() // 2) * data.r
    return total % (mp.ctx.q - 1) == 0


def _ref_phi(mp):
    return dualgroup.phi_from_orbits(mp.ctx, [(data, part.size()) for data, part in mp.entries])


def _ref_quarter(total):
    quot, rem = divmod(total, 4)
    assert rem == 0
    return quot


def _ref_mult_pgsp_irr(rho):
    assert _ref_pi(rho) == 0
    if not all(part.is_even() for _, part in rho.entries):
        return 0
    return 1 if _ref_half_is_trivial(rho) else 0


def _ref_mult_pgo_irr(rho, eps):
    assert _ref_pi(rho) == 0
    blocks = [(data, _block_stats(part)) for data, part in rho.entries]
    total = 0
    if all(data.d == 1 or stats.transpose_even for data, stats in blocks):
        prod = 1
        for data, stats in blocks:
            if data.d == 1:
                prod *= stats.prod_mult_plus_one
        total += prod
    if all(stats.transpose_even for _, stats in blocks) and _ref_half_is_trivial(rho):
        total += 2 * eps
    cond = all(
        stats.odd_mults_even if (data.d == 1 and data.m % 2) else stats.transpose_even
        for data, stats in blocks
        if not (data.d == 1 and data.m % 2 == 0)
    )
    if cond:
        prod = 1
        sign = (-1) ** (rho.n // 2) * _ref_phi(rho)
        for data, stats in blocks:
            if data.d == 1 and data.m % 2:
                prod *= stats.prod_even_mult_plus_one
                sign *= stats.ell2_sign
            elif data.d == 1:
                prod *= stats.prod_mult_plus_one
        total += sign * prod
    assert total >= 0
    return _ref_quarter(total)


def _ref_mult_irr(rho, subgroup):
    if subgroup is Subgroup.PGSP:
        return _ref_mult_pgsp_irr(rho)
    return _ref_mult_pgo_irr(rho, subgroup.eps)


def _ref_transition(nu, subgroup):
    assert _ref_pi(nu) == 0
    sign = (-1) ** (nu.n + sum(part.size() for _, part in nu.entries))
    columns = []
    for data, part in nu.entries:
        column = []
        for rho in partitions_of(part.size()):
            value = symchar.chi(rho, part)
            if value:
                column.append(((data, rho), value))
        columns.append(column)
    total = 0
    for choice in product(*columns):
        coeff = 1
        for _, value in choice:
            coeff *= value
        rho_label = MultiPartition(nu.ctx, nu.n, tuple(entry for entry, _ in choice))
        total += coeff * _ref_mult_irr(rho_label, subgroup)
    return sign * total


def _ref_closed_form(nu, subgroup):
    assert _ref_pi(nu) == 0
    entries = nu.entries
    if subgroup is Subgroup.PGSP:
        if not _ref_half_is_trivial(nu):
            return 0
        prod = 1
        for _, part in entries:
            prod *= symchar.sum_chi_even(part)
        return prod
    total = 1
    for data, part in entries:
        if data.d == 1:
            total *= (-1) ** part.size() * symchar.sum_chi_weighted(part)
        else:
            total *= symchar.sum_chi_transpose_even(part)
    if _ref_half_is_trivial(nu):
        term2 = 2 * subgroup.eps
        for _, part in entries:
            term2 *= symchar.sum_chi_transpose_even(part)
        total += term2
    if all(data.m * part.size() % 2 == 0 for data, part in entries):
        term3 = _ref_phi(nu)
        for data, part in entries:
            if data.d == 1 and data.m % 2:
                term3 *= symchar.sum_chi_signed_even(part)
            elif data.d == 1:
                term3 *= (-1) ** (part.size() + data.m * part.size() // 2)
                term3 *= symchar.sum_chi_weighted(part)
            else:
                term3 *= (-1) ** (data.m * part.size() // 2)
                term3 *= symchar.sum_chi_transpose_even(part)
        total += term3
    return _ref_quarter(total)


def _ref_involution(mp, eps):
    """The factorized and the direct three-term value; they must agree."""
    assert _ref_pi(mp) == 0
    entries = mp.entries
    middle = _ref_half_is_trivial(mp)
    third = all((data.m * part.size()) % 2 == 0 for data, part in entries)

    s1 = 1
    for data, part in entries:
        sums = zinv_sums(part)
        s1 *= sums.all if data.d == 1 else sums.even_type1
    factorized = s1
    if middle:
        ff = 1
        for _, part in entries:
            ff *= part.sign() * zinv_sums(part).ff
        factorized += 2 * eps * ff
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
        factorized += _ref_phi(mp) * s3

    data = [d for d, _ in entries]
    s1 = s3 = ff_count = 0
    for ws in product(*[involutions.enumerate_zinv(part) for _, part in entries]):
        if any(d.d == -1 and w.ell1_odd for d, w in zip(data, ws)):
            continue
        ell1_total = sum(w.ell1 for w in ws)
        s1 += (-2) ** ell1_total
        ff_count += all(w.is_fixed_point_free for w in ws)
        if all(d.m % 2 == 0 or w.ell1_odd == 0 for d, w in zip(data, ws)):
            s3 += involutions.phi_w(ws, mp) * (-2) ** ell1_total
    direct = s1
    if middle:
        direct += 2 * eps * involutions.epsilon_nu(mp) * ff_count
    if third:
        direct += _ref_phi(mp) * s3
    assert factorized == direct
    return _ref_quarter(factorized)


def _disagreements(q, n):
    """(route, subgroup, label) wherever a per-label function differs from the reference."""
    out = []
    for label in enumerate_labels(q_context(q), n, True):
        transition = dict(zip(Subgroup, formulas.mults_via_transition(label), strict=True))
        closed = dict(zip(Subgroup, formulas.basic_mults(label), strict=True))
        involution = dict(zip((1, -1), involutions.threeterm_values(label), strict=True))
        for sg in Subgroup:
            if transition[sg] != _ref_transition(label, sg):
                out.append(("transition", sg.value, label.text()))
            if closed[sg] != _ref_closed_form(label, sg):
                out.append(("closed-form", sg.value, label.text()))
            if sg.eps is not None and involution[sg.eps] != _ref_involution(label, sg.eps):
                out.append(("involution", sg.value, label.text()))
    return out


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (9, 4), (3, 6)])
def test_per_label_routes_equal_the_per_subgroup_reference(q, n):
    assert _disagreements(q, n) == []


@pytest.mark.slow
def test_per_label_routes_equal_the_per_subgroup_reference_at_3_8():
    assert _disagreements(3, 8) == []


def test_per_subgroup_functions_select_from_the_per_label_ones():
    for label in enumerate_labels(q_context(5), 4, True):
        transition = dict(zip(Subgroup, formulas.mults_via_transition(label), strict=True))
        closed = dict(zip(Subgroup, formulas.basic_mults(label), strict=True))
        involution = dict(zip((1, -1), involutions.threeterm_values(label), strict=True))
        for sg in Subgroup:
            assert formulas.mult_basic_via_transition(label, sg) == transition[sg]
            if sg.eps is None:
                assert formulas.mult_pgsp_basic(label) == closed[sg]
            else:
                assert formulas.mult_pgo_basic(label, sg.eps) == closed[sg]
            if sg.eps is not None:
                assert involutions.threeterm_bruteforce(label, sg.eps) == involution[sg.eps]


def test_the_comparison_catches_a_wrong_chi(monkeypatch):
    real = symchar.chi_column

    def wrong(mu):
        column = real(mu)
        if tuple(mu) != (2, 1, 1):
            return column
        (rho, value), *rest = column
        return ((rho, value + 1), *rest)

    monkeypatch.setattr(symchar, "chi_column", wrong)
    found = _disagreements(3, 4)
    assert found
    assert {route for route, _, _ in found} == {"transition"}


@pytest.mark.parametrize(
    "module,name,route",
    [
        (formulas, "_pgo_irr_terms", "transition"),
        (formulas, "_pgo_basic_terms", "closed-form"),
    ],
)
def test_the_comparison_catches_a_wrong_t2_sign(monkeypatch, module, name, route):
    real = getattr(module, name)

    def flipped(label):
        t1, t2, t3 = real(label)
        return t1, -t2, t3

    monkeypatch.setattr(module, name, flipped)
    found = _disagreements(3, 4)
    assert found
    assert {r for r, _, _ in found} == {route}
    assert {sg for _, sg, _ in found} == {"pgo+", "pgo-"}


def _by_sign_times(flip):
    """A stand-in for involutions.by_sign that multiplies T2 by flip.

    involutions holds its own reference to errors.by_sign, so only the
    involution route meets the stand-in.
    """

    def by_sign(t1, t2, t3, what, label):
        return errors.by_sign(t1, flip * t2, t3, what, label)

    return by_sign


def test_the_comparison_catches_a_wrong_t2_sign_in_the_involution_route(monkeypatch):
    monkeypatch.setattr(involutions, "by_sign", _by_sign_times(-1))
    found = _disagreements(3, 4)
    assert len(found) == 20
    assert {route for route, _, _ in found} == {"involution"}
    assert {sg for _, sg, _ in found} == {"pgo+", "pgo-"}


def test_the_involution_stand_in_without_a_flip_finds_nothing(monkeypatch):
    # The control for the test above: the same (plus, minus) shape, T2 kept.
    monkeypatch.setattr(involutions, "by_sign", _by_sign_times(1))
    assert _disagreements(3, 4) == []


def _odd_t1_terms(real, seen):
    """A route's terms function with T1 one too large; seen gets each label."""

    def terms(label):
        seen.append(label)
        t1, t2, t3 = real(label)
        return t1 + 1, t2, t3

    return terms


def _odd_t1_by_sign(real, seen):
    """The involution route's by_sign with T1 one too large; seen gets each label."""

    def by_sign(t1, t2, t3, what, label):
        seen.append(label)
        return real(t1 + 1, t2, t3, what, label)

    return by_sign


@pytest.mark.parametrize(
    "module,name,wrap",
    [
        (formulas, "_pgo_irr_terms", _odd_t1_terms),
        (formulas, "_pgo_basic_terms", _odd_t1_terms),
        (involutions, "by_sign", _odd_t1_by_sign),
    ],
)
def test_an_odd_t1_in_any_route_exits_4_naming_the_label(capsys, monkeypatch, module, name, wrap):
    seen = []
    monkeypatch.setattr(module, name, wrap(getattr(module, name), seen))
    code = cli.main(["cross-check", "--q", "3", "--n", "4", "--tier", "slow"])
    err = capsys.readouterr().err
    assert code == 4
    assert "non-integral" in err
    assert seen and seen[0].text() in err
    if name == "_pgo_irr_terms":
        # A full decompose folds _pgo_step down the label search instead: a T1
        # factor one too large makes T1 of the first label, 0/1:[4], odd.
        real = formulas._pgo_step

        def odd_t1_step(d, m, part):
            t1, t2, t3 = real(d, m, part)
            return t1 + 1, t2, t3

        monkeypatch.setattr(formulas, "_pgo_step", odd_t1_step)
        code = cli.main(["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-integral mult_pgo_irr(0/1:[4], +1)" in captured.err


def test_cross_check_catches_swapped_pgo_values_in_route_one(capsys, monkeypatch):
    # The transition route reads route 1 only through formulas.irr_mults.
    real = formulas.irr_mults

    def swapped(rho):
        sp, plus, minus = real(rho)
        return sp, minus, plus

    monkeypatch.setattr(formulas, "irr_mults", swapped)
    code = cli.main(["cross-check", "--q", "3", "--n", "4", "--tier", "slow"])
    assert code == 4
    assert "route mismatches" in capsys.readouterr().err
