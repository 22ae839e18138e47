import itertools
from fractions import Fraction

import pytest

from pglchar import formorbits, oracle, params
from pglchar.dualgroup import q_context
from pglchar.errors import LIMITS, CapacityError, InvariantViolation
from pglchar.formulas import Subgroup, decompose
from pglchar.oracle import (
    conjugacy_class_count,
    degree,
    double_cosets,
    enumerate_forms,
    orders,
    projective_group,
    subgroup_elements,
)
from pglchar.params import enumerate_labels, make_label

Q3 = q_context(3)
Q5 = q_context(5)


def test_orders_q3_n2():
    data = orders(3, 2)
    assert data.pgl == 24
    assert data.pgsp == data.sp == 24
    assert data.index_pgsp == 1
    assert data.index_pgo_plus == 3 * 4 // 2 == 6
    assert data.index_pgo_minus == 3 * 2 // 2 == 3
    assert data.pgo_plus == data.o_plus == 4
    assert data.pgo_minus == data.o_minus == 8


def test_orders_n2_index_closed_forms():
    for q in (3, 5, 7, 9, 11):
        data = orders(q, 2)
        assert data.index_pgo_plus == q * (q + 1) // 2
        assert data.index_pgo_minus == q * (q - 1) // 2
        assert data.index_pgsp == 1


def test_orders_validation():
    with pytest.raises(ValueError):
        orders(3, 3)
    with pytest.raises(ValueError):
        orders(4, 2)


@pytest.mark.parametrize("q", [15, 21])
def test_orders_rejects_q_that_is_not_a_prime_power(q):
    with pytest.raises(ValueError, match="not a prime power"):
        orders(q, 2)


def test_degree_examples():
    # trivial and Steinberg
    for q in (3, 5, 7):
        ctx = q_context(q)
        assert degree(ctx, make_label(ctx, 2, {Fraction(0): [2]})) == 1
        assert degree(ctx, make_label(ctx, 2, {Fraction(0): [1, 1]})) == q
    # cuspidal at n=2 has degree q-1
    assert degree(Q3, make_label(Q3, 2, {Fraction(1, 4): [1]})) == 2


def test_degree_sum_of_squares_is_group_order():
    for q, n in ((3, 2), (5, 2), (7, 2), (3, 4)):
        ctx = q_context(q)
        total = sum(degree(ctx, label) ** 2 for label in enumerate_labels(ctx, n, True))
        assert total == orders(q, n).pgl


def test_degree_sum_of_squares_all_labels_is_gl_order():
    # over the unrestricted label set the degrees square-sum to |GL_n(q)|/(q-1)
    # times (q-1) = |GL|: each central character class contributes |PGL|-worth
    for q, n in ((3, 2), (5, 2)):
        ctx = q_context(q)
        total = sum(degree(ctx, label) ** 2 for label in enumerate_labels(ctx, n, False))
        assert total == orders(q, n).gl


def _ref_degree(ctx, label):
    """The hook-length degree with every factor recomputed per call, as first written."""
    q = ctx.q
    num = 1
    for i in range(1, label.n + 1):
        num *= q**i - 1
    den = 1
    for data, part in label.entries:
        t = q**data.m
        num *= t ** sum(i * p for i, p in enumerate(part))
        transpose = part.transpose()
        for i, p in enumerate(part):
            for j in range(p):
                den *= t ** (p - j + transpose[j] - i - 1) - 1
    assert num % den == 0
    return num // den


def _interleaved(*label_lists):
    """The labels of every list, one from each list in turn."""
    for group in itertools.zip_longest(*label_lists):
        yield from (label for label in group if label is not None)


def test_degree_matches_the_unmemoised_formula_in_interleaved_q_order():
    # Consecutive labels differ in q, and labels of different q or n share
    # blocks (m, partition), so a memo keyed without q, m or n returns a
    # value computed for another label.
    oracle.prod_qi_minus_one.cache_clear()
    oracle.block_degree_factor.cache_clear()
    full = [enumerate_labels(q_context(q), n, True) for q, n in ((3, 4), (5, 4), (9, 4), (3, 6))]
    sampled = [
        params.random_labels(q_context(q), n, 200, seed=q * 100 + n) for q, n in ((27, 6), (9, 8))
    ]
    checked = 0
    for label in _interleaved(*full, *sampled):
        assert degree(label.ctx, label) == _ref_degree(label.ctx, label), label
        checked += 1
    assert checked == sum(map(len, full)) + 400


def test_projective_group_sizes():
    for q in (3, 5, 7):
        group = projective_group(q, 2)
        assert len(group) == orders(q, 2).pgl
        # closure spot check: products of the first few elements stay inside
        elems = group.elements[:6]
        index = set(group.elements)
        for a in elems:
            for b in elems:
                assert group.mul(a, b) in index
            assert group.inverse_of[a] in index


def _ref_projective_elements(q, n):
    """Every nonsingular matrix scanned and normalised, as the oracle once did."""
    seen = set()
    for flat in itertools.product(range(q), repeat=n * n):
        mat = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if formorbits._det(mat, q) == 0:
            continue
        seen.add(formorbits._normalize(mat, q))
    return tuple(sorted(seen))


@pytest.mark.parametrize("q", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
def test_projective_group_scans_only_normalised_matrices(q):
    assert projective_group(q, 2).elements == _ref_projective_elements(q, 2)


def test_projective_group_keeps_its_limits(monkeypatch):
    assert LIMITS["MATRIX_SCAN_BUDGET"] == 5_000_000
    build = projective_group.__wrapped__
    monkeypatch.setitem(LIMITS, "MATRIX_SCAN_BUDGET", 3**4 - 1)
    with pytest.raises(CapacityError, match="MATRIX_SCAN_BUDGET"):
        build(3, 2)  # charged q^(n^2), not the (q^(n^2) - 1)/(q - 1) scanned
    monkeypatch.setitem(LIMITS, "MATRIX_SCAN_BUDGET", 3**4)
    assert len(build(3, 2)) == 24


def test_matrix_scan_budget_refuses_the_first_large_group_before_scanning(monkeypatch):
    def refuse(a, p):
        raise AssertionError("projective_group scanned a matrix")

    monkeypatch.setattr(formorbits, "_det", refuse)
    # |PGL_2(101)| = 1,030,200: the smallest prime q whose group passes a
    # million elements is refused on the scan bound, 101^4 > 5,000,000.
    assert orders(101, 2).pgl == 1_030_200
    with pytest.raises(CapacityError, match="MATRIX_SCAN_BUDGET"):
        projective_group.__wrapped__(101, 2)


def test_forms_never_invert(monkeypatch):
    def refuse(a, p):
        raise AssertionError("enumerate_forms inverted a matrix")

    expected = enumerate_forms(5, 2)
    monkeypatch.setattr(formorbits, "_inverse", refuse)
    assert enumerate_forms(5, 2) == expected


def test_projective_group_validation():
    with pytest.raises(ValueError):
        projective_group(9, 2)  # prime fields only
    with pytest.raises(CapacityError):
        projective_group(3, 4)  # 12,130,560 elements


def test_conjugacy_class_counts():
    assert conjugacy_class_count(3, 2) == 5  # PGL_2(F_3) is S_4
    assert conjugacy_class_count(5, 2) == 7
    assert conjugacy_class_count(7, 2) == 9


def test_forms_orbits_q3():
    orbits = {o.kind: o for o in enumerate_forms(3, 2)}
    assert orbits["pgsp"].size == 1
    assert orbits["pgo+"].size == 6
    assert orbits["pgo-"].size == 3
    data = orders(3, 2)
    assert orbits["pgsp"].stabilizer_order == data.pgsp
    assert orbits["pgo+"].stabilizer_order == data.pgo_plus
    assert orbits["pgo-"].stabilizer_order == data.pgo_minus


def test_forms_orbits_q5():
    sizes = {o.kind: o.size for o in enumerate_forms(5, 2)}
    assert sizes == {"pgsp": 1, "pgo+": 15, "pgo-": 10}
    # stabilizer orders confirm |PGO^eps| = |O^eps| by direct counting
    data = orders(5, 2)
    stabs = {o.kind: o.stabilizer_order for o in enumerate_forms(5, 2)}
    assert stabs == {"pgsp": data.sp, "pgo+": data.o_plus, "pgo-": data.o_minus}


def test_form_orbit_sizes_match_indices():
    for q in (3, 5, 7):
        data = orders(q, 2)
        sizes = {o.kind: o.size for o in enumerate_forms(q, 2)}
        assert sizes == {
            "pgsp": data.index_pgsp,
            "pgo+": data.index_pgo_plus,
            "pgo-": data.index_pgo_minus,
        }


def test_subgroup_elements_are_subgroups():
    for kind in ("pgsp", "pgo+", "pgo-"):
        elems = subgroup_elements(3, 2, kind)
        group = projective_group(3, 2)
        index = set(elems)
        for a in elems:
            assert group.inverse_of[a] in index
            for b in elems:
                assert group.mul(a, b) in index
    with pytest.raises(ValueError):
        subgroup_elements(3, 2, "pso")


def test_subgroup_elements_validate_the_kind_before_listing(monkeypatch):
    def refuse(q, n):
        raise AssertionError("subgroup_elements listed PGL")

    monkeypatch.setattr(oracle, "projective_group", refuse)
    with pytest.raises(ValueError, match="unknown subgroup 'pso'"):
        subgroup_elements(3, 2, "pso")


def test_the_kind_messages_list_the_subgroup_names_in_order():
    from pglchar.subgroups import EXPECTED

    assert EXPECTED == "expected pgsp, pgo+ or pgo-"
    calls = [
        lambda: subgroup_elements(3, 2, "pso"),
        lambda: double_cosets(3, 2, "pso", "pgsp"),
        lambda: double_cosets(3, 2, "pgsp", "pso"),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "unknown subgroup 'pso'; expected pgsp, pgo+ or pgo-"
    with pytest.raises(ValueError) as exc:
        Subgroup.parse("so3")
    assert str(exc.value) == "unknown subgroup 'so3'; expected pgsp, pgo+ or pgo-"


def test_index_of_reads_its_kind_through_subgroup_parse():
    data = orders(3, 2)
    for member, index in zip(Subgroup, (1, 6, 3)):
        assert data.index_of(member) == data.index_of(member.value) == index
        assert data.index_of(f" {member.value.upper()} ") == index
    for value in ("so3", 5, None):
        with pytest.raises(ValueError, match=r"; expected pgsp, pgo\+ or pgo-$"):
            data.index_of(value)


def test_a_kind_is_read_as_subgroup_parse_reads_it():
    assert double_cosets(3, 2, "PGSP", "pgsp") == double_cosets(3, 2, "pgsp", "pgsp")
    assert double_cosets(3, 2, " pgo+ ", "PGO-") == double_cosets(3, 2, "pgo+", "pgo-")
    assert subgroup_elements(3, 2, " PGO+ ") == subgroup_elements(3, 2, "pgo+")


def test_subgroup_elements_filters_pgl_once_for_every_spelling(monkeypatch):
    calls = []
    real = formorbits.ProjectiveMatrixGroup.form_stabilizer
    monkeypatch.setattr(
        formorbits.ProjectiveMatrixGroup,
        "form_stabilizer",
        lambda group, kind: calls.append(kind) or real(group, kind),
    )
    oracle._form_stabilizer.cache_clear()  # the memo is read after Subgroup.parse
    first = subgroup_elements(5, 2, "pgo+")
    for spelling in (" PGO+ ", "Pgo+", Subgroup.PGO_PLUS):
        assert subgroup_elements(5, 2, spelling) is first
    assert calls == ["pgo+"]


def _ref_form_classes(q, n):
    """Every nondegenerate symmetric and skew form, listed and normalised."""
    sym_slots = n * (n + 1) // 2
    classes = set()
    # Symmetric: free upper triangle including the diagonal.
    for flat in itertools.product(range(q), repeat=sym_slots):
        mat = [[0] * n for _ in range(n)]
        pos = 0
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = flat[pos]
                pos += 1
        mat = tuple(tuple(row) for row in mat)
        if formorbits._det(mat, q):
            classes.add(formorbits._normalize(mat, q))
    # Skew-symmetric: zero diagonal, negated lower triangle.
    for flat in itertools.product(range(q), repeat=n * (n - 1) // 2):
        mat = [[0] * n for _ in range(n)]
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = flat[pos]
                mat[j][i] = (-flat[pos]) % q
                pos += 1
        mat = tuple(tuple(row) for row in mat)
        if formorbits._det(mat, q):
            classes.add(formorbits._normalize(mat, q))
    return sorted(classes)


def _ref_enumerate_forms(q, n):
    """(kind, size, stabilizer order) per orbit, by listing PGL and every form.

    Orbits come in the order of their least class; each is taken element by
    element, and its stabilizer is counted.
    """
    group = projective_group(q, n)
    ords = orders(q, n)
    remaining = set(_ref_form_classes(q, n))
    out = []
    while remaining:
        seed = min(remaining)
        orbit = set()
        stab = 0
        for g in group.elements:
            image = formorbits._normalize(formorbits._form_action(g, seed, q), q)
            orbit.add(image)
            stab += image == seed
        assert orbit <= remaining
        remaining -= orbit
        assert stab * len(orbit) == len(group)
        if formorbits._transpose(seed) == formorbits._scale(seed, q - 1, q):
            kind = "pgsp"
        else:
            kind = {ords.index_pgo_plus: "pgo+", ords.index_pgo_minus: "pgo-"}[len(orbit)]
        out.append((kind, len(orbit), stab))
    return out


@pytest.mark.parametrize("q", [3, 5, 7])
def test_forms_match_listing_reference(q):
    got = [(o.kind, o.size, o.stabilizer_order) for o in enumerate_forms(q, 2)]
    assert got == _ref_enumerate_forms(q, 2)


def test_forms_reach_n4():
    got = [(o.kind, o.size, o.stabilizer_order) for o in enumerate_forms(3, 4)]
    assert got == [("pgo+", 10530, 1152), ("pgsp", 234, 51840), ("pgo-", 8424, 1440)]


@pytest.mark.slow
def test_forms_n4_cover_every_listed_class():
    # 37,908 nonsingular symmetric matrices, and 468 skew ones, up to scalars.
    listed = _ref_form_classes(3, 4)
    sym_space, plus = formorbits.form_orbit(3, 4, "pgo+")
    skew_space, skew = formorbits.form_orbit(3, 4, "pgsp")
    minus = formorbits.form_orbit(3, 4, "pgo-")[1]
    listed_skew = [m for m in listed if m != formorbits._transpose(m)]
    listed_sym = [m for m in listed if m == formorbits._transpose(m)]
    assert (len(listed_sym), len(listed_skew)) == (18954, 234)
    assert {sym_space.normal(sym_space.key(m)) for m in listed_sym} == set(plus) | set(minus)
    assert {skew_space.normal(skew_space.key(m)) for m in listed_skew} == set(skew)


def test_forms_never_list_pgl(monkeypatch):
    def refuse(q, n):
        raise AssertionError("enumerate_forms listed PGL")

    monkeypatch.setattr(oracle, "projective_group", refuse)
    monkeypatch.setattr(formorbits, "ProjectiveMatrixGroup", refuse)
    sizes = [o.size for o in enumerate_forms(19, 2)]
    assert sizes == [190, 1, 171]


def test_forms_refuse_before_building_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("forms built before the capacity check")

    monkeypatch.setattr(formorbits, "form_orbit", refuse)
    # (3,100 + 1,007,500 + 930,000) forms of the three kinds times 13 generators.
    with pytest.raises(CapacityError, match="25227800 exceeds FORM_ACTION_BUDGET"):
        enumerate_forms(5, 4)
    # q^2 + 1 = 368,450 forms times 3 generators; q = 601 is admitted.
    with pytest.raises(CapacityError, match="1105350 exceeds FORM_ACTION_BUDGET"):
        enumerate_forms(607, 2)
    with pytest.raises(ValueError, match="prime"):
        enumerate_forms(9, 2)


@pytest.mark.parametrize("name,args,exact", [
    *(("enumerate_forms", (q, n), True) for q, n in ((3, 2), (5, 2), (19, 2), (3, 4))),
    ("double_cosets", (3, 4, "pgsp", "pgsp"), True),  # every generator is applied
    ("double_cosets", (7, 2, "pgo-", "pgo-"), True),
    ("double_cosets", (5, 2, "pgo+", "pgo-"), False),  # O has fewer reflections than points
    ("double_cosets", (3, 4, "pgo+", "pgo-"), False),
    ("double_cosets", (3, 4, "pgsp", "pgo+"), False),
], ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None)
def test_form_action_budget_charges_bound_the_key_images(monkeypatch, name, args, exact):
    # The charge is made in oracle, the images in formorbits: each map sends every key once.
    images, charges = [0], []
    right_images, right_check = formorbits._FormSpace.images, oracle.check_limit

    def counted_images(space, keys, maps):
        for image in right_images(space, keys, maps):
            images[0] += len(keys)
            yield image

    def recorded_check(name, value, what):
        if name == "FORM_ACTION_BUDGET":
            charges.append(value)
        right_check(name, value, what)

    monkeypatch.setattr(formorbits._FormSpace, "images", counted_images)
    monkeypatch.setattr(oracle, "check_limit", recorded_check)
    getattr(oracle, name)(*args)
    (charge,) = charges
    assert 0 < images[0] <= charge
    assert (images[0] == charge) == exact


def test_forms_check_the_orbits_are_disjoint(monkeypatch):
    # pgo- forms taken from the pgo+ orbit: right in number, wrong in kind.
    right = formorbits.form_orbit

    def plus_forms(q, n, kind):
        space, keys = right(q, n, "pgo+" if kind == "pgo-" else kind)
        return space, keys[: orders(q, n).index_of(kind)]

    monkeypatch.setattr(formorbits, "form_orbit", plus_forms)
    with pytest.raises(InvariantViolation, match="orbits meet"):
        enumerate_forms(5, 2)


def test_forms_check_the_closed_counts(monkeypatch):
    right = oracle._form_class_counts
    monkeypatch.setattr(oracle, "_form_class_counts", lambda q, n: (right(q, n)[0] + 1, 1))
    with pytest.raises(InvariantViolation, match="do not cover"):
        enumerate_forms(5, 2)


KINDS = {"pgsp": Subgroup.PGSP, "pgo+": Subgroup.PGO_PLUS, "pgo-": Subgroup.PGO_MINUS}


def _pgl2_mul(q):
    """The product of PGL_2(F_q) in closed form, scaled so the first nonzero entry is 1.

    A product of nonsingular matrices has a nonzero first row, which holds
    that entry; the scaling reads a table of inverses mod q.
    """
    inverse = [0] + [pow(x, -1, q) for x in range(1, q)]

    def mul(a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        c00 = (a00 * b00 + a01 * b10) % q
        c01 = (a00 * b01 + a01 * b11) % q
        s = inverse[c00 or c01]
        return (
            (c00 * s % q, c01 * s % q),
            ((a10 * b00 + a11 * b10) * s % q, (a10 * b01 + a11 * b11) * s % q),
        )

    return mul


@pytest.mark.parametrize("q", [3, 5])
def test_the_closed_form_product_is_the_group_product(q):
    group = projective_group(q, 2)
    mul = _pgl2_mul(q)
    for a in group.elements:
        for b in group.elements:
            assert mul(a, b) == group.mul(a, b), (a, b)


def _ref_double_cosets(q, n, kind1, kind2):
    """#(H1 \\ PGL_2 / H2) by brute force: a search over every element of PGL_2."""
    if n != 2:
        raise ValueError(f"the brute-force double-coset count is for n = 2 only, got {n}")
    group = projective_group(q, n)
    mul = _pgl2_mul(q)
    h1 = subgroup_elements(q, n, kind1)
    h2 = subgroup_elements(q, n, kind2)
    visited = set()
    count = 0
    for g in group.elements:
        if g in visited:
            continue
        count += 1
        frontier = [g]
        visited.add(g)
        while frontier:
            x = frontier.pop()
            for h in h1:
                y = mul(h, x)
                if y not in visited:
                    visited.add(y)
                    frontier.append(y)
            for h in h2:
                y = mul(x, h)
                if y not in visited:
                    visited.add(y)
                    frontier.append(y)
    return count


def test_the_brute_force_double_cosets_refuse_n_past_2():
    with pytest.raises(ValueError, match="for n = 2 only, got 4"):
        _ref_double_cosets(3, 4, "pgsp", "pgsp")


def _pair_sums(q, n):
    """Sum over labels of mult_k1 * mult_k2, for every ordered pair of kinds."""
    ctx = q_context(q)
    mults = {
        kind: {row.label: row.mult for row in decompose(ctx, n, sg, include_zeros=True).rows}
        for kind, sg in KINDS.items()
    }
    return {
        (k1, k2): sum(m * mults[k2][label] for label, m in mults[k1].items())
        for k1 in KINDS
        for k2 in KINDS
    }


def test_double_cosets_examples():
    assert double_cosets(3, 2, "pgsp", "pgsp") == 1
    # Frobenius: <Ind 1, Ind 1> equals the double-coset count
    for q in (3, 5):
        ctx = q_context(q)
        for kind, sg in (("pgo+", Subgroup.PGO_PLUS), ("pgo-", Subgroup.PGO_MINUS)):
            report = decompose(ctx, 2, sg)
            assert double_cosets(q, 2, kind, kind) == report.sum_mult_squared


def test_mixed_double_cosets_match_inner_products():
    # <Ind_H 1, Ind_K 1> = #(H\G/K) for distinct subgroups too
    for q, n in ((3, 2), (5, 2), (3, 4)):
        for (k1, k2), inner in _pair_sums(q, n).items():
            assert double_cosets(q, n, k1, k2) == inner, (q, n, k1, k2)


def test_degree_sum_matches_index():
    from pglchar.formulas import Subgroup, decompose

    for q in (3, 5, 7):
        ctx = q_context(q)
        data = orders(q, 2)
        expected = {
            Subgroup.PGSP: data.index_pgsp,
            Subgroup.PGO_PLUS: data.index_pgo_plus,
            Subgroup.PGO_MINUS: data.index_pgo_minus,
        }
        for sg, index in expected.items():
            report = decompose(ctx, 2, sg, with_degrees=True)
            assert report.sum_mult_times_degree == index


@pytest.mark.parametrize("q", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
def test_double_cosets_match_brute_force_n2(q):
    for k1 in KINDS:
        for k2 in KINDS:
            assert double_cosets(q, 2, k1, k2) == _ref_double_cosets(q, 2, k1, k2), (q, k1, k2)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_double_cosets_are_symmetric(q):
    for k1 in KINDS:
        for k2 in KINDS:
            # Both orientations of the orbit count, not only the one chosen.
            count = formorbits.orbits_on_forms(q, 2, k1, k2)
            assert count == formorbits.orbits_on_forms(q, 2, k2, k1), (q, k1, k2)
            assert double_cosets(q, 2, k1, k2) == double_cosets(q, 2, k2, k1) == count


def test_double_cosets_are_symmetric_n4():
    assert formorbits.orbits_on_forms(3, 4, "pgo-", "pgsp") == 3
    assert formorbits.orbits_on_forms(3, 4, "pgsp", "pgo-") == 3
    assert double_cosets(3, 4, "pgo-", "pgsp") == double_cosets(3, 4, "pgsp", "pgo-")


@pytest.mark.slow
def test_double_cosets_pgsp_pairs_q5_n4():
    assert double_cosets(5, 4, "pgsp", "pgsp") == 7
    assert double_cosets(5, 4, "pgsp", "pgo+") == 8
    assert double_cosets(5, 4, "pgsp", "pgo-") == 6


def test_double_cosets_never_list_pgl(monkeypatch):
    def refuse(q, n):
        raise AssertionError("double_cosets listed PGL")

    monkeypatch.setattr(oracle, "projective_group", refuse)
    monkeypatch.setattr(formorbits, "ProjectiveMatrixGroup", refuse)
    assert double_cosets(11, 2, "pgsp", "pgo+") == 1
    assert double_cosets(3, 2, "pgo+", "pgo+") == 3


def test_double_cosets_refuse_before_building_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("forms built before the capacity check")

    monkeypatch.setattr(formorbits, "orbits_on_forms", refuse)
    with pytest.raises(CapacityError, match="FORM_ACTION_BUDGET"):
        double_cosets(5, 4, "pgo+", "pgo+")
    # 8,128 forms, 132 generators and 126 scalings: the class table of the
    # scalings alone holds 1,024,128 keys.
    with pytest.raises(CapacityError, match="2097024 exceeds FORM_ACTION_BUDGET"):
        double_cosets(127, 2, "pgo+", "pgo+")
    with pytest.raises(ValueError, match="prime"):
        double_cosets(9, 2, "pgsp", "pgsp")
    with pytest.raises(ValueError, match="unknown subgroup 'pso'"):
        double_cosets(3, 2, "pgsp", "pso")


def test_double_cosets_check_the_orbit_size(monkeypatch):
    # A standard form of the wrong kind has an orbit of the wrong size.
    right = formorbits._standard_form

    def plus_form(q, n, kind, delta):
        return right(q, n, "pgo+", delta)

    monkeypatch.setattr(formorbits, "_standard_form", plus_form)
    with pytest.raises(InvariantViolation, match="forms of kind pgo-"):
        double_cosets(3, 2, "pgo-", "pgo-")


def test_double_cosets_check_each_generator(monkeypatch):
    # A transposed similitude of the anisotropic plane does not scale it.
    right = formorbits._similitude

    def transposed(q, n, kind, delta):
        g, mu = right(q, n, kind, delta)
        return tuple(zip(*g)), mu

    monkeypatch.setattr(formorbits, "_similitude", transposed)
    with pytest.raises(InvariantViolation, match="does not scale the form"):
        double_cosets(5, 2, "pgo-", "pgo-")


def test_degree_refuses_a_label_at_another_q():
    label = params.parse_label(Q3, 2, "0/1:[1,1]")
    assert degree(Q3, label) == 3
    with pytest.raises(ValueError, match=r"^label 0/1:\[1,1\] is not at q = 5$"):
        degree(Q5, label)
