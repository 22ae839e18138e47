"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; the stated wall-clock budgets are asserted.
"""

import time
from fractions import Fraction

import pytest

from pglchar import involutions, oracle, params
from pglchar.dualgroup import q_context
from pglchar.formulas import (
    Subgroup,
    decompose,
    mult_basic_via_transition,
    mult_pgo_basic,
    mult_pgo_irr,
    mult_pgsp_basic,
    mult_pgsp_irr,
    mult_unipotent_gl_o,
    mult_unipotent_pgo,
)
from pglchar.params import enumerate_labels, make_label, random_labels
from pglchar.partitions import Partition, partitions_of

from test_formulas import expected_n2_constituents
from test_oracle import _ref_double_cosets


def _report(number: int, started: float, budget: float, description: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_unipotent_table_n4():
    started = time.monotonic()
    expected = {
        Subgroup.PGSP: [1, 0, 1, 0, 0],
        Subgroup.PGO_PLUS: [1, 1, 2, 1, 2],
        Subgroup.PGO_MINUS: [1, 1, 1, 1, 1],
    }
    for q in (3, 5, 7, 9):
        ctx = q_context(q)
        for subgroup, row in expected.items():
            got = [
                decompose(ctx, 4, subgroup, include_zeros=True, unipotent_only=True)
                .rows[i]
                .mult
                for i in range(5)
            ]
            assert got == row, (q, subgroup, got)
    _report(1, started, 1.0, "unipotent n=4 table exact for q in {3,5,7,9}")


def test_criterion_2_full_n2_decompositions():
    started = time.monotonic()
    for q in (3, 5, 7):
        ctx = q_context(q)
        plus, minus = expected_n2_constituents(q)
        for subgroup, expected in (
            (Subgroup.PGSP, {f"0/1:[2]"}),
            (Subgroup.PGO_PLUS, plus),
            (Subgroup.PGO_MINUS, minus),
        ):
            report = decompose(ctx, 2, subgroup)
            assert {r.label.text() for r in report.rows} == expected, (q, subgroup)
            assert all(r.mult == 1 for r in report.rows)
    _report(2, started, 1.0, "full n=2 decompositions match the closed-form lists, q in {3,5,7}")


def test_criterion_3_degree_sums_match_indices():
    started = time.monotonic()
    for q in (3, 5, 7):
        ctx = q_context(q)
        data = oracle.orders(q, 2)
        expected = {
            Subgroup.PGSP: data.index_pgsp,
            Subgroup.PGO_PLUS: data.index_pgo_plus,
            Subgroup.PGO_MINUS: data.index_pgo_minus,
        }
        for subgroup, index in expected.items():
            report = decompose(ctx, 2, subgroup, with_degrees=True)
            assert report.sum_mult_times_degree == index, (q, subgroup)
    _report(3, started, 5.0, "sum(mult*degree) equals the subgroup index, (q,2) for q in {3,5,7}")


def test_criterion_4_double_coset_counts():
    started = time.monotonic()
    for q in (3, 5):
        ctx = q_context(q)
        for kind, subgroup in (("pgo+", Subgroup.PGO_PLUS), ("pgo-", Subgroup.PGO_MINUS)):
            report = decompose(ctx, 2, subgroup)
            brute = _ref_double_cosets(q, 2, kind, kind)
            assert report.sum_mult_squared == brute, (q, kind)
            assert oracle.double_cosets(q, 2, kind, kind) == brute, (q, kind)
    _report(4, started, 60.0, "sum(mult^2) equals the brute-force double-coset count")


def test_criterion_5_three_route_equality():
    started = time.monotonic()
    for q in (3, 5):
        ctx = q_context(q)
        for n in (2, 4):
            for label in enumerate_labels(ctx, n, True):
                transition = mult_basic_via_transition(label, Subgroup.PGSP)
                assert transition == mult_pgsp_basic(label), (q, n, str(label))
                for eps, subgroup in ((1, Subgroup.PGO_PLUS), (-1, Subgroup.PGO_MINUS)):
                    closed = mult_pgo_basic(label, eps)
                    transition = mult_basic_via_transition(label, subgroup)
                    brute = involutions.threeterm_bruteforce(label, eps)
                    assert closed == transition == brute, (q, n, str(label), eps)
    _report(5, started, 300.0, "three routes agree on every label, (q,n) in {3,5}x{2,4}")


def test_criterion_6_combinatorial_identities_fast():
    started = time.monotonic()
    results = involutions.check_identities(7)
    failures = [r for r in results if not r.passed]
    assert not failures
    _report(6, started, 60.0, f"all {len(results)} identity checks pass for sizes <= 7")


@pytest.mark.slow
def test_criterion_6_combinatorial_identities_slow():
    started = time.monotonic()
    results = involutions.check_identities(9)
    failures = [r for r in results if not r.passed]
    assert not failures
    _report(6, started, 300.0, f"all {len(results)} identity checks pass for sizes <= 9")


def test_criterion_7_integrality_and_bounds():
    started = time.monotonic()
    for q in (3, 5, 7):
        ctx = q_context(q)
        for n in (2, 4):
            for label in enumerate_labels(ctx, n, True):
                assert mult_pgsp_irr(label) in (0, 1)
                for eps in (1, -1):
                    assert mult_pgo_irr(label, eps) >= 0
    ctx = q_context(9)
    for label in random_labels(ctx, 6, 1000, seed=20260811):
        assert mult_pgsp_irr(label) in (0, 1)
        for eps in (1, -1):
            assert mult_pgo_irr(label, eps) >= 0
    for n in (2, 4, 6, 8, 10):
        for rho in partitions_of(n):
            for eps in (1, -1):
                assert 0 <= mult_unipotent_pgo(rho, eps) <= mult_unipotent_gl_o(rho, eps)
    _report(
        7,
        started,
        300.0,
        "multiplicities integral and nonnegative on the exhaustive envelope, "
        "1000 random labels at (9,6), and the unipotent inequality up to n=10",
    )


def test_criterion_8_structural_counts():
    started = time.monotonic()
    for q in (3, 5, 7):
        ctx = q_context(q)
        labels = enumerate_labels(ctx, 2, True)
        assert len(labels) == oracle.conjugacy_class_count(q, 2), q
        total = sum(oracle.degree(ctx, label) ** 2 for label in labels)
        assert total == oracle.orders(q, 2).pgl, q
    ctx = q_context(3)
    labels = enumerate_labels(ctx, 4, True)
    total = sum(oracle.degree(ctx, label) ** 2 for label in labels)
    assert total == oracle.orders(3, 4).pgl
    _report(8, started, 60.0, "|PP-hat| equals the class count and sum(degree^2) equals |PGL|")
