"""Multiplicity formulas for Ind(1) from the projective symplectic and
orthogonal subgroups of PGL_n over F_q, plus the route through basic
characters and a batch decomposition driver.

The fractional coefficients (1/4, 1/2, eps/2) are cleared first: each
formula sums four (or two) times the multiplicity as an int, and
errors.by_sign (or errors.exact_div) divides at the end.  A remainder, or a
negative multiplicity of an irreducible character, is a hard internal error,
never a rounding issue.  Each subgroup has one per-block step, which gives a
block's factors of the terms from _block_stats (both memoised by value for
the life of the process).  A label's multiplicity folds the step over its
blocks and reads the rest from the shape the label holds, so every route
takes the label alone; a full decompose folds the same step down the label
search, with each block's degree factors, Phi term and text, one step per
search node.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import prod
from typing import Iterable, NamedTuple, Optional

from . import dualgroup, params
from .errors import InvariantViolation, QContext, by_sign, exact_div, q_context, sign_index
from .params import MultiPartition, make_label, require_descends
from .partitions import Partition, partitions_of
from .subgroups import Subgroup  # formulas.Subgroup stays a name of the API


class Row(NamedTuple):
    label: MultiPartition
    mult: int
    degree: Optional[int] = None


class DecompositionReport(NamedTuple):
    subgroup: Subgroup
    ctx: QContext
    n: int
    rows: tuple[Row, ...]
    sum_mult_times_degree: Optional[int]
    sum_mult_squared: int

    def to_json_dict(self) -> dict:
        rows = []
        for row in self.rows:
            item: dict = {"label": row.label.text(), "mult": row.mult}
            if row.degree is not None:
                item["degree"] = row.degree
            rows.append(item)
        return {
            "schema_version": 1,
            "q": self.ctx.q,
            "n": self.n,
            "subgroup": self.subgroup.value,
            "rows": rows,
            "totals": {
                "sum_md": self.sum_mult_times_degree,
                "sum_m2": self.sum_mult_squared,
            },
        }


class _BlockStats(NamedTuple):
    """What the multiplicity formulas read from one partition."""

    all_even: bool  # every part is even
    transpose_even: bool  # the transpose is even: every multiplicity is even
    prod_mult_plus_one: int  # prod over distinct parts i of (m_i + 1)
    odd_mults_even: bool  # every odd part has even multiplicity
    prod_even_mult_plus_one: int  # prod over distinct even parts i of (m_i + 1)
    ell2_sign: int  # (-1)^(number of parts = 2 mod 4)


@lru_cache(maxsize=None)
def _block_stats(p: Partition) -> _BlockStats:
    mults = p.multiplicities()
    prod_all = prod_even = 1
    for part, mult in mults.items():
        prod_all *= mult + 1
        if part % 2 == 0:
            prod_even *= mult + 1
    return _BlockStats(
        p.is_even(),
        all(mult % 2 == 0 for mult in mults.values()),
        prod_all,
        all(mult % 2 == 0 for part, mult in mults.items() if part % 2),
        prod_even,
        (-1) ** p.length_stats().ell2mod4,
    )


# Irreducible-character multiplicities.  Each term of one is a product over
# the label's blocks times a factor read from its shape: the PGSp
# multiplicity is one term, and 4 * mult_pgo_irr(rho, eps) is
# T1 + 2 * eps * T2 + T3, whose terms do not depend on eps.  A subgroup's
# step(d, m, part) is the tuple of a block's factors of its terms, on an
# orbit of sign d and size m.  _pgsp_irr and _pgo_irr_terms fold the step
# over one label's blocks; a full decompose folds the same step down the
# label search (params.label_search), which never walks into a block whose
# factors are all 0: the multiplicity is 0 on every label that holds it.


@lru_cache(maxsize=None)
def _pgsp_step(d: int, m: int, part: Partition) -> tuple[int]:
    """The PGSp factor of a block: 1 if every part is even, else 0."""
    return (1,) if _block_stats(part).all_even else (0,)


@lru_cache(maxsize=None)
def _pgo_step(d: int, m: int, part: Partition) -> tuple[int, int, int]:
    """The factors of T1, T2 and T3 of a block; T3 is (-1)^(n/2) Phi times their product."""
    stats = _block_stats(part)
    if d != 1:
        return (1, 1, 1) if stats.transpose_even else (0, 0, 0)
    if m % 2 == 0:
        t3 = stats.prod_mult_plus_one
    elif stats.odd_mults_even:
        t3 = stats.prod_even_mult_plus_one * stats.ell2_sign
    else:
        t3 = 0
    return stats.prod_mult_plus_one, int(stats.transpose_even), t3


def _pgsp_irr(rho: MultiPartition) -> int:
    if rho.shape.half != 0:
        return 0
    mult = 1
    for data, part in rho.entries:
        mult *= _pgsp_step(data.d, data.m, part)[0]
    return mult


def _pgo_irr_terms(rho: MultiPartition) -> tuple[int, int, int]:
    """T1, T2 and T3 of the orthogonal multiplicity of rho."""
    t1 = t2 = t3 = 1
    for data, part in rho.entries:
        f1, f2, f3 = _pgo_step(data.d, data.m, part)
        t1 *= f1
        t2 *= f2
        t3 *= f3
    if rho.shape.half != 0:
        t2 = 0
    if t3:  # every m * size is even, as Phi needs
        t3 *= (-1) ** (rho.n // 2) * rho.shape.phi()
    return t1, t2, t3


# Names by_sign's value on an irreducible label; such a value is never negative.
_PGO_IRR = "mult_pgo_irr({}, {:+d}) = {value}"


def _pgo_irr(rho: MultiPartition) -> tuple[int, int]:
    """The orthogonal multiplicities of rho for eps = +1 and -1, from one T1, T2, T3."""
    return by_sign(*_pgo_irr_terms(rho), _PGO_IRR, rho, True)


def irr_mults(rho: MultiPartition) -> tuple[int, int, int]:
    """The irreducible multiplicities of rho for every subgroup, in Subgroup order.

    mult_irr and the two below compute one subgroup alone.
    """
    return (_pgsp_irr(require_descends(rho)), *_pgo_irr(rho))


def mult_pgsp_irr(rho: MultiPartition) -> int:
    """Multiplicity of the irreducible labelled rho in Ind(1) from PGSp_n."""
    return _pgsp_irr(require_descends(rho))


def mult_pgo_irr(rho: MultiPartition, eps: int) -> int:
    """Multiplicity of the irreducible labelled rho in Ind(1) from PGO_n^eps.

    Sums four times the multiplicity, so every term is an integer.
    """
    return _pgo_irr(require_descends(rho))[sign_index(eps)]


def mult_irr(rho: MultiPartition, subgroup: Subgroup) -> int:
    subgroup = Subgroup.parse(subgroup)
    if subgroup is Subgroup.PGSP:
        return mult_pgsp_irr(rho)
    return mult_pgo_irr(rho, subgroup.eps)


# Unipotent characters: the labels {0/1: rho}.  There d = 1, Pi = 0 and
# Phi = 1, so the multiplicities do not depend on q and one context serves.

_UNIPOTENT_CTX = q_context(3)


def unipotent_label(ctx: QContext, rho) -> MultiPartition:
    """The label {0/1: rho} of the unipotent character chi^rho (n = |rho|)."""
    rho = Partition(rho)
    return make_label(ctx, rho.size(), [((0, 1), rho)])


def mult_unipotent_pgo(rho: Partition, eps: int) -> int:
    """mult_pgo_irr on {0/1: rho}: the PGL-level orthogonal multiplicity."""
    return mult_pgo_irr(unipotent_label(_UNIPOTENT_CTX, rho), eps)


def mult_unipotent_gl_o(rho: Partition, eps: int) -> int:
    """GL-level orthogonal multiplicity: (1/2)prod(m_i+1) + eps/2 [rho' even]."""
    rho = Partition(rho)
    if rho.size() % 2 or not rho:
        raise ValueError(f"unipotent labels need |rho| = n even and positive, got {rho}")
    sign_index(eps)  # eps must be +1 or -1
    stats = _block_stats(rho)
    total = stats.prod_mult_plus_one + stats.transpose_even * eps
    return exact_div(total, 2, "mult_unipotent_gl_o({}, {:+d}) = {value}", rho, eps, nonneg=True)


# Basic-character multiplicities (closed forms).  As for the irreducibles,
# 4 * mult_pgo_basic(nu, eps) is T1 + 2 * eps * T2 + T3.


class _Symchar:
    """Stands in for pglchar.symchar until an attribute of it is first read.

    That read imports symchar, loaded on use as decompose never reads it,
    and puts the module in this stand-in's place, so the routes below pay
    for no import statement per call: three of them cost 2 us a label.
    """

    def __getattr__(self, name: str):
        global symchar
        from . import symchar
        return getattr(symchar, name)


symchar = _Symchar()


def _pgsp_basic(nu: MultiPartition) -> int:
    if nu.shape.half != 0:
        return 0
    prod = 1
    for _, part in nu.entries:
        prod *= symchar.sum_chi_even(part)
    return prod


def _pgo_basic_terms(nu: MultiPartition) -> tuple[int, int, int]:
    """T1, T2 and T3 of the orthogonal basic multiplicity of nu."""
    blocks = [(data, part, size) for (data, part), size in zip(nu.entries, nu.shape.sizes)]

    t1 = 1
    for data, part, size in blocks:
        if data.d == 1:
            t1 *= (-1) ** size * symchar.sum_chi_weighted(part)
        else:
            t1 *= symchar.sum_chi_transpose_even(part)

    t2 = 0
    if nu.shape.half == 0:
        t2 = 1
        for _, part, _ in blocks:
            t2 *= symchar.sum_chi_transpose_even(part)

    t3 = 0
    if all(data.m * size % 2 == 0 for data, _, size in blocks):
        t3 = nu.shape.phi()
        for data, part, size in blocks:
            if data.d == 1 and data.m % 2:
                t3 *= symchar.sum_chi_signed_even(part)
            elif data.d == 1:
                t3 *= (-1) ** (size + data.m * size // 2) * symchar.sum_chi_weighted(part)
            else:
                t3 *= (-1) ** (data.m * size // 2) * symchar.sum_chi_transpose_even(part)
    return t1, t2, t3


def basic_mults(nu: MultiPartition) -> tuple[int, int, int]:
    """The closed-form basic multiplicities for every subgroup, in Subgroup order.

    One T1, T2, T3 serves both signs.
    """
    terms = _pgo_basic_terms(require_descends(nu))
    plus, minus = by_sign(*terms, "basic multiplicity {value} for {} at eps = {:+d}", nu)
    return _pgsp_basic(nu), plus, minus


def mult_pgsp_basic(nu: MultiPartition) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGSp_n."""
    return basic_mults(nu)[0]


def mult_pgo_basic(nu: MultiPartition, eps: int) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGO_n^eps."""
    return basic_mults(nu)[1 + sign_index(eps)]


def mults_via_transition(nu: MultiPartition) -> tuple[int, int, int]:
    """Basic-character multiplicities through the irreducible transition matrix.

    Expands B_nu over all irreducible labels with the same block sizes on the
    same orbits, for every subgroup at once, in Subgroup order: each rho-label
    is built once and read by irr_mults.  The entries of nu are canonical and
    sorted already, so each rho-label is built directly on the orbit data of
    nu, and holds nu's shape, since a shape reads only the orbits and the
    block sizes.
    """
    shape = require_descends(nu).shape
    # Per block, the rho-entries with chi(rho, nu_xi) != 0 and that value.
    columns = [
        [((data, rho), value) for rho, value in symchar.chi_column(part)]
        for data, part in nu.entries
    ]
    sp = plus = minus = 0
    for choice in iter_product(*columns):
        entries, values = zip(*choice)
        coeff = prod(values)
        irr_sp, irr_plus, irr_minus = irr_mults(nu._make((nu.ctx, nu.n, entries, shape)))
        sp += coeff * irr_sp
        plus += coeff * irr_plus
        minus += coeff * irr_minus
    sign = (-1) ** (nu.n + sum(shape.sizes))
    return sign * sp, sign * plus, sign * minus


def mult_basic_via_transition(nu: MultiPartition, subgroup: Subgroup) -> int:
    """One subgroup's value of mults_via_transition."""
    i = tuple(Subgroup).index(Subgroup.parse(subgroup))
    return mults_via_transition(nu)[i]


# Batch driver.


def decompose(
    ctx: QContext,
    n: int,
    subgroup: Subgroup,
    *,
    labels: Optional[Iterable[MultiPartition]] = None,
    include_zeros: bool = False,
    with_degrees: bool = False,
    unipotent_only: bool = False,
    texts: Optional[list] = None,
) -> DecompositionReport:
    """Decomposition of Ind(1) over the labels that descend to PGL_n.

    One row per label with nonzero multiplicity (or all labels with
    include_zeros), in the deterministic enumeration order.  Degrees come
    from the q-analog hook-length formula when requested; over all labels,
    sum(mult * degree) must then be the index |PGL_n : H|.  A full
    decomposition folds its subgroup's step down the label search (which
    without include_zeros skips every block that forces mult 0), with each
    block's degree factors, Phi term and text, and builds a label only for a
    row.  Given labels (each at ctx and n; unipotent_only gives {0/1: rho})
    are decomposed in their order, and the totals run over them alone.
    texts, if given, gets the text of each row's label, in row order.
    """
    subgroup = Subgroup.parse(subgroup)
    if unipotent_only:
        if labels is not None:
            raise ValueError("decompose takes labels or unipotent_only, not both")
        labels = [unipotent_label(ctx, rho) for rho in partitions_of(n)]
    step = _pgsp_step if subgroup is Subgroup.PGSP else _pgo_step
    search = None
    if labels is None:
        search = params.label_search(ctx, n, True, None if include_zeros else step)
    if with_degrees:
        from . import oracle  # loaded for the degrees alone
        oracle.check_order_bits(ctx.q, n)
    i = sign_index(subgroup.eps) if subgroup.eps else None
    rows = []
    if search:
        if texts is None:
            texts = []
        search(*_row_fold(ctx, n, step, i, include_zeros, with_degrees, rows, texts))
    else:
        for label in labels:
            if label.ctx != ctx or label.n != n:
                raise ValueError(f"label {label} is not at q = {ctx.q}, n = {n}")
            require_descends(label)
            mult = _pgsp_mult(_pgsp_irr(label), label) if i is None else _pgo_irr(label)[i]
            if mult or include_zeros:
                rows.append(Row(label, mult, oracle.degree(ctx, label) if with_degrees else None))
                if texts is not None:
                    texts.append(label.text())
    # A label left out has mult 0, so the rows give both sums.
    sum_md = sum(row.mult * row.degree for row in rows) if with_degrees else None
    sum_m2 = sum(row.mult * row.mult for row in rows)
    if search and with_degrees:
        index = oracle.orders(ctx.q, n).index_of(subgroup)
        if sum_md != index:
            raise InvariantViolation(
                f"sum(mult*degree) = {sum_md} differs from "
                f"the index {index} of {subgroup.value} in PGL_{n}(F_{ctx.q})"
            )
    return DecompositionReport(subgroup, ctx, n, tuple(rows), sum_md, sum_m2)


def _pgsp_mult(mult: int, label) -> int:
    """mult, a PGSp multiplicity: 0 or 1 (the multiplicity-free case), else a bug at label."""
    if mult not in (0, 1):
        raise InvariantViolation(f"PGSp multiplicity {mult} outside {{0,1}} at {label}")
    return mult


def _row_fold(ctx: QContext, n: int, step, i, include_zeros, with_degrees, rows, texts):
    """(emit, fold) for the label search of a full decompose (params.label_search).

    A block's value, taken once per entry, is its degree factors, its Phi
    term (where T3's factor is nonzero, so m * size is even), its text and
    its factors under step; PGSp's one term takes T1's place.  The search
    multiplies, adds and joins them down each branch, and emit finishes a
    label's multiplicity from them and its shape sums: it builds the label,
    and divides out the degree, only for a row.
    """
    q = ctx.q
    q1 = q - 1
    sign = (-1) ** (n // 2)
    pad = (1, 1) if i is None else ()
    phi_term, phi_sign = dualgroup.phi_term, dualgroup.phi_sign
    make_label, make_shape = MultiPartition._make, params.LabelShape
    add_row, add_text = rows.append, texts.append
    if with_degrees:
        from . import oracle
        block_degree_factor, degree_text = oracle.block_degree_factor, oracle.DEGREE

    def block(data, part) -> tuple:
        factors = step(data.d, data.m, part)
        num, den = block_degree_factor(q, data.m, part) if with_degrees else (1, 1)
        phi = phi_term(q, data, data.m * sum(part)) if not pad and factors[2] else 0
        return (num, den, phi, f" + {data.num}/{data.den}:{part}") + factors + pad

    def join(acc: tuple, value: tuple) -> tuple:
        num, den, phi, text, t1, t2, t3 = acc
        b_num, b_den, b_phi, b_text, f1, f2, f3 = value
        return num * b_num, den * b_den, phi + b_phi, text + b_text, t1 * f1, t2 * f2, t3 * f3

    def emit(acc: tuple, entries: tuple, total: int, sizes: tuple, even: bool) -> None:
        num, den, phi, text, t1, t2, t3 = acc
        text = text[3:]
        half_zero = even and total // 2 % q1 == 0  # the shape's half is 0
        if i is None:
            mult = _pgsp_mult(t1 if half_zero else 0, text)
        else:
            if t3:
                t3 *= sign * phi_sign(q, phi)
            mult = by_sign(t1, t2 if half_zero else 0, t3, _PGO_IRR, text, True)[i]
        if mult or include_zeros:
            label = make_label((ctx, n, entries, make_shape(ctx, entries, sizes, total, even)))
            add_row(Row(label, mult, exact_div(num, den, degree_text, text) if with_degrees else None))
            add_text(text)

    start = (oracle.prod_qi_minus_one(q, n) if with_degrees else 1, 1, 0, "", 1, 1, 1)
    return emit, (block, join, start)
