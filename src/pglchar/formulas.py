"""Multiplicity formulas for Ind(1) from the projective symplectic and
orthogonal subgroups of PGL_n over F_q, plus the route through basic
characters and a batch decomposition driver.

The fractional coefficients (1/4, 1/2, eps/2) are cleared first: each
formula sums four (or two) times the multiplicity as an int, and
errors.by_sign (or errors.exact_div) divides at the end.  A remainder, or a
negative multiplicity of an irreducible character, is a hard internal error,
never a rounding issue.  A label's multiplicity is one pass over its blocks,
each read from _block_stats, memoised by value for the life of the process.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import prod
from typing import Iterable, NamedTuple, Optional

from . import params, symchar
from .dualgroup import QContext, q_context
from .errors import InvariantViolation, by_sign, exact_div, sign_index
from .params import LabelShape, MultiPartition, make_label, require_descends
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


# Irreducible-character multiplicities.  4 * mult_pgo_irr(rho, eps) is
# T1 + 2 * eps * T2 + T3, and the terms do not depend on eps.


def _pgsp_irr(rho: MultiPartition, shape: LabelShape) -> int:
    if shape.half != 0:
        return 0
    for _, part in rho.entries:
        if not _block_stats(part).all_even:
            return 0
    return 1


def _pgo_irr_terms(rho: MultiPartition, shape: LabelShape) -> tuple[int, int, int]:
    """T1, T2 and T3 of the orthogonal multiplicity of rho."""
    t1 = t3 = 1
    all_transpose_even = t3_cond = True
    for data, part in rho.entries:
        stats = _block_stats(part)
        if data.d != 1:
            if not stats.transpose_even:
                return 0, 0, 0  # every term's condition fails on this block
            continue
        t1 *= stats.prod_mult_plus_one
        all_transpose_even = all_transpose_even and stats.transpose_even
        if data.m % 2:
            t3_cond = t3_cond and stats.odd_mults_even
            t3 *= stats.prod_even_mult_plus_one * stats.ell2_sign
        else:
            t3 *= stats.prod_mult_plus_one
    t2 = 1 if all_transpose_even and shape.half == 0 else 0
    t3 = (-1) ** (rho.n // 2) * shape.phi() * t3 if t3_cond else 0
    return t1, t2, t3


# Block filters for the label search (params.label_search): a block that
# fails one makes the multiplicity 0 on every label that holds it.


def _pgsp_block_kept(d: int, part: Partition) -> bool:
    """False when _pgsp_irr is 0 on every label with the block part."""
    return _block_stats(part).all_even


def _pgo_block_kept(d: int, part: Partition) -> bool:
    """False when _pgo_irr_terms is 0, 0, 0 on every label with the block part on
    an orbit of sign d."""
    return d == 1 or _block_stats(part).transpose_even


# Names by_sign's value on an irreducible label; such a value is never negative.
_PGO_IRR = "mult_pgo_irr({}, {:+d}) = {value}"


def _pgo_irr(rho: MultiPartition, shape: LabelShape) -> tuple[int, int]:
    """The orthogonal multiplicities of rho for eps = +1 and -1, from one T1, T2, T3."""
    return by_sign(*_pgo_irr_terms(rho, shape), _PGO_IRR, rho, True)


def irr_mults(rho: MultiPartition, shape: LabelShape) -> tuple[int, int, int]:
    """The irreducible multiplicities of rho for every subgroup, in Subgroup order.

    shape is rho.shape(), or that of a label on the same orbits with the same
    block sizes.  mult_irr and the two below compute one subgroup alone.
    """
    return (_pgsp_irr(rho, require_descends(rho, shape)), *_pgo_irr(rho, shape))


def mult_pgsp_irr(rho: MultiPartition) -> int:
    """Multiplicity of the irreducible labelled rho in Ind(1) from PGSp_n."""
    return _pgsp_irr(rho, require_descends(rho, rho.shape()))


def mult_pgo_irr(rho: MultiPartition, eps: int) -> int:
    """Multiplicity of the irreducible labelled rho in Ind(1) from PGO_n^eps.

    Sums four times the multiplicity, so every term is an integer.
    """
    return _pgo_irr(rho, require_descends(rho, rho.shape()))[sign_index(eps)]


def mult_irr(rho: MultiPartition, subgroup: Subgroup) -> int:
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


def _pgsp_basic(nu: MultiPartition, shape: LabelShape) -> int:
    if shape.half != 0:
        return 0
    prod = 1
    for _, part in nu.entries:
        prod *= symchar.sum_chi_even(part)
    return prod


def _pgo_basic_terms(nu: MultiPartition, shape: LabelShape) -> tuple[int, int, int]:
    """T1, T2 and T3 of the orthogonal basic multiplicity of nu."""
    blocks = [(data, part, size) for (data, part), size in zip(nu.entries, shape.sizes)]

    t1 = 1
    for data, part, size in blocks:
        if data.d == 1:
            t1 *= (-1) ** size * symchar.sum_chi_weighted(part)
        else:
            t1 *= symchar.sum_chi_transpose_even(part)

    t2 = 0
    if shape.half == 0:
        t2 = 1
        for _, part, _ in blocks:
            t2 *= symchar.sum_chi_transpose_even(part)

    t3 = 0
    if all(data.m * size % 2 == 0 for data, _, size in blocks):
        t3 = shape.phi()
        for data, part, size in blocks:
            if data.d == 1 and data.m % 2:
                t3 *= symchar.sum_chi_signed_even(part)
            elif data.d == 1:
                t3 *= (-1) ** (size + data.m * size // 2) * symchar.sum_chi_weighted(part)
            else:
                t3 *= (-1) ** (data.m * size // 2) * symchar.sum_chi_transpose_even(part)
    return t1, t2, t3


def basic_mults(nu: MultiPartition, shape: LabelShape) -> tuple[int, int, int]:
    """The closed-form basic multiplicities for every subgroup, in Subgroup order.

    One T1, T2, T3 serves both signs.  shape is nu.shape(), which the caller
    may share with the other routes.
    """
    terms = _pgo_basic_terms(nu, require_descends(nu, shape))
    plus, minus = by_sign(*terms, "basic multiplicity {value} for {} at eps = {:+d}", nu)
    return _pgsp_basic(nu, shape), plus, minus


def mult_pgsp_basic(nu: MultiPartition) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGSp_n."""
    return basic_mults(nu, nu.shape())[0]


def mult_pgo_basic(nu: MultiPartition, eps: int) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGO_n^eps."""
    return basic_mults(nu, nu.shape())[1 + sign_index(eps)]


def mults_via_transition(nu: MultiPartition, shape: LabelShape) -> tuple[int, int, int]:
    """Basic-character multiplicities through the irreducible transition matrix.

    Expands B_nu over all irreducible labels with the same block sizes on the
    same orbits, for every subgroup at once, in Subgroup order: each rho-label
    is built once and read by irr_mults.  The entries of nu are canonical and
    sorted already, so each rho-label is built directly on the orbit data of
    nu.  Its shape is shape, that of nu (nu.shape(), which the caller may share
    with the other routes), since a shape reads only the orbits and the block
    sizes.
    """
    require_descends(nu, shape)
    # Per block, the rho-entries with chi(rho, nu_xi) != 0 and that value.
    columns = [
        [((data, rho), value) for rho, value in symchar.chi_column(part)]
        for data, part in nu.entries
    ]
    sp = plus = minus = 0
    for choice in iter_product(*columns):
        entries, values = zip(*choice)
        coeff = prod(values)
        irr_sp, irr_plus, irr_minus = irr_mults(MultiPartition(nu.ctx, nu.n, entries), shape)
        sp += coeff * irr_sp
        plus += coeff * irr_plus
        minus += coeff * irr_minus
    sign = (-1) ** (nu.n + sum(shape.sizes))
    return sign * sp, sign * plus, sign * minus


def mult_basic_via_transition(nu: MultiPartition, subgroup: Subgroup) -> int:
    """One subgroup's value of mults_via_transition."""
    return mults_via_transition(nu, nu.shape())[tuple(Subgroup).index(subgroup)]


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
) -> DecompositionReport:
    """Decomposition of Ind(1) over the labels that descend to PGL_n.

    One row per label with nonzero multiplicity (or all labels with
    include_zeros), in the deterministic enumeration order.  Degrees come
    from the q-analog hook-length formula when requested; over all labels,
    sum(mult * degree) must then be the index |PGL_n : H|.  A full
    decomposition streams the label search, which without include_zeros
    skips every block that forces mult 0, and keeps only the rows.  Given
    labels (each at ctx and n; unipotent_only gives {0/1: rho}) are
    decomposed in their order, and the totals run over them alone.
    """
    from . import oracle  # loaded by the batch driver alone
    if unipotent_only:
        if labels is not None:
            raise ValueError("decompose takes labels or unipotent_only, not both")
        labels = [unipotent_label(ctx, rho) for rho in partitions_of(n)]
    search = None
    if labels is None:
        kept = None
        if not include_zeros:
            kept = _pgsp_block_kept if subgroup is Subgroup.PGSP else _pgo_block_kept
        search = params.label_search(ctx, n, True, kept)
    if with_degrees:
        oracle.check_order_bits(ctx.q, n)
    i = sign_index(subgroup.eps) if subgroup.eps else None
    rows = []

    def add(label: MultiPartition, shape: LabelShape) -> None:
        shape = require_descends(label, shape)
        mult = _pgsp_irr(label, shape) if i is None else _pgo_irr(label, shape)[i]
        if i is None and mult not in (0, 1):
            raise InvariantViolation(f"PGSp multiplicity {mult} outside {{0,1}} at {label}")
        if mult or include_zeros:
            rows.append(Row(label, mult, oracle.degree(ctx, label) if with_degrees else None))

    if search:
        search(add)
    else:
        for label in labels:
            if label.ctx != ctx or label.n != n:
                raise ValueError(f"label {label} is not at q = {ctx.q}, n = {n}")
            add(label, label.shape())
    # A label left out has mult 0, so the rows give both sums.
    sum_md = sum(row.mult * row.degree for row in rows) if with_degrees else None
    sum_m2 = sum(row.mult * row.mult for row in rows)
    if search and with_degrees:
        index = oracle.orders(ctx.q, n).index_of(subgroup.value)
        if sum_md != index:
            raise InvariantViolation(
                f"sum(mult*degree) = {sum_md} differs from "
                f"the index {index} of {subgroup.value} in PGL_{n}(F_{ctx.q})"
            )
    return DecompositionReport(subgroup, ctx, n, tuple(rows), sum_md, sum_m2)
