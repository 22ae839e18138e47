"""Multiplicity formulas for Ind(1) from the projective symplectic and
orthogonal subgroups of PGL_n over F_q, plus the route through basic
characters and a batch decomposition driver.

The fractional coefficients (1/4, 1/2, eps/2) are cleared first: each
formula sums four (or two) times the multiplicity as an int, and
errors.by_sign (or errors.exact_div) divides at the end.  A remainder, or a
negative multiplicity of an irreducible character, is a hard internal error,
never a rounding issue.  Each route folds per-block tables over a label's
blocks (lru_caches keyed by value, never by label, for the life of the
process; cache_clear empties one): route 1 and every decompose row fold
_pgsp_step or _pgo_step and finish in _pgo_finish, the closed forms fold
_basic_step (one symchar.chi_sums per block) and the transition route
_transition_column (one symchar.chi_column per block); symchar.clear_memo()
empties neither.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
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


# Irreducible-character multiplicities.  Each term of one is a product over
# the label's blocks times a factor read from its shape: the PGSp
# multiplicity is one term, and 4 * mult_pgo_irr(rho, eps) is
# T1 + 2 * eps * T2 + T3, whose terms do not depend on eps.  A subgroup's
# step(d, m, part) is the tuple of a block's factors of its terms, on an
# orbit of sign d and size m.  The label search never walks into a block
# whose factors are all 0: the multiplicity is 0 on every label holding it.


@lru_cache(maxsize=None)
def _pgsp_step(d: int, m: int, part: Partition) -> tuple[int]:
    """The PGSp factor of a block: 1 if every part is even, else 0."""
    return (int(part.is_even()),)


@lru_cache(maxsize=None)
def _pgo_step(d: int, m: int, part: Partition) -> tuple[int, int, int]:
    """The factors of T1, T2 and T3 of a block; T3 is (-1)^(n/2) Phi times their product.

    With m_i the multiplicity of the part i: T2's is [every m_i even], and all
    three are on sign -1.  On sign 1, T1's is prod (m_i + 1), and T3's is T1's
    if m is even, else [odd parts' m_i even] (-1)^ell2mod4 prod_{i even} (m_i + 1).
    """
    mults = part.multiplicities()
    t2 = int(all(mult % 2 == 0 for mult in mults.values()))
    if d != 1:
        return t2, t2, t2
    t1 = t3 = 1
    for i, mult in mults.items():
        t1 *= mult + 1
        if i % 2 == 0:
            t3 *= mult + 1
        elif mult % 2:
            t3 = 0
    if m % 2 == 0:
        return t1, t2, t1
    return t1, t2, t3 * (-1) ** part.length_stats().ell2mod4


def _pgsp_irr(rho: MultiPartition) -> int:
    if rho.shape.half != 0:
        return 0
    mult = 1
    for data, part in rho.entries:
        mult *= _pgsp_step(data.d, data.m, part)[0]
    return mult


_PGO_IRR = "mult_pgo_irr({}, {:+d}) = {value}"


def _pgo_finish(t1: int, t2: int, t3: int, half_zero: bool, phi: int, label) -> tuple[int, int]:
    """An irreducible label's orthogonal multiplicities (eps = +1, -1), never negative,
    from its blocks' factor products: T2 counts if the label's half is 0, and T3 is
    signed by phi = (-1)^(n/2) Phi, read only where T3 != 0."""
    return by_sign(t1, t2 if half_zero else 0, t3 * phi, _PGO_IRR, label, True)


def _pgo_irr(rho: MultiPartition) -> tuple[int, int]:
    """rho's orthogonal multiplicities (eps = +1, -1): _pgo_step folded, then finished."""
    t1 = t2 = t3 = 1
    for data, part in rho.entries:
        f1, f2, f3 = _pgo_step(data.d, data.m, part)
        t1 *= f1
        t2 *= f2
        t3 *= f3
    shape = rho.shape  # T3 != 0: every m * size is even, as Phi needs
    phi = (-1) ** (rho.n // 2) * shape.phi() if t3 else 0
    return _pgo_finish(t1, t2, t3, shape.half == 0, phi, rho)


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
    t1, t2, _ = _pgo_step(1, 1, rho)  # the one block of {0/1: rho}
    total = t1 + t2 * eps
    return exact_div(total, 2, "mult_unipotent_gl_o({}, {:+d}) = {value}", rho, eps, nonneg=True)


# Basic-character multiplicities (closed forms).  As for the irreducibles,
# 4 * mult_pgo_basic(nu, eps) is T1 + 2 * eps * T2 + T3.


@lru_cache(maxsize=None)
def _basic_step(d: int, m: int, part: Partition) -> tuple[int, int, int, int]:
    """The closed forms' factors of a block from symchar's four sums, read once:
    PGSp's, then those of T1, T2 and T3 (0 where m * size is odd, as T3 is then 0)."""
    from . import symchar  # loaded on use: decompose reads neither table
    size = part.size()
    sp, even, weighted, signed = symchar.chi_sums(part)
    t1 = (-1) ** size * weighted if d == 1 else even
    if m * size % 2:
        t3 = 0
    elif d == 1 and m % 2:
        t3 = signed
    else:
        t3 = (-1) ** (m * size // 2) * t1
    return sp, t1, even, t3


def _basic_terms(nu: MultiPartition) -> tuple[int, int, int, int]:
    """nu's PGSp multiplicity and T1, T2, T3: _basic_step folded, then nu's half and Phi."""
    sp = t1 = t2 = t3 = 1
    for data, part in nu.entries:
        f0, f1, f2, f3 = _basic_step(data.d, data.m, part)
        sp *= f0
        t1 *= f1
        t2 *= f2
        t3 *= f3
    if nu.shape.half != 0:
        sp = t2 = 0
    return sp, t1, t2, (t3 * nu.shape.phi() if t3 else 0)


def basic_mults(nu: MultiPartition) -> tuple[int, int, int]:
    """The closed-form basic multiplicities for every subgroup, in Subgroup order.

    One T1, T2, T3 serves both signs.
    """
    sp, *terms = _basic_terms(require_descends(nu))
    return (sp, *by_sign(*terms, "basic multiplicity {value} for {} at eps = {:+d}", nu))


def mult_pgsp_basic(nu: MultiPartition) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGSp_n."""
    return basic_mults(nu)[0]


def mult_pgo_basic(nu: MultiPartition, eps: int) -> int:
    """Inner product of the basic character B_nu with Ind(1) from PGO_n^eps."""
    return basic_mults(nu)[1 + sign_index(eps)]


@lru_cache(maxsize=None)
def _transition_column(d: int, m: int, part: Partition) -> tuple[tuple, ...]:
    """The transition route's table for a block: (rho, chi(rho, part), rho's
    _pgsp_step and _pgo_step factors) for each rho of symchar.chi_column(part)."""
    from . import symchar
    return tuple(
        (rho, value, *_pgsp_step(d, m, rho), *_pgo_step(d, m, rho))
        for rho, value in symchar.chi_column(part)
    )


class _RhoName:
    """The text of nu's transition term `choice`, as a rho-label."""

    __slots__ = ("nu", "choice")

    def __str__(self) -> str:
        nu = self.nu
        entries = tuple((data, entry[0]) for (data, _), entry in zip(nu.entries, self.choice))
        return nu._make((nu.ctx, nu.n, entries, nu.shape)).text()


def mults_via_transition(nu: MultiPartition) -> tuple[int, int, int]:
    """Basic-character multiplicities through the irreducible transition matrix.

    Expands B_nu over all irreducible labels with the same block sizes on the
    same orbits, for every subgroup at once, in Subgroup order.  A rho-label
    has nu's shape, which reads only the orbits and the block sizes, so each
    rho-term folds one _transition_column entry per block, and _pgo_finish
    finishes and nonneg-checks it; its label is built only for a message.
    """
    shape = require_descends(nu).shape
    half_zero = shape.half == 0
    columns = [_transition_column(data.d, data.m, part) for data, part in nu.entries]
    finish, name = _pgo_finish, _RhoName()
    name.nu = nu
    sp = plus = minus = phi = 0
    for choice in iter_product(*columns):
        coeff = s = t1 = t2 = t3 = 1
        for _, value, f0, f1, f2, f3 in choice:
            coeff *= value
            s *= f0
            t1 *= f1
            t2 *= f2
            t3 *= f3
        if t3 and not phi:  # (-1)^(n/2) Phi, read only where T3 != 0
            phi = (-1) ** (nu.n // 2) * shape.phi()
        name.choice = choice
        irr_plus, irr_minus = finish(t1, t2, t3, half_zero, phi, name)
        sp += coeff * s
        plus += coeff * irr_plus
        minus += coeff * irr_minus
    sign = (-1) ** (nu.n + sum(shape.sizes))
    return sign * sp * half_zero, sign * plus, sign * minus


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
    sum(mult * degree) must then be the index |PGL_n : H|.  Each row folds
    its subgroup's step over the label's blocks, with each block's degree
    factors, Phi term and text (_row_fold).  A full decomposition folds down
    the label search (which without include_zeros skips every block that
    forces mult 0), and builds a label only for a row.  Given labels (each at
    ctx and n; unipotent_only gives {0/1: rho}) are folded one by one, in
    their order, and the totals run over them alone.  texts, if given, gets
    the text of each row's label, in row order.
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
    emit, fold = _row_fold(ctx, n, step, i, include_zeros, with_degrees, rows,
                           [] if texts is None else texts)
    if search:
        search(emit, fold)
    else:
        block, join, start = fold
        for label in labels:
            if label.ctx != ctx or label.n != n:
                raise ValueError(f"label {label} is not at q = {ctx.q}, n = {n}")
            require_descends(label)
            acc, total, sizes, even = start, 0, (), True  # as the search carries them
            for data, part in label.entries:
                acc = join(acc, block(data, part))
                size = part.size()
                total, sizes, even = total + size * data.r, sizes + (size,), even and size % 2 == 0
            emit(acc, label.entries, total, sizes, even)
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


def _row_fold(ctx: QContext, n: int, step, i, include_zeros, with_degrees, rows, texts):
    """(emit, fold) of decompose's rows, as params.label_search takes them.

    A block's value, taken once per entry, is its degree factors, its Phi
    term (where T3's factor is nonzero, so m * size is even), its text and
    its factors under step; PGSp's one term takes T1's place.  The search
    (or decompose, over a given label's blocks) multiplies, adds and joins
    them down each branch, and emit finishes a
    label's multiplicity from them and its shape sums, building the label
    and dividing out the degree only for a row.  A PGSp multiplicity outside
    {0,1} (the multiplicity-free case) is a bug.
    """
    q = ctx.q
    q1 = q - 1
    sign = (-1) ** (n // 2)
    pad = (1, 1) if i is None else ()
    phi_term, phi_sign, finish = dualgroup.phi_term, dualgroup.phi_sign, _pgo_finish
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
            mult = t1 if half_zero else 0
            if mult not in (0, 1):
                raise InvariantViolation(f"PGSp multiplicity {mult} outside {{0,1}} at {text}")
        else:
            mult = finish(t1, t2, t3, half_zero, sign * phi_sign(q, phi) if t3 else 0, text)[i]
        if mult or include_zeros:
            label = make_label((ctx, n, entries, make_shape(ctx, entries, sizes, total, even)))
            add_row(Row(label, mult, exact_div(num, den, degree_text, text) if with_degrees else None))
            add_text(text)

    start = (oracle.prod_qi_minus_one(q, n) if with_degrees else 1, 1, 0, "", 1, 1, 1)
    return emit, (block, join, start)
