"""Sigma-stable multi-partition labels with trivial norm product.

A label assigns a nonempty partition to finitely many sigma-orbits of the
dual group so that the orbit sizes weighted by partition sizes sum to n.
Labels parametrize both the irreducible characters (rho-labels) and the
basic characters (nu-labels); the subset with trivial norm product consists
of exactly those that descend from GL_n to PGL_n.  A label holds its shape
(LabelShape): all that the formulas read of it besides its partitions.

label_search is the one search over the labels of weight n.  It carries the
shape sums down each branch, and, given a fold, any value a caller adds up
block by block, so a caller reads a label's values one step per search node
and builds the label only if it keeps it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from math import comb, gcd
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from . import dualgroup
from .dualgroup import OrbitData
from .errors import InvariantViolation, QContext, check_limit, even_n, int_arg
from .partitions import Partition, partitions_of

if TYPE_CHECKING:  # annotations only: fractions is imported where a Fraction is built
    from fractions import Fraction


class LabelShape:
    """What the formulas read from a label besides its partitions.

    sizes are the block sizes in entry order; pi is the norm product Pi and
    half the product of N(xi)^(|nu_xi|/2) (None when some block size is odd),
    both as residues mod q - 1.  Phi is computed on first use.  All of them
    depend only on the orbits and the block sizes, so the rho-labels of one
    nu share nu's LabelShape.  Shapes compare by (sizes, pi, half).
    """

    __slots__ = ("sizes", "pi", "half", "_ctx", "_entries", "_phi")

    def __init__(self, ctx: QContext, entries: tuple, sizes=None, total=0, even=True):
        if sizes is None:  # else the label search passes the sums it carried down
            sizes = []
            for data, part in entries:
                size = part.size()
                sizes.append(size)
                total += size * data.r
                even = even and size % 2 == 0
        q1 = ctx.q - 1
        self.sizes = tuple(sizes)
        self.pi = total % q1
        # With every size even, total / 2 is the sum of (size / 2) * r.
        self.half = total // 2 % q1 if even else None
        self._ctx = ctx
        self._entries = entries
        self._phi: Optional[int] = None

    def phi(self) -> int:
        """The sign Phi (requires trivial Pi and all m_xi |nu_xi| even)."""
        if self._phi is None:
            blocks = [(data, size) for (data, _), size in zip(self._entries, self.sizes)]
            self._phi = dualgroup.phi_from_orbits(self._ctx, blocks)
        return self._phi

    def __eq__(self, other) -> bool:
        if not isinstance(other, __class__):  # this class, whatever the module's name is bound to
            return NotImplemented
        return (self.sizes, self.pi, self.half) == (other.sizes, other.pi, other.half)

    def __hash__(self) -> int:
        return hash((self.sizes, self.pi, self.half))

    def __repr__(self) -> str:  # a label's repr shows it
        return f"LabelShape(sizes={self.sizes}, pi={self.pi}, half={self.half})"


def require_descends(mp: MultiPartition) -> MultiPartition:
    """mp, if it descends to PGL (Pi = 0); else a ValueError."""
    if mp.shape.pi:
        raise ValueError(f"label {mp} has nontrivial norm product; it does not descend to PGL")
    return mp


class _LabelFields(NamedTuple):
    ctx: QContext
    n: int
    entries: tuple[tuple[OrbitData, Partition], ...]
    shape: LabelShape


class MultiPartition(_LabelFields):
    """Mapping from sigma-orbits to nonempty partitions, with its LabelShape.

    Each entry pairs the OrbitData of an orbit (its canonical representative
    num/den, size m, norm residue r and sign d) with the orbit's partition.
    Entries are stored sorted by (den, num), which fixes the text form and
    the enumeration order.  Instances are built through make_label() and
    parse_label(), which validate canonicality and the weight condition.
    The shape is built from the entries, also by _replace; the label search
    and the transition route pass the shape of theirs to _make.
    """

    __slots__ = ()

    def __new__(cls, ctx: QContext, n: int, entries: tuple):
        return super().__new__(cls, ctx, n, entries, LabelShape(ctx, entries))

    def __getnewargs__(self) -> tuple:  # pickle and copy rebuild from the three given fields
        return self[:3]

    def _replace(self, **changes) -> MultiPartition:  # a shape among changes is refused
        return MultiPartition(**{**dict(zip(self._fields[:3], self)), **changes})

    __replace__ = _replace  # copy.replace

    def text(self) -> str:
        return " + ".join([f"{data.num}/{data.den}:{part}" for data, part in self.entries])

    def __str__(self) -> str:
        return self.text()


def make_label(ctx: QContext, n: int, entries) -> MultiPartition:
    """Build a validated label; keys are canonicalized to orbit representatives.

    entries may be a mapping or an iterable of (dual element, partition) pairs;
    a dual element is an int or a Fraction (dualgroup.as_dual) or a reduced
    pair (num, den) of two ints, 0 <= num < den, read once into such a pair so the orbit
    walk and the checks run on integers; partitions may be Partitions or iterables.
    """
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    items = []
    for xi, part in pairs:
        if not isinstance(xi, tuple):
            x = dualgroup.as_dual(ctx, xi)
            xi = (x.numerator, x.denominator)
        elif len(xi) != 2 or type(xi[0]) is not int or type(xi[1]) is not int:
            raise ValueError(f"a pair key must be two ints (num, den), got {xi!r}")
        items.append((xi, part if isinstance(part, Partition) else Partition(part)))
    return _build_label(ctx, n, items)


def _build_label(
    ctx: QContext, n: int, items: Iterable[tuple[tuple[int, int], Partition]]
) -> MultiPartition:
    """The label of the (reduced pair, Partition) items; make_label and parse_label end here.

    One pass walks each orbit, refuses empty blocks and repeated orbits and
    adds up the weight; the weight is checked against n at the end.
    """
    even_n(n)
    # Keyed by (den, num) of the representative: the entry order.
    canon: dict[tuple[int, int], tuple[OrbitData, Partition]] = {}
    weight = 0
    for (num, den), part in items:
        data = dualgroup.pair_orbit_data(ctx, num, den, n)
        if data is None:
            raise ValueError(f"the sigma-orbit of {num}/{den} is longer than n = {n}")
        if not part:
            raise ValueError("label blocks must be nonempty partitions")
        key = (data.den, data.num)
        if key in canon:
            raise ValueError(f"duplicate orbit key {data.num}/{data.den} after canonicalization")
        canon[key] = (data, part)
        weight += data.m * sum(part)
    if weight != n:
        raise ValueError(f"label weight {weight} does not match n = {n}")
    return MultiPartition(ctx, n, tuple([canon[key] for key in sorted(canon)]))


def in_P_hat(mp: MultiPartition) -> bool:
    """True iff the label descends to PGL, i.e. Pi is trivial."""
    return mp.shape.pi == 0


def half_norm_product(mp: MultiPartition) -> Optional[Fraction]:
    """Product of N(xi)^(|nu_xi|/2) when every block size is even, else None.

    For labels with trivial Pi the value is 0 (identity) or 1/2 (eta); the
    multiplicity formulas branch on exactly these three outcomes.
    """
    from fractions import Fraction
    half = mp.shape.half
    return None if half is None else Fraction(half, mp.ctx.q - 1)


def phi(mp: MultiPartition) -> int:
    """The sign Phi of the label (requires trivial Pi and all m_xi |nu_xi| even)."""
    return mp.shape.phi()


def parse_label(ctx: QContext, n: int, text: str) -> MultiPartition:
    """Parse the label grammar: entries ``a/b:partition`` joined by ``+``.

    Example: ``0/1:[2,1] + 1/2:[1]``.  a, b and the partition's parts are
    numbers as errors.parse_int reads them (dualgroup.parse_pair,
    Partition.parse); whitespace around ``+`` and ``:`` is ignored.  Keys are
    canonicalized; duplicates after canonicalization and weight mismatches
    are rejected.
    """
    chunks = [c.strip() for c in text.split("+")]
    if not all(chunks):
        raise ValueError(f"empty label entry in {text!r}")
    items = []
    for chunk in chunks:
        frac_text, sep, part_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"label entry {chunk!r} is missing ':'")
        items.append((dualgroup.parse_pair(frac_text), Partition.parse(part_text)))
    return _build_label(ctx, n, items)


def enumerate_labels(ctx: QContext, n: int, restrict_to_P_hat: bool = True) -> list[MultiPartition]:
    """All labels of weight n, once each, in a fixed deterministic order.

    Orbits are taken sorted by representative; per orbit, block sizes run
    from large to small, partitions of a fixed size in reverse-lexicographic
    order, and "no block" last.  Depth-first composition of those choices
    yields the emission order, so the label {1:[n]} (trivial character when
    restricted) always comes first.

    The search skips branches that cannot end in a kept label.  An orbit of
    size n fills a label alone, as {xi:[1]}, which descends only when its
    norm residue r is 0, so restricted to P-hat level n lists only those
    orbits.  The norm product Pi is carried down the search as a sum of
    residues: a block that fills the label is kept or dropped where it is
    chosen, an orbit that can only fill the label is skipped unless its r
    makes Pi trivial, and an orbit is offered only where a block of it fills
    the rest or leaves one a later orbit fits in.  LABEL_BUDGET is checked
    against label_count before the search, which must keep exactly that many.
    """
    out: list[MultiPartition] = []
    label_search(ctx, n, restrict_to_P_hat)(out.append)
    return out


def label_search(ctx: QContext, n: int, restrict_to_P_hat: bool = True, step=None):
    """Check n and LABEL_BUDGET now; return search(emit, fold=None), which calls
    emit(label) on each label enumerate_labels lists and returns their number.

    With step, a subgroup's per-block step (formulas): step(d, m, part) is the
    tuple of a block's factors of the multiplicity's terms, on an orbit of
    sign d and size m.  A block whose factors are all 0 makes the
    multiplicity 0 on every label that holds it, so the search keeps only
    the labels without such a block and never walks into one.  LABEL_BUDGET
    is still charged with every label.

    With fold = (block, join, start), the search carries a value down each
    branch instead of building labels: a block adds block(data, part), taken
    once per entry in a dict local to the search, by acc = join(acc, value),
    from start.  It calls emit(acc, entries, total, sizes, even) instead of
    emit(label): total, sizes and even are the sums LabelShape reads, so the
    caller builds a label, as the search does, only for a label it keeps.
    """
    even_n(n)
    orbits = dualgroup.orbits_up_to(ctx, n, residue=0 if restrict_to_P_hat else None)
    total = label_count(ctx, n, orbits, restrict_to_P_hat)
    check_limit("LABEL_BUDGET", total, f"labels to keep at q={ctx.q}, n={n}")
    parts_of = [partitions_of(k) for k in range(n + 1)]
    # blocks[d, m][k]: the partitions of k that a block on an orbit of sign d
    # and size m may hold, for k <= n / m.
    blocks = {(d, m): parts_of[: n // m + 1] for d in (1, -1) for m in range(1, n + 1)}
    if step is not None:
        blocks = {
            (d, m): [[part for part in parts if any(step(d, m, part))] for parts in table]
            for (d, m), table in blocks.items()
        }
        counts = {key: [len(parts) for parts in table] for key, table in blocks.items()}
        total = label_count(ctx, n, orbits, restrict_to_P_hat, counts)

    return lambda emit, fold=None: _search_labels(
        ctx, n, orbits, restrict_to_P_hat, total, emit, blocks, fold
    )


def _no_value(acc, value) -> None:
    """The join of a search that builds labels, which carries nothing."""


class _OnFirstUse(dict):
    """A dict that fills a missing key with make(key) on first use."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _search_labels(
    ctx: QContext, n: int, orbits: list, restrict_to_P_hat, count: int, emit, blocks: dict, fold
):
    """The search of label_search over blocks[d, m][k], the partitions of k an orbit
    of sign d and size m may hold; it must keep `count` labels, and returns that number."""
    block, join, start_acc = fold or (None, _no_value, None)
    # Pi is total mod `mod`; without the restriction every label is kept.
    mod = ctx.q - 1 if restrict_to_P_hat else 1
    # tables[i]: orbit i's blocks[d, m].  members[d, m]: the indices of the
    # orbits of sign d and size m.
    members = {key: [] for key in blocks}
    tables = []
    for i, (_, _, m, _, d) in enumerate(orbits):
        tables.append(blocks[d, m])
        members[d, m].append(i)
    # In index order: last[w], the largest index of an orbit whose lightest
    # block fits in w (-1 if none); closers[w][r], the orbits with m == w,
    # norm residue r and [1] to hold, which fill the rest w only as [1]; and
    # shorter[w], those with m < w and a block that fills w or leaves a rest
    # a later orbit fits in.
    last = [-1] * (n + 1)
    closers = [[[] for _ in range(mod)] for _ in range(n + 1)]
    shorter: list[list[int]] = [[] for _ in range(n + 1)]
    for (d, m), indices in members.items():
        if not indices:
            continue
        low = next((m * k for k in range(1, n // m + 1) if blocks[d, m][k]), n + 1)
        for w in range(low, n + 1):
            last[w] = max(last[w], indices[-1])
        if low == m:
            for i in indices:
                closers[m][orbits[i].r % mod].append(i)
    for (d, m), indices in members.items():
        table = blocks[d, m]
        for w in range(m + 1, n + 1):
            rests = [w - m * k for k in range(1, w // m + 1) if table[k]]
            below = len(orbits) if 0 in rests else max([last[r] for r in rests], default=-1)
            shorter[w] += indices[: bisect_left(indices, below)]
    for lists in (shorter, *closers):
        for indices in lists:
            indices.sort()
    one = Partition((1,))
    stride = n + 1

    def entries_of(key: int) -> list:
        data = orbits[key // stride]
        parts = tables[key // stride][key % stride]
        return [(((data, part),), block and block(data, part)) for part in parts]

    # values[i * stride + k]: for each part of tables[i][k], the one-entry tuple
    # ((orbit i, part),), which every label with that block shares, and
    # block(orbit i, part).  closing[j]: block(orbit j, [1]) for a closer.
    values = _OnFirstUse(entries_of)
    closing = [None] * len(orbits)
    kept = 0

    def keep(entries: tuple, total: int, sizes: tuple, even: bool, acc) -> None:
        nonlocal kept
        kept += 1
        if kept > count:  # refused before it is emitted: count <= LABEL_BUDGET
            raise InvariantViolation(f"the label search kept {kept} labels; label_count is {count}")
        if fold:
            emit(acc, entries, total, sizes, even)
        else:
            emit(MultiPartition._make((ctx, n, entries, LabelShape(ctx, entries, sizes, total, even))))

    def rec(start: int, remaining: int, total: int, sizes: tuple, even: bool, prefix: tuple, acc):
        # Carried for LabelShape: total = sum(size * r), sizes, all even.  The
        # orbits with m < remaining and the closers making Pi trivial, in order.
        ends = closers[remaining][-total % mod]
        e = bisect_left(ends, start)
        candidates = shorter[remaining]
        for i in candidates[bisect_left(candidates, start) :]:
            while e < len(ends) and ends[e] < i:
                j = ends[e]
                closer, value = orbits[j], closing[j]
                if block and value is None:
                    value = closing[j] = block(closer, one)
                keep(prefix + ((closer, one),), total + closer.r, sizes + (1,), False, join(acc, value))
                e += 1
            data = orbits[i]
            table = tables[i]
            for k in range(remaining // data.m, 0, -1):
                parts = table[k]
                if not parts:
                    continue
                rest = remaining - data.m * k
                child_total = total + k * data.r
                if rest and last[rest] <= i or not rest and child_total % mod:
                    continue
                child_sizes, child_even = sizes + (k,), even and k % 2 == 0
                for entry, value in values[i * stride + k]:
                    entries = prefix + entry
                    if rest:
                        rec(i + 1, rest, child_total, child_sizes, child_even, entries, join(acc, value))
                    else:
                        keep(entries, child_total, child_sizes, child_even, join(acc, value))
        for j in ends[e:]:
            closer, value = orbits[j], closing[j]
            if block and value is None:
                value = closing[j] = block(closer, one)
            keep(prefix + ((closer, one),), total + closer.r, sizes + (1,), False, join(acc, value))

    try:
        rec(0, n, 0, (), True, (), start_acc)
    finally:
        # rec refers to itself and holds keep; drop both to free the search now.
        del rec, keep
    if kept != count:
        raise InvariantViolation(f"the label search kept {kept} labels; label_count is {count}")
    return kept


def label_count(
    ctx: QContext,
    n: int,
    orbits: Iterable[OrbitData],
    restrict_to_P_hat: bool = True,
    counts: Optional[Mapping[tuple[int, int], list[int]]] = None,
) -> int:
    """The number of labels of weight n over the given orbits, without listing them.

    A label puts at most one partition on each orbit, so it is a choice per
    orbit of x^(m k) y^(k r) with p(k) ways, or of 1: x counts the weight and
    y the norm residue mod q - 1.  Group the orbits by (m, r, d).  A class of
    c orbits contributes (1 + h)^c = sum_{j <= n/m} C(c, j) h^j, where
    h = sum_k p(k) x^(m k) y^(k r).  The count is the x^n y^0 coefficient of
    the product over the classes; without the restriction to P-hat, y is
    dropped.  Every term of (1 + h)^c is a(K) x^(m K) y^(K r) for one K, so
    a class multiplies in at most n/m + 1 terms.  counts[d, m][k], if given
    for k <= n/m, takes the place of p(k) on the orbits of sign d and size m:
    the labels whose blocks hold only the partitions it counts.
    """
    mod = ctx.q - 1 if restrict_to_P_hat else 1
    classes = Counter()
    for (m, r, d), c in Counter(map(itemgetter(2, 3, 4), orbits)).items():
        classes[m, r % mod, d] += c
    # partition_counts[k]: the number of partitions of k.
    partition_counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            partition_counts[k] += partition_counts[k - part]
    # poly[w][y]: the choices over the classes so far of weight w and norm y.
    poly = [[0] * mod for _ in range(n + 1)]
    poly[0][0] = 1
    for (m, r, d), c in classes.items():
        p = partition_counts if counts is None else counts[d, m]
        top = n // m
        # a[K]: the t^K coefficient of (1 + P(t))^c, P(t) = sum_{k >= 1} p(k) t^k.
        a = [1] + [0] * top
        power = [1] + [0] * top
        for j in range(1, min(c, top) + 1):
            power = [sum(p[s] * power[t - s] for s in range(1, t + 1)) for t in range(top + 1)]
            a = [old + comb(c, j) * new for old, new in zip(a, power)]
        # From the heaviest weight down, so each source row is read before
        # anything is added to it.
        for w in range(n - m, -1, -1):
            row = poly[w]
            for K in range(1, (n - w) // m + 1):
                target = poly[w + m * K]
                shift = K * r
                for y, v in enumerate(row):
                    if v:
                        target[(y + shift) % mod] += a[K] * v
    return poly[n][0]


def random_labels(ctx: QContext, n: int, count: int, *, seed=None) -> list[MultiPartition]:
    """Sample labels of weight n that descend to PGL, by rejection.

    Not uniform, but covers strata; the same seed gives the same labels.
    Useful where full enumeration is out of the desk-scale envelope.
    """
    import random  # loaded on use: the commands do not pay for it
    even_n(n)
    int_arg("count", count)
    rng = random.Random(seed)
    out: list[MultiPartition] = []
    while len(out) < count:
        entries: dict[tuple[int, int], Partition] = {}
        remaining = n
        while remaining:  # a break leaves remaining > 0: the draw is rejected
            m = rng.randint(1, remaining)
            level = ctx.q**m - 1
            for _ in range(64):
                a = rng.randrange(level)
                g = gcd(a, level)
                data = dualgroup.pair_orbit_data(ctx, a // g, level // g)
                if data.m == m:
                    break
            else:
                break
            rep = (data.num, data.den)
            if rep in entries:
                break
            k = rng.randint(1, remaining // m)
            entries[rep] = rng.choice(partitions_of(k))
            remaining -= m * k
        if remaining:
            continue
        mp = make_label(ctx, n, entries)
        if in_P_hat(mp):
            out.append(mp)
    return out
