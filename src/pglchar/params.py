"""Sigma-stable multi-partition labels with trivial norm product.

A label assigns a nonempty partition to finitely many sigma-orbits of the
dual group so that the orbit sizes weighted by partition sizes sum to n.
Labels parametrize both the irreducible characters (rho-labels) and the
basic characters (nu-labels); the subset with trivial norm product consists
of exactly those that descend from GL_n to PGL_n.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from . import dualgroup
from .dualgroup import OrbitData, QContext
from .errors import check_limit
from .partitions import Partition, partitions_of


class LabelShape:
    """What the formulas read from a label besides its partitions.

    sizes are the block sizes in entry order; pi is the norm product Pi and
    half the product of N(xi)^(|nu_xi|/2) (None when some block size is odd),
    both as residues mod q - 1.  Phi is computed on first use.  All of them
    depend only on the orbits and the block sizes, so labels that share
    both may share one LabelShape.  Code that reads a label's shape more
    than once builds it once, with MultiPartition.shape(), and passes it on.
    """

    __slots__ = ("sizes", "pi", "half", "_ctx", "_entries", "_phi")

    def __init__(self, ctx: QContext, entries: tuple[tuple[OrbitData, Partition], ...]):
        q1 = ctx.q - 1
        sizes = []
        total = 0
        even = True
        for data, part in entries:
            size = part.size()
            sizes.append(size)
            total += size * data.r
            even = even and size % 2 == 0
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
            self._phi = dualgroup.phi_from_orbits(
                self._ctx,
                [(data.rep, data, size) for (data, _), size in zip(self._entries, self.sizes)],
            )
        return self._phi


@dataclass(frozen=True, slots=True)
class MultiPartition:
    """Mapping from sigma-orbits to nonempty partitions.

    Each entry pairs the OrbitData of an orbit (its canonical representative
    rep, size m, norm residue r and sign d) with the orbit's partition.
    Entries are stored sorted by (denominator, numerator) of rep, which
    fixes the text form and the enumeration order.  Instances are built
    through make_label()/parse_label(), which validate canonicality and the
    weight condition sum m_xi * |nu_xi| = n.
    """

    ctx: QContext
    n: int
    entries: tuple[tuple[OrbitData, Partition], ...]

    def shape(self) -> LabelShape:
        """A new LabelShape of this label; the label keeps none."""
        return LabelShape(self.ctx, self.entries)

    def block_sizes(self) -> dict[Fraction, int]:
        return {data.rep: part.size() for data, part in self.entries}

    def text(self) -> str:
        return " + ".join(
            f"{dualgroup.format_fraction(data.rep)}:{part}" for data, part in self.entries
        )

    def __str__(self) -> str:
        return self.text()


def make_label(ctx: QContext, n: int, entries) -> MultiPartition:
    """Build a validated label; keys are canonicalized to orbit representatives.

    entries may be a mapping or an iterable of (dual element, partition) pairs;
    dual elements may be Fractions or ``a/b`` strings, partitions Partition
    instances or iterables of parts.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if isinstance(entries, Mapping):
        pairs: Iterable = entries.items()
    else:
        pairs = entries
    # Keyed by (denominator, numerator) of the representative: the entry order.
    canon: dict[tuple[int, int], tuple[OrbitData, Partition]] = {}
    for xi, part in pairs:
        if isinstance(xi, str):
            xi = dualgroup.parse_fraction(xi)
        data = dualgroup.orbit_data(ctx, xi, n)
        if data is None:
            xi = dualgroup.format_fraction(dualgroup.as_dual(ctx, xi))
            raise ValueError(f"the sigma-orbit of {xi} is longer than n = {n}")
        part = part if isinstance(part, Partition) else Partition(part)
        if not part:
            raise ValueError("label blocks must be nonempty partitions")
        key = (data.rep.denominator, data.rep.numerator)
        if key in canon:
            raise ValueError(
                f"duplicate orbit key {dualgroup.format_fraction(data.rep)} after canonicalization"
            )
        canon[key] = (data, part)
    ordered = tuple(canon[key] for key in sorted(canon))
    weight = sum(data.m * part.size() for data, part in ordered)
    if weight != n:
        raise ValueError(f"label weight {weight} does not match n = {n}")
    return MultiPartition(ctx, n, ordered)


def pi(mp: MultiPartition) -> Fraction:
    """The norm product Pi, written additively: sum of |nu_xi| * N(xi) mod 1."""
    return Fraction(mp.shape().pi, mp.ctx.q - 1)


def in_P_hat(mp: MultiPartition) -> bool:
    """True iff the label descends to PGL, i.e. Pi is trivial."""
    return mp.shape().pi == 0


def half_norm_product(mp: MultiPartition) -> Optional[Fraction]:
    """Product of N(xi)^(|nu_xi|/2) when every block size is even, else None.

    For labels with trivial Pi the value is 0 (identity) or 1/2 (eta); the
    multiplicity formulas branch on exactly these three outcomes.
    """
    half = mp.shape().half
    return None if half is None else Fraction(half, mp.ctx.q - 1)


def phi(mp: MultiPartition) -> int:
    """The sign Phi of the label (requires trivial Pi and all m_xi |nu_xi| even)."""
    return mp.shape().phi()


def parse_label(ctx: QContext, n: int, text: str) -> MultiPartition:
    """Parse the label grammar: entries ``frac:partition`` joined by ``+``.

    Example: ``0/1:[2,1] + 1/2:[1]``.  Keys are canonicalized; duplicates
    after canonicalization and weight mismatches are rejected.
    """
    chunks = [c.strip() for c in text.split("+")]
    if any(not c for c in chunks):
        raise ValueError(f"empty label entry in {text!r}")
    pairs = []
    for chunk in chunks:
        frac_text, sep, part_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"label entry {chunk!r} is missing ':'")
        pairs.append((dualgroup.parse_fraction(frac_text), Partition.parse(part_text)))
    return make_label(ctx, n, pairs)


def enumerate_labels(ctx: QContext, n: int, restrict_to_P_hat: bool = True) -> list[MultiPartition]:
    """All labels of weight n, once each, in a fixed deterministic order.

    Orbits are taken sorted by representative; per orbit, block sizes run
    from large to small, partitions of a fixed size in reverse-lexicographic
    order, and "no block" last.  Depth-first composition of those choices
    yields the emission order, so the label {1:[n]} (trivial character when
    restricted) always comes first.  The norm product Pi is carried down the
    search as a residue mod q - 1, so a leaf is kept or dropped without
    building its label.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    orbits = dualgroup.orbits_up_to(ctx, n)
    q1 = ctx.q - 1
    # fits[r]: indices of the orbits with m <= r, in representative order.
    fits = [[i for i, data in enumerate(orbits) if data.m <= r] for r in range(n + 1)]
    parts_of = [partitions_of(k) for k in range(n + 1)]
    out: list[MultiPartition] = []
    acc: list[tuple[OrbitData, Partition]] = []

    def rec(start: int, remaining: int, norm: int) -> None:
        if remaining == 0:
            if not restrict_to_P_hat or norm == 0:
                check_limit("LABEL_BUDGET", len(out) + 1, "labels kept")
                out.append(MultiPartition(ctx, n, tuple(acc)))
            return
        candidates = fits[remaining]
        for i in candidates[bisect_left(candidates, start) :]:
            data = orbits[i]
            for k in range(remaining // data.m, 0, -1):
                child_norm = (norm + k * data.r) % q1
                for part in parts_of[k]:
                    acc.append((data, part))
                    rec(i + 1, remaining - data.m * k, child_norm)
                    acc.pop()

    try:
        rec(0, n, 0)
    finally:
        # rec refers to itself; break that cycle so the search state is freed now.
        del rec
    return out


def random_labels(
    ctx: QContext,
    n: int,
    count: int,
    *,
    restrict_to_P_hat: bool = True,
    seed=None,
    rng: Optional[random.Random] = None,
) -> list[MultiPartition]:
    """Sample labels of weight n by rejection; not uniform, but covers strata.

    Useful where full enumeration is out of the desk-scale envelope.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if rng is None:
        rng = random.Random(seed)
    out: list[MultiPartition] = []
    while len(out) < count:
        entries: dict[Fraction, Partition] = {}
        remaining = n
        ok = True
        while remaining:
            m = rng.randint(1, remaining)
            level = ctx.q**m - 1
            for _ in range(64):
                data = dualgroup.orbit_data(ctx, Fraction(rng.randrange(level), level))
                if data.m == m:
                    break
            else:
                ok = False
                break
            rep = data.rep
            if rep in entries:
                ok = False
                break
            k = rng.randint(1, remaining // m)
            parts = partitions_of(k)
            entries[rep] = parts[rng.randrange(len(parts))]
            remaining -= m * k
        if not ok:
            continue
        mp = make_label(ctx, n, entries)
        if restrict_to_P_hat and not in_P_hat(mp):
            continue
        out.append(mp)
    return out
