"""Integer partitions and the statistics consumed by the multiplicity formulas.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is allowed and has size 0.  Everything here is exact integer
arithmetic and independent of q.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Callable, Iterable, NamedTuple, TypeVar

from .errors import check_limit, int_arg, parse_int


class LengthStats(NamedTuple):
    """Cycle-length counts: total, even, odd, and the mod-4 split of the evens."""

    ell: int
    ell0: int
    ell1: int
    ell0mod4: int
    ell2mod4: int


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        for x in parts:  # a part that is not an int (True, 2.9, "3") is reported first
            if type(x) is not int:
                raise ValueError(f"partition parts must be integers, got {x!r}")
        prev = parts[0] if parts else 1
        for x in parts:
            if x < 1:
                raise ValueError(f"partition parts must be positive, got {x}")
            if prev < x:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
            prev = x
        return super().__new__(cls, parts)

    def size(self) -> int:
        return sum(self)

    def transpose(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return Partition(cols)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for part in self:
            out[part] = out.get(part, 0) + 1
        return out

    def is_even(self) -> bool:
        """True iff every part is even (vacuously true for the empty partition)."""
        return all(part % 2 == 0 for part in self)

    def length_stats(self) -> LengthStats:
        ell0mod4 = sum(1 for p in self if p % 4 == 0)
        ell2mod4 = sum(1 for p in self if p % 4 == 2)
        ell1 = sum(1 for p in self if p % 2 == 1)
        return LengthStats(len(self), ell0mod4 + ell2mod4, ell1, ell0mod4, ell2mod4)

    def sign(self) -> int:
        """Sign of a permutation of this cycle type: (-1)^(number of even parts)."""
        return -1 if self.length_stats().ell0 % 2 else 1

    def __str__(self) -> str:  # memoised per partition for the life of the process
        return _text(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @staticmethod
    @lru_cache(maxsize=None)
    def parse(text: str) -> "Partition":
        """Parse the text form ``[3,1,1]``; the empty partition is ``[]``.

        Between the brackets, parts are separated by commas; each part is a
        number as errors.parse_int reads it, so an empty part is refused.
        The result is memoised per text for the life of the process; a
        malformed text raises on every call and is not stored.
        """
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"partition must look like [a,b,...], got {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return Partition()
        try:
            return Partition([parse_int(part) for part in inner.split(",")])
        except ValueError as exc:
            raise ValueError(f"cannot parse partition {text!r}: {exc}") from None


@lru_cache(maxsize=None)
def _text(p: Partition) -> str:
    return "[" + ",".join(map(str, p)) + "]"


T = TypeVar("T")


def memo_per_partition(fn: Callable[[Partition], T]) -> Callable[..., T]:
    """Memoise fn(nu) per partition, for the life of the process.

    A Partition argument is the key as it is; anything else is built into a
    Partition first, which validates it.  The wrapper's cache_clear() and
    cache_info() are those of the memo.
    """
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(nu) -> T:
        return cached(nu if isinstance(nu, Partition) else Partition(nu))

    wrapper.cache_clear = cached.cache_clear
    wrapper.cache_info = cached.cache_info
    return wrapper


@lru_cache(maxsize=None)
def _partitions_of(m: int, cap: int) -> tuple[Partition, ...]:
    if m == 0:
        return (Partition(),)
    out = []
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions_of(m - first, first):
            out.append(Partition((first,) + tuple(rest)))
    return tuple(out)


def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of m, in reverse-lexicographic order: (m) first, (1^m) last."""
    if int_arg("m", m) < 0:
        raise ValueError("m must be nonnegative")
    check_limit("PARTITIONS_OF_BOUND", m, "partitions_of m")
    return _partitions_of(m, m if m else 1)
