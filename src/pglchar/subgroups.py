"""The three subgroups H of PGL_n whose Ind(1) is decomposed: PGSp_n, PGO_n^+, PGO_n^-.

Kept apart from formulas, which re-exports Subgroup, so the CLI reads a
subgroup's name without loading the work.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class Subgroup(Enum):
    PGSP = "pgsp"
    PGO_PLUS = "pgo+"
    PGO_MINUS = "pgo-"

    @property
    def eps(self) -> Optional[int]:
        if self is Subgroup.PGO_PLUS:
            return 1
        if self is Subgroup.PGO_MINUS:
            return -1
        return None

    @classmethod
    def parse(cls, text) -> "Subgroup":
        """A member unchanged, or the member a name reads as, stripped and lower-cased."""
        if isinstance(text, cls):
            return text
        try:
            return cls(text.strip().lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown subgroup {text!r}; {EXPECTED}") from None


# The names in Subgroup order, and how an argument error lists them.
NAMES = tuple(member.value for member in Subgroup)
EXPECTED = f"expected {', '.join(NAMES[:-1])} or {NAMES[-1]}"
