"""The README's table of capacity limits against errors.LIMITS, the one home."""

import re
from pathlib import Path

from pglchar.errors import LIMITS

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `([A-Z_]+)` \| ([^|]+) \|")


def _value(text):
    """An integer written as 2^40 or 2,000,000."""
    text = text.strip()
    if "^" in text:
        base, exponent = text.split("^")
        return int(base) ** int(exponent)
    return int(text.replace(",", ""))


def _readme_limits():
    table = {}
    for line in README.read_text().splitlines():
        match = ROW.match(line)
        if match:
            table[match.group(1)] = _value(match.group(2))
    return table


def test_value_parsing():
    assert _value("2^40") == 1 << 40
    assert _value("2,000,000") == 2_000_000
    assert _value(" 9 ") == 9


def test_readme_limits_table_matches_limits():
    assert _readme_limits() == LIMITS
