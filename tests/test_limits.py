"""The README's table of capacity limits against errors.LIMITS, the one home,
the readers of each limit, and the message of a refusal."""

import re
from pathlib import Path

import pytest

from pglchar.errors import LIMITS, CapacityError, check_limit

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "pglchar"
ROW = re.compile(r"^\| `([A-Z_]+)` \| ([^|]+) \|")
# A limit is read by name: check_limit("NAME", ...) or LIMITS["NAME"].
READ = re.compile(r'(?:check_limit\(|LIMITS\[)\s*"([A-Z_]+)"')


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


def test_every_limit_is_read_by_the_package():
    # A limit whose last reader is gone bounds nothing: it leaves LIMITS too.
    read = set()
    for path in sorted(SOURCE.glob("*.py")):
        read.update(READ.findall(path.read_text(encoding="utf-8")))
    assert sorted(set(LIMITS) - read) == []
    assert sorted(read - set(LIMITS)) == []


@pytest.mark.parametrize(
    "value,shown",
    [
        (10**30 - 1, str(10**30 - 1)),  # 30 digits: printed in full, as before
        (10**30, "more than 10^29"),
        (2**1000, "more than 10^301"),  # 2^1000 is about 1.07 * 10^301
        (3**(362 * 362), "more than 10^62523"),  # 62,524 digits
    ],
    ids=["30 digits", "31 digits", "2^1000", "3^(362^2)"],
)
def test_a_refusal_prints_a_long_value_as_a_power_of_ten_bound(value, shown):
    with pytest.raises(CapacityError) as info:
        check_limit("LABEL_BUDGET", value, "labels")
    assert str(info.value) == f"labels: {shown} exceeds LABEL_BUDGET = 250000"
