"""The CLI's bytes: each command's stdout, stderr and exit code, pinned by digest.

Every case runs cli.main in-process with COLUMNS=80, so argparse wraps its
help at 80 columns.  transcript.json maps each command line to the sha256 of
json.dumps([stdout, stderr, exit code]).  The cases are --help for the top
level and each command, argparse's errors, the refusals (exit 2 and 3) and
small answers in the three formats; each runs in well under 50 ms.

argparse's help and error text can change between Python versions; the
digests were written with Python 3.11.  A change that means to alter the
output rewrites the file with ``PYTHONPATH=src python3 tests/test_transcript.py``
and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from pglchar.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "transcript.json"

COMMANDS = ("decompose", "verify-identities", "cross-check", "orders", "dcosets", "forms")
FORMATS = ("table", "csv", "json")

HELP = [["--help"]] + [[command, "--help"] for command in COMMANDS]

ARGPARSE_ERRORS = [
    [],
    ["frobnicate"],
    ["orders", "--q", "3"],
    ["orders", "--n", "2"],
    ["orders", "--q", "x", "--n", "2"],
    ["orders", "--q", "3", "--n", "3"],
    ["orders", "--q", "3", "--n", "abc"],
    ["orders", "--q", "3", "--n", "0"],
    ["orders", "--q", "3", "--n", "-2"],
    ["orders", "--q", "3", "--n", "2", "--format", "xml"],
    ["cross-check", "--q", "3", "--n", "2", "--tier", "x"],
    ["verify-identities"],
    ["verify-identities", "--max-size", "a"],
    ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp"],
    ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0/1:[2]",
     "--unipotent-only"],
]

REFUSALS = [
    # exit 3: beyond a capacity limit
    ["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp", "--format", "json"],
    ["decompose", "--q", "9", "--n", "8", "--subgroup", "pgsp", "--format", "json"],
    ["decompose", "--q", "27", "--n", "6", "--subgroup", "pgo-", "--format", "json"],
    ["cross-check", "--q", "3", "--n", "10", "--tier", "slow", "--format", "json"],
    ["cross-check", "--q", "3", "--n", "4"],
    ["dcosets", "--q", "5", "--n", "4", "--h1", "pgo+", "--h2", "pgo+", "--format", "json"],
    ["verify-identities", "--max-size", "10"],
    # exit 2: a value that no command takes
    ["orders", "--q", "4", "--n", "2"],
    ["orders", "--q", "15", "--n", "2"],
    ["verify-identities", "--max-size", "0"],
    ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgx"],
    ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "sp"],
    ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "1/2:[3]"],
    ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "1/8:[1]"],
    ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", "--label", "1/2:[1] + 3/2:[1]"],
]

ANSWERS = [
    [*argv, "--format", fmt]
    for argv in (
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp"],
        ["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+"],
        ["decompose", "--q", "5", "--n", "2", "--subgroup", "pgo-", "--include-zeros",
         "--no-degrees"],
        ["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo-", "--unipotent-only",
         "--include-zeros"],
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", "--label", "1/2:[2]"],
        ["decompose", "--q", "9", "--n", "2", "--subgroup", "pgsp", "--include-zeros"],
        ["cross-check", "--q", "3", "--n", "2"],
        ["cross-check", "--q", "3", "--n", "4", "--tier", "slow"],
        ["verify-identities", "--max-size", "3"],
        ["orders", "--q", "3", "--n", "2"],
        ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgo+"],
        ["forms", "--q", "3", "--n", "2"],
    )
    for fmt in FORMATS
]

CASES = HELP + ARGPARSE_ERRORS + REFUSALS + ANSWERS


def key(argv: list[str]) -> str:
    return shlex.join(["pglchar", *argv])


def digest(argv: list[str]) -> str:
    """sha256 of json.dumps([stdout, stderr, exit code]) of main(argv) at COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's help and its errors
            code = exc.code
    text = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_the_transcript_covers_every_case_once(pinned):
    keys = [key(argv) for argv in CASES]
    assert len(set(keys)) == len(keys)
    assert sorted(pinned) == sorted(keys)


@pytest.mark.parametrize("argv", CASES, ids=key)
def test_the_output_is_byte_identical(pinned, argv):
    assert digest(argv) == pinned[key(argv)]


if __name__ == "__main__":
    digests = {key(argv): digest(argv) for argv in CASES}
    TRANSCRIPT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
