"""The CLI's bytes: each command's stdout, stderr and exit code, pinned by digest.

Every case runs cli.main in-process with COLUMNS=80, so argparse wraps its
help at 80 columns.  transcript.json maps each command line to the sha256 of
json.dumps([stdout, stderr, exit code]).  The hand-listed cases also run as
``python -m pglchar.cli`` processes, which end by os._exit once main returns,
and must give the same digests.  The cases are --help for the top
level and each command, argparse's errors, the refusals (exit 2 and 3),
small answers in the three formats, a grid of decompositions, given
labels, cross-checks, identities, orders, forms and double cosets, and the
benchmark's json answers.  Each runs in under 0.1 s, except forms and
dcosets at (3,4), which are marked slow.

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
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from pglchar.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "transcript.json"
SRC = Path(__file__).resolve().parent.parent / "src"

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
# Without --tier, cross-check gives the bytes of --tier slow, at every n.
ANSWERS.append(["cross-check", "--q", "3", "--n", "4"])

# The byte-identity grid: every subgroup, format and row option of decompose at
# seven sizes, each label at (3,4) given alone, three-route cross-checks, the
# identities, orders, forms and every subgroup pair of dcosets; a case already
# listed is not repeated.
GRID_SIZES = ((3, 2), (5, 2), (3, 4), (5, 4), (9, 4), (3, 6), (27, 2))
GRID_OPTIONS = ([], ["--include-zeros"], ["--no-degrees"], ["--unipotent-only"],
                ["--unipotent-only", "--include-zeros", "--no-degrees"])
SUBGROUPS = ("pgsp", "pgo+", "pgo-")
ORDERS_SIZES = (("3", "4"), ("5", "6"), ("9", "8"), ("27", "6"))
FORMS_SIZES = (("5", "2"), ("7", "2"), ("3", "4"))
DCOSETS = tuple(
    (q, n, h1, h2)
    for q, n in (("3", "2"), ("5", "2"))
    for i, h1 in enumerate(SUBGROUPS)
    for h2 in SUBGROUPS[i:]
) + (("3", "4", "pgo+", "pgo-"),)
# The benchmark's answers in json: every identity size up to the bound (9 in
# every format), the larger cross-checks and the decompositions at (5,6),
# (3,8) and (7,6).
LARGE_GRID = [
    *(["verify-identities", "--max-size", str(size), "--format", "json"] for size in range(1, 10)),
    *(["verify-identities", "--max-size", "9", "--format", fmt] for fmt in ("table", "csv")),
    *(["cross-check", "--q", q, "--n", n, "--format", "json"]
      for q, n in (("3", "8"), ("5", "6"), ("7", "4"), ("9", "4"), ("27", "2"))),
    ["decompose", "--q", "7", "--n", "6", "--subgroup", "pgo+", "--format", "json"],
    *(["decompose", "--q", q, "--n", n, "--subgroup", subgroup, "--format", "json"]
      for q, n in (("5", "6"), ("3", "8"))
      for subgroup in SUBGROUPS),
]
# The commands that take over 0.1 s: the PGL action on forms at (3,4).  Each
# LARGE_GRID case takes under 0.08 s in-process.
SLOW = (["forms", "--q", "3", "--n", "4"], ["dcosets", "--q", "3", "--n", "4"])


def _grid() -> list[list[str]]:
    from pglchar import params
    from pglchar.errors import q_context
    grid = [
        ["decompose", "--q", str(q), "--n", str(n), "--subgroup", subgroup, *options,
         "--format", fmt]
        for q, n in GRID_SIZES
        for subgroup in SUBGROUPS
        for options in GRID_OPTIONS
        for fmt in FORMATS
    ]
    grid += [
        ["decompose", "--q", "3", "--n", "4", "--subgroup", subgroup, "--label", label.text()]
        for label in params.enumerate_labels(q_context(3), 4)
        for subgroup in SUBGROUPS
    ]
    grid += [
        [*argv, "--format", fmt]
        for argv in (
            *(["cross-check", "--q", q, "--n", n, "--tier", "slow"]
              for q, n in (("3", "4"), ("5", "4"), ("3", "6"))),
            ["verify-identities", "--max-size", "5"],
            *(["orders", "--q", q, "--n", n] for q, n in ORDERS_SIZES),
            *(["forms", "--q", q, "--n", n] for q, n in FORMS_SIZES),
            *(["dcosets", "--q", q, "--n", n, "--h1", h1, "--h2", h2] for q, n, h1, h2 in DCOSETS),
        )
        for fmt in FORMATS
    ]
    grid += LARGE_GRID
    listed = {key(argv) for argv in HELP + ARGPARSE_ERRORS + REFUSALS + ANSWERS}
    unique = []
    for argv in grid:
        if key(argv) not in listed:
            listed.add(key(argv))
            unique.append(argv)
    return unique


def key(argv: list[str]) -> str:
    return shlex.join(["pglchar", *argv])


CASES = HELP + ARGPARSE_ERRORS + REFUSALS + ANSWERS + _grid()


def case(argv: list[str]):
    """argv as a pytest parameter, marked slow if it starts as a SLOW command does."""
    slow = any(argv[: len(prefix)] == prefix for prefix in SLOW)
    return pytest.param(argv, id=key(argv), marks=pytest.mark.slow if slow else ())


def in_process(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of main(argv) at COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's help and its errors
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def digest(argv: list[str]) -> str:
    """sha256 of json.dumps([stdout, stderr, exit code]) of main(argv) at COLUMNS=80."""
    return hashlib.sha256(json.dumps(in_process(argv)).encode("utf-8")).hexdigest()


def python(*args: str, stdout=subprocess.PIPE, shell=None, **env: str) -> tuple[str, str, int]:
    """stdout ("" if not captured), stderr and exit code of python args in a fresh
    interpreter with src on the path, COLUMNS=80, buffered stdout (PYTHONUNBUFFERED
    empty) and env.  shell, if given, is an sh script that execs "$0" "$@", the
    interpreter and args, with its redirections."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, *args]
    result = subprocess.run(
        command if shell is None else ["sh", "-c", shell, *command],
        env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80", "PYTHONUNBUFFERED": "", **env},
        stdout=stdout,
        stderr=subprocess.PIPE,
    )
    return (result.stdout or b"").decode(), result.stderr.decode(), result.returncode


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_the_transcript_covers_every_case_once(pinned):
    keys = [key(argv) for argv in CASES]
    assert len(set(keys)) == len(keys)
    assert sorted(pinned) == sorted(keys)


@pytest.mark.parametrize("argv", [case(argv) for argv in CASES])
def test_the_output_is_byte_identical(pinned, argv):
    assert digest(argv) == pinned[key(argv)]


# The hand-listed cases as processes: one per exit code (0, 2, 3) and --help
# in the fast tier, the rest slow.
PROCESS_CASES = HELP + ARGPARSE_ERRORS + REFUSALS + ANSWERS
FAST_PROCESSES = (
    ["--help"],
    ["orders", "--q", "3", "--n", "2", "--format", "json"],
    ["orders", "--q", "4", "--n", "2"],
    ["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp", "--format", "json"],
)


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=key(argv), marks=() if argv in FAST_PROCESSES else pytest.mark.slow)
    for argv in PROCESS_CASES
])
def test_a_process_gives_the_pinned_bytes(pinned, argv):
    text = json.dumps(python("-m", "pglchar.cli", *argv))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned[key(argv)]


# 391 kB of json, more than a pipe holds: the flush before os._exit must write it all.
LARGE = ["decompose", "--q", "5", "--n", "6", "--subgroup", "pgo+", "--include-zeros",
         "--format", "json"]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "file"])
def test_a_large_answer_is_written_whole_before_the_process_ends(tmp_path, to_file, unbuffered):
    if to_file:
        with open(tmp_path / "out", "wb") as sink:
            _, err, code = python("-m", "pglchar.cli", *LARGE, stdout=sink,
                                  PYTHONUNBUFFERED=unbuffered)
        out = (tmp_path / "out").read_text(encoding="utf-8")
    else:
        out, err, code = python("-m", "pglchar.cli", *LARGE, PYTHONUNBUFFERED=unbuffered)
    expected = in_process(LARGE)
    assert len(expected[0]) > 300_000
    assert (out, err, code) == expected


# Runs the CLI as `-m` does, with each PGO step's factors replaced by FAULT,
# an expression in d, m, part and real, the true step.
FAULTY_CHILD = """\
import runpy, sys
from pglchar import formulas
real = formulas._pgo_step
formulas._pgo_step = lambda d, m, part: {fault}
runpy.run_module("pglchar.cli", run_name="__main__", alter_sys=True)
"""
# (argv, fault, stderr): decompose refuses before it writes; cross-check writes
# its table first, which the flush before os._exit must not lose.
FAULTS = [
    (["decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+"], "(-4, 2, 0)",
     "invariant violation: negative mult_pgo_irr(0/1:[4], -1) = -2\n"),
    (["cross-check", "--q", "3", "--n", "4"], "tuple(2 * x for x in real(d, m, part))",
     "invariant violation: 43 route mismatches\n"),
]


@pytest.mark.parametrize("argv,fault,err", FAULTS, ids=[argv[0] for argv, _, _ in FAULTS])
def test_an_invariant_violation_exits_4_from_a_process(monkeypatch, fresh_route_tables,
                                                       argv, fault, err):
    from pglchar import formulas
    child = python("-c", FAULTY_CHILD.format(fault=fault), *argv)
    monkeypatch.setattr(formulas, "_pgo_step",
                        eval(f"lambda d, m, part: {fault}", {"real": formulas._pgo_step}))
    expected = in_process(argv)
    assert expected[1:] == (err, 4)
    assert child == expected


# fd 2 closed at start, so sys.stderr is None, or open read-only, so a write
# to it fails with EBADF: the message is dropped and the code stays.
UNWRITABLE_STDERR = {"closed": 'exec "$0" "$@" 2>&-', "read-only": 'exec "$0" "$@" 2</dev/null'}
REFUSED = [
    (["orders", "--q", "4", "--n", "2"], None),  # exit 2
    (["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp", "--format", "json"], None),  # 3
    *((argv, fault) for argv, fault, _ in FAULTS),  # 4
]


@pytest.mark.parametrize("stderr", UNWRITABLE_STDERR)
@pytest.mark.parametrize("argv,fault", REFUSED, ids=[key(argv) for argv, _ in REFUSED])
def test_an_unwritable_stderr_drops_the_message_and_keeps_the_code(
        monkeypatch, fresh_route_tables, stderr, argv, fault):
    from pglchar import formulas
    args = ["-m", "pglchar.cli"] if fault is None else ["-c", FAULTY_CHILD.format(fault=fault)]
    child = python(*args, *argv, shell=UNWRITABLE_STDERR[stderr])
    if fault is not None:
        monkeypatch.setattr(formulas, "_pgo_step",
                            eval(f"lambda d, m, part: {fault}", {"real": formulas._pgo_step}))
    out, err, code = in_process(argv)
    assert err and code in (2, 3, 4)
    assert child == (out, "", code)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["orders", "--q", "3", "--n", "2"], LARGE], ids=["small", "large"])
def test_a_full_stdout_exits_74_with_one_line(unbuffered, argv):
    with open("/dev/full", "wb") as full:
        result = python("-m", "pglchar.cli", *argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert result == ("", "error: cannot write the output: No space left on device\n", 74)


if __name__ == "__main__":
    digests = {key(argv): digest(argv) for argv in CASES}
    TRANSCRIPT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
