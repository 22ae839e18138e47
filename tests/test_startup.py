"""Each CLI command loads only the modules it runs, and never dataclasses or inspect.

A refusal that needs only the arguments loads none of the work's modules.
The q rule and the orbit estimate are in errors, so no command that lists no
orbit loads pglchar.dualgroup, and verify-identities loads no label code.

Every command runs as ``python -m pglchar.cli`` does, in a fresh interpreter
started with -S (so no site-packages hook loads anything), and reports the
modules loaded when it ends, by os._exit or by SystemExit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI as `-m` does.  When it ends, by os._exit or by SystemExit, it
# writes "modules: " and sys.modules as the last line of stderr.
CHILD = """\
import os, runpy, sys
def report():
    sys.stderr.write("\\nmodules: " + " ".join(sorted(sys.modules)) + "\\n")
    sys.stderr.flush()
def exit_after_report(code, exit=os._exit):
    report()
    exit(code)
os._exit = exit_after_report
sys.argv[0] = "pglchar"
try:
    runpy.run_module("pglchar.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    report()
    raise
"""


def loaded_modules(*argv: str, code: int = 0) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == code, result.stderr
    last = result.stderr.splitlines()[-1]
    assert last.startswith("modules: "), result.stderr
    return set(last.removeprefix("modules: ").split())


NEVER = {"dataclasses", "inspect"}
WORK = {f"pglchar.{name}" for name in ("formulas", "symchar", "involutions", "formorbits")}
FRACTIONS = {"fractions", "decimal"}
DUAL = "pglchar.dualgroup"

# (argv, modules it must not load)
CASES = [
    (
        ["orders", "--q", "3", "--n", "2"],
        WORK | FRACTIONS | {"pglchar.params", "pglchar.partitions", "pglchar.subgroups", DUAL},
    ),
    (
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--format", "json"],
        {"pglchar.symchar", "pglchar.involutions", "pglchar.formorbits"},
    ),
    (
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--format", "csv"],
        {"pglchar.symchar", "pglchar.involutions", "pglchar.formorbits"},
    ),
    (
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--no-degrees"],
        {"pglchar.oracle", "pglchar.symchar", "pglchar.involutions", "pglchar.formorbits"},
    ),
    (
        ["verify-identities", "--max-size", "2"],
        {"pglchar.formulas", "pglchar.formorbits", "pglchar.params", DUAL},
    ),
    (["cross-check", "--q", "3", "--n", "2"], {"pglchar.formorbits", "pglchar.oracle"}),
    (["forms", "--q", "3", "--n", "2"], {"pglchar.formulas", "pglchar.involutions", DUAL}),
    (
        ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgo+"],
        {"pglchar.formulas", "pglchar.involutions", "pglchar.params", DUAL},
    ),
]


@pytest.mark.parametrize("argv,absent", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_a_command_loads_only_what_it_runs(argv, absent):
    modules = loaded_modules(*argv)
    assert modules & (NEVER | absent) == set()
    # csv is loaded for --format csv only.
    assert ("csv" in modules) == ("csv" in argv)


# (argv, exit code) refused on the arguments alone: the orbit budget,
# ZINV_SIZE_BOUND, and a size below 1.
REFUSED = [
    (["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp"], 3),
    (["decompose", "--q", "9", "--n", "8", "--subgroup", "pgsp"], 3),
    (["decompose", "--q", "27", "--n", "6", "--subgroup", "pgo-"], 3),
    (["cross-check", "--q", "3", "--n", "10", "--tier", "slow"], 3),
    (["verify-identities", "--max-size", "10"], 3),
    (["verify-identities", "--max-size", "0"], 2),
]
UNLOADED = WORK | {f"pglchar.{name}" for name in ("params", "partitions", "oracle", "dualgroup")}


@pytest.mark.parametrize("argv,code", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED])
def test_a_refusal_on_the_arguments_loads_no_work(argv, code):
    assert loaded_modules(*argv, code=code) & (NEVER | UNLOADED) == set()


# (argv, exit code) refused on the FORM_ACTION_BUDGET charge that oracle makes
# before it loads formorbits, where the matrix work is.
CHARGED = [
    (["dcosets", "--q", "5", "--n", "4", "--h1", "pgo+", "--h2", "pgo+"], 3),
    (["forms", "--q", "5", "--n", "4"], 3),
]


@pytest.mark.parametrize("argv,code", CHARGED, ids=[" ".join(argv) for argv, _ in CHARGED])
def test_a_refusal_on_the_oracle_charge_loads_no_formorbits(argv, code):
    modules = loaded_modules(*argv, code=code)
    assert "pglchar.oracle" in modules
    assert modules & (NEVER | {"pglchar.formorbits", DUAL}) == set()


def test_importing_the_package_loads_no_module_of_it():
    code = "import sys, pglchar; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    modules = set(result.stdout.split())
    assert {m for m in modules if m.startswith("pglchar")} == {"pglchar"}
    assert modules & NEVER == set()
