"""The benchmark's tracer names pglchar functions by string; each must exist.

The benchmark also pins the stdout of each command it runs by sha256 in
perfbench/reference.json; the same commands run here in-process, so that a
drift in output fails the tests and not only the benchmark.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from pglchar import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load(TRACER)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"pglchar.{module}")
        for attr in path:
            assert hasattr(owner, attr), target
            owner = getattr(owner, attr)
        assert callable(owner), target


WORKLOADS = _load(PERFBENCH / "workloads.py")
RECORDED = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
REFERENCE = RECORDED["commands"]
REFUSALS = {WORKLOADS.command_key(argv) for argvs in WORKLOADS.REFUSALS.values() for argv in argvs}
# Over 0.5 s in-process.
SLOW = {
    "decompose --q 7 --n 6 --subgroup pgo+ --format json",
}


def _reference_cases():
    for command in sorted(REFERENCE):
        marks = [pytest.mark.slow] if command in SLOW else []
        yield pytest.param(command, marks=marks, id=command)


@pytest.mark.parametrize("command", _reference_cases())
def test_reference_command_output_is_byte_identical(capsys, command):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == (3 if command in REFUSALS else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[command]


def test_canary_queries_match_the_reference_in_process(tmp_path):
    """The benchmark's query child answers the canary labels with the recorded digests."""
    query_child = _load(PERFBENCH / "query_child.py")
    digests = RECORDED["queries"]
    canary = WORKLOADS.generate_queries(WORKLOADS.CANARY_SEED, WORKLOADS.CANARY_QUERIES)
    assert WORKLOADS.queries_digest(canary) == digests["canary_inputs"]
    in_path, out_path = tmp_path / "queries-in.json", tmp_path / "queries-out.txt"
    in_path.write_text(json.dumps({"canary": canary, "timed": []}), encoding="utf-8")
    assert query_child.main([str(in_path), str(out_path)]) == 0
    answers = out_path.read_text(encoding="utf-8").splitlines()[: len(canary)]
    assert WORKLOADS.sha256("\n".join(answers).encode()) == digests["canary_outputs"]
    for query, line in zip(canary, answers, strict=True):
        assert WORKLOADS.check_query(query, line) == []
