"""The benchmark's tracer names pglchar functions by string; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"pglchar.{module}")
        for attr in path:
            assert hasattr(owner, attr), target
            owner = getattr(owner, attr)
        assert callable(owner), target
