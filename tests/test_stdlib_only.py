"""pyproject.toml declares no dependencies: the package runs on the stdlib alone."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pglchar

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_module_imports_without_site_packages():
    names = [f"pglchar.{info.name}" for info in pkgutil.iter_modules(pglchar.__path__)]
    assert "pglchar.cli" in names and "pglchar.involutions" in names
    # -S skips the site module, so no site-packages directory is on sys.path.
    code = "import importlib, sys\nfor name in sys.argv[1:]: importlib.import_module(name)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *names],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
