"""The package root re-exports nothing, so each module must import on its own.

Each check runs a fresh interpreter with ``PYTHONPATH=src``: in this process
the other test modules have already loaded every ``revdiv`` module.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# every module of the package, so that one added later is checked too
MODULES = sorted(p.stem for p in (SRC / "revdiv").glob("*.py") if p.stem != "__init__")


def _run(code: str) -> str:
    # -S runs no site hook (a .pth file may import modules), so only the
    # code under test loads anything
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_root_loads_no_module():
    out = _run(
        "import json, sys, revdiv; print(json.dumps([revdiv.__file__, "
        "sorted(m for m in sys.modules if m.startswith('revdiv.'))]))"
    )
    path, loaded = json.loads(out)
    assert Path(path).resolve().parent == SRC / "revdiv"
    assert loaded == []


def test_costs_loads_no_other_module():
    # the closed forms stand without the synthesis stack
    out = _run(
        "import json, sys, revdiv.costs; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('revdiv.'))))"
    )
    assert json.loads(out) == ["revdiv.costs"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    _run(f"import revdiv.{module}")
