"""The runtime needs NumPy alone: SciPy is a test-only dependency.

Each case runs in a fresh interpreter whose import system refuses every
``scipy`` module, then checks that the run succeeded and that no ``scipy``
module was loaded.  An optimize run reaches every SPEA2 selection kernel
(distances, density, dominance, truncation) plus the bound repair and the
checkpoint writer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Installed before the payload runs: any ``import scipy...`` raises.
BLOCK_SCIPY = """
import importlib.abc
import sys


class _RefuseSciPy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} must not be imported at run time")
        return None


sys.meta_path.insert(0, _RefuseSciPy())
"""

ASSERT_NO_SCIPY = """
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""

OPTIMIZE = """
from repro.cli import main

code = main([
    "optimize", "--distribution", "normal", "--categories", "6",
    "--records", "2000", "--delta", "0.8", "--generations", "3",
    "--population", "8", "--seed", "1",
    "--checkpoint", "ck.json", "--checkpoint-every", "1",
])
assert code == 0, code
"""

def _run_without_scipy(payload: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + payload + ASSERT_NO_SCIPY],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("payload", [OPTIMIZE], ids=["optimize"])
def test_runs_without_scipy(payload, tmp_path):
    completed = _run_without_scipy(payload, tmp_path)
    assert completed.returncode == 0, completed.stderr


def test_the_blocker_refuses_scipy(tmp_path):
    # Guards the guard: a payload that imports SciPy must fail.
    completed = _run_without_scipy("import scipy.spatial\n", tmp_path)
    assert completed.returncode != 0
    assert "must not be imported at run time" in completed.stderr
