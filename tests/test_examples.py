"""Every script under ``examples/`` runs to completion.

The examples are the only non-test callers of some public entry points
(``MPILNetwork.delete``, ``UniformRandomLatency``, building a
``RejoinAdjustedAvailability`` and a ``ProbedViewOracle`` by hand), so
running them is what keeps those paths exercised the way a user calls
them.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
