"""The serving path must not pay for scipy.

scipy costs over a second to import and only the offline baselines,
survival analysis and drift tests need it, so they import it inside the
functions that use it.  Each entry point is imported in a fresh
interpreter, since this test process may already hold scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "module", ["repro", "repro.harness", "repro.fleet", "repro.cli"]
)
def test_entry_point_imports_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
