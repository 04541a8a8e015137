"""Each demo script runs to completion on small arguments."""
import pathlib
import subprocess
import sys

import pytest
from test_cli import checkout_env

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script,args",
    [
        ("torsion_convergence.py", ["--levels", "2"]),
        ("annulus_oracles.py", ["--n-cells", "1024"]),
    ],
)
def test_demo_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)] + args, capture_output=True, text=True, env=checkout_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
