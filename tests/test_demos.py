"""Each walk-through under demos/ runs to completion against the package.

Demo 06 is left out: it runs the full `run_experiment` pipeline, which
tests/test_evalcli.py already covers at smaller sizes.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = [
    "01_alignment_lattice.py",
    "02_gradient_certification.py",
    "03_synthetic_domain_shift.py",
    "04_train_decode_score.py",
    "05_text_only_adaptation.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
