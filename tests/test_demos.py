"""Every demo and the README tour run end to end: scores, Jacobians, GD
training and sampling."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import readme_tour

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", ["01_scores_and_jacobians.py", "02_training_convergence.py",
                                  "03_reverse_sampling.py"])
def test_demo_exits_0(demo):
    run_python([str(ROOT / "demos" / demo)])


def test_readme_tour_exits_0():
    run_python(["-c", readme_tour()])
