"""Smoke test: every script in demos/ runs to completion and prints its verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> a line its output must contain (the verdict, not the witness)
VERDICT_LINES = {
    "certify_planted.py": "certifier: OPTIMAL at LP radius",
    "non_resilience_certificate.py": "certifier verdict: NOT_2PR at LP radius 1",
    "outlier_tree_dp.py": "outlier LP certifier: OPTIMAL at radius",
    "perturbation_playground.py": "falsifier on a fragile line instance: not-resilient",
    "sigma_sweep.py": "empirical transition to full agreement",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(VERDICT_LINES)


@pytest.mark.parametrize("script", sorted(VERDICT_LINES))
def test_demo_runs_and_prints_its_verdict(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert VERDICT_LINES[script] in proc.stdout
