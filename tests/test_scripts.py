"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_synthetic_experiment_runs_and_prints_its_table():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--n", "400", "--seeds", "2"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = done.stdout.split("test-split means", 1)[1].splitlines()
    for model in ("DySurv (tuned)", "alpha=1 baseline", "Bayes oracle"):
        assert any(line.strip().startswith(model) for line in table), model
