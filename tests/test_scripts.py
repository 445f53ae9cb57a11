"""The scripts under scripts/ run end to end on small inputs."""

import json
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


def test_parity_finds_the_tree_identical_to_itself(tmp_path):
    # every flow twice in fresh processes: C7's determinism across processes
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), "--parent", str(ROOT),
         "--size", "small", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].endswith("artifacts identical, 0 commands failed")
    artifacts = lines[:-1]
    assert len(artifacts) > 40
    assert all(line.startswith("identical") for line in artifacts), done.stdout
    for name in ("train_grid/grid.json", "evaluate/horizon_report.json",
                 "cohort_predict/curves.csv", "one_predict/curves.csv",
                 "days_importance/importance.json",
                 "cohort_prepare/train_series.csv",
                 "stdout/evaluate.txt"):
        assert any(line.endswith(name) for line in artifacts), name


def test_parity_reports_a_changed_artifact(tmp_path):
    # a run record differs only in its wall time and work directory
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import parity
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    mine, theirs = tmp_path / "a", tmp_path / "b"
    for d, wall, value in ((mine, 1.0, "x"), (theirs, 2.0, "y")):
        (d / "run").mkdir(parents=True)
        (d / "run" / "run_meta_train.json").write_text(
            json.dumps({"wall_s": wall, "out": str(d / "run")}))
        (d / "run" / "report.json").write_text(value)
    (theirs / "run" / "extra.csv").write_text("")
    lines = parity.compare(mine, theirs)
    assert lines == [
        "only in parent     run/extra.csv",
        "DIFFERS            run/report.json",
        "identical          run/run_meta_train.json",
    ]
