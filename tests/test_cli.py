"""End-to-end command line flows on tiny synthetic problems."""

import json

import numpy as np
import pytest

from dysurv.cli import main

SYNTH = "200,3,0.3"
FAST = ["--hidden", "6", "--z-dim", "4", "--max-epochs", "3", "--n-bins", "6"]


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run("train", "--synth", SYNTH, "--out", str(out), *FAST) == 0
    return out


def test_synth_writes_loadable_csvs(tmp_path):
    assert run("synth", "--synth", "50,2,0.3", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "synthetic_manifest.json").read_text())
    assert (tmp_path / manifest["static_csv"]).exists()
    meta = json.loads((tmp_path / "run_meta_synth.json").read_text())
    assert meta["command"] == "synth"
    assert "synthetic_static.csv" in meta["artifacts"]
    header = (tmp_path / "synthetic_static.csv").read_text().splitlines()[0]
    assert header.startswith("id,x0,x1")


def test_prepare_exports_splits_and_grid(tmp_path):
    assert run("prepare", "--synth", SYNTH, "--out", str(tmp_path),
               "--n-bins", "6") == 0
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["n_bins"] == 6
    assert len(grid["boundaries"]) == 7
    assert grid["boundaries"][-1] == grid["t_max"]
    for stem, size in (("train", 120), ("val", 40), ("test", 40)):
        lines = (tmp_path / f"{stem}_static.csv").read_text().strip().splitlines()
        assert len(lines) == size + 1
    assert (tmp_path / "transform.json").exists()


def test_train_writes_checkpoint_and_history(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    history = (trained_dir / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_l1,train_l2,train_total,val_l1,val_l2,val_total"
    assert len(history) == 4  # three epochs
    meta = json.loads((trained_dir / "run_meta_train.json").read_text())
    assert meta["config"]["train_config"]["max_epochs"] == 3
    assert "checkpoint.bin" in meta["artifacts"]


def test_evaluate_writes_report(trained_dir, tmp_path):
    out = tmp_path
    assert run("evaluate", "--synth", SYNTH, "--out", str(out),
               "--checkpoint", str(trained_dir / "checkpoint.bin"),
               "--horizon", "5.0") == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert set(report) == {"c_td", "ibs", "inbll", "n_eval_times"}
    assert 0.0 <= report["c_td"] <= 1.0
    assert report["n_eval_times"] == 100
    horizon = json.loads((out / "horizon_report.json").read_text())
    assert set(horizon) == {"auroc", "auprc", "sensitivity", "horizon"}
    assert horizon["horizon"] == 5.0


def test_evaluate_is_replayable(trained_dir, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert run("evaluate", "--synth", SYNTH, "--out", str(out),
                   "--checkpoint", str(trained_dir / "checkpoint.bin")) == 0
        outs.append((out / "eval_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_multi_seed_evaluate(trained_dir, tmp_path):
    assert run("evaluate", "--synth", SYNTH, "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin"),
               "--seeds", "2") == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert len(report["per_seed"]) == 2
    assert not report["incomplete"]
    assert report["mean"]["c_td"] == pytest.approx(
        np.mean([row["c_td"] for row in report["per_seed"]]), abs=1e-12
    )


def test_predict_curves_shape(trained_dir, tmp_path):
    assert run("predict", "--synth", "5,3,0.3", "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin")) == 0
    lines = (tmp_path / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "id,time,survival"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5 * 101
    ids = {r[0] for r in rows}
    assert len(ids) == 5
    by_id = {}
    for sid, t, s in rows:
        by_id.setdefault(sid, []).append((float(t), float(s)))
    for series in by_id.values():
        assert series[0][0] == 0.0 and series[0][1] == 1.0
        values = [s for _, s in series]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_importance_command(trained_dir, tmp_path):
    assert run("importance", "--synth", SYNTH, "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin"),
               "--n-repeats", "1") == 0
    payload = json.loads((tmp_path / "importance.json").read_text())
    names = [row["feature"] for row in payload["ranking"]]
    assert sorted(names) == ["x0", "x1", "x2"]
    drops = [row["mean_c_td_drop"] for row in payload["ranking"]]
    assert drops == sorted(drops, reverse=True)


def test_gradcheck_command(tmp_path, capsys):
    assert run("gradcheck", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "gradcheck.json").read_text())
    assert payload["max_rel_error"] < payload["threshold"]
    assert "max relative gradient error" in capsys.readouterr().out


def test_missing_checkpoint_reports_error_code(tmp_path, capsys):
    code = run("evaluate", "--synth", SYNTH, "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_NO_CHECKPOINT:")


def test_config_errors(tmp_path, capsys):
    assert run("train", "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err
    assert run("synth", "--synth", "nope", "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err
    assert run("train", "--synth", SYNTH, "--manifest", "x.json",
               "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err
