"""End-to-end command line flows on tiny synthetic problems."""

import csv
import json
import platform
from dataclasses import replace

import numpy as np
import pytest

import dysurv
from dysurv.cli import main
from dysurv.data import SurvivalDataset, generate_synthetic, save_dataset_csv
from dysurv.pipeline import Predictor
from test_training import _rewritten

SYNTH = "200,3,0.3"
FAST = ["--hidden", "6", "--z-dim", "4", "--max-epochs", "3", "--n-bins", "6"]


def run(*argv):
    return main(list(argv))


def assert_meta_timed_and_versioned(meta):
    assert isinstance(meta["wall_s"], float) and meta["wall_s"] > 0.0
    assert meta["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dysurv": dysurv.__version__,
    }


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
    assert_meta_timed_and_versioned(meta)
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


def test_run_meta_lists_only_the_files_the_run_wrote(tmp_path):
    # runs on a series dataset leave *_series.csv behind; static runs reuse the directory
    out = tmp_path
    ds = generate_synthetic(100, 2, 0.3, seed=0)
    records = [replace(r, series=np.ones((1, 1)), series_mask=np.ones((1, 1), dtype=bool))
               for r in ds.records]
    schema = replace(ds.schema, time_varying=["hr"])
    manifest = save_dataset_csv(SurvivalDataset(schema, records), out, stem="synthetic")
    assert run("prepare", "--manifest", str(manifest), "--out", str(out)) == 0
    assert (out / "synthetic_series.csv").exists() and (out / "train_series.csv").exists()
    assert run("prepare", "--synth", SYNTH, "--out", str(out)) == 0
    assert run("synth", "--synth", SYNTH, "--out", str(out)) == 0
    for command in ("prepare", "synth"):
        listed = json.loads((out / f"run_meta_{command}.json").read_text())["artifacts"]
        assert listed and not [name for name in listed if name.endswith("_series.csv")]


def test_train_writes_checkpoint_and_history(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    history = (trained_dir / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_l1,train_l2,train_total,val_l1,val_l2,val_total"
    assert len(history) == 4  # three epochs
    meta = json.loads((trained_dir / "run_meta_train.json").read_text())
    assert meta["config"]["train_config"]["max_epochs"] == 3
    assert "checkpoint.bin" in meta["artifacts"]
    assert_meta_timed_and_versioned(meta)


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


def test_predict_quotes_an_id_with_a_comma(trained_dir, tmp_path):
    ds = generate_synthetic(5, 3, 0.3, seed=0)
    ds = SurvivalDataset(ds.schema, [replace(r, id=f"{r.id},q") for r in ds.records])
    manifest = save_dataset_csv(ds, tmp_path / "data", stem="commas")
    out = tmp_path / "out"
    assert run("predict", "--manifest", str(manifest), "--out", str(out),
               "--checkpoint", str(trained_dir / "checkpoint.bin")) == 0
    with open(out / "curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "time", "survival"]
    assert len(rows) == 1 + 5 * 101
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1::101]] == [r.id for r in ds.records]
    assert all(float(row[1]) == 0.0 and float(row[2]) == 1.0 for row in rows[1::101])


def test_importance_command(trained_dir, tmp_path):
    assert run("importance", "--synth", SYNTH, "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin"),
               "--n-repeats", "1") == 0
    payload = json.loads((tmp_path / "importance.json").read_text())
    names = [row["feature"] for row in payload["ranking"]]
    assert sorted(names) == ["x0", "x1", "x2"]
    drops = [row["mean_c_td_drop"] for row in payload["ranking"]]
    assert drops == sorted(drops, reverse=True)


def test_importance_predicts_the_unpermuted_split_once(trained_dir, tmp_path, monkeypatch):
    calls = []
    curves = Predictor.curves

    def counted(self, ds):
        calls.append(len(ds))
        return curves(self, ds)

    monkeypatch.setattr(Predictor, "curves", counted)
    assert run("importance", "--synth", SYNTH, "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin"),
               "--n-repeats", "2") == 0
    assert len(calls) == 1 + 3 * 2


def test_gradcheck_command(tmp_path, capsys):
    assert run("gradcheck", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "gradcheck.json").read_text())
    assert payload["max_rel_error"] < payload["threshold"]
    assert "max relative gradient error" in capsys.readouterr().out


def test_missing_checkpoint_reports_error_code(tmp_path, capsys):
    out = tmp_path / "ev"
    for command in ("evaluate", "importance", "predict"):
        assert run(command, "--synth", SYNTH, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("E_NO_CHECKPOINT:")
        assert not out.exists()  # a refused run leaves no --out behind


def test_config_errors(tmp_path, capsys):
    assert run("train", "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err
    assert run("synth", "--synth", "nope", "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err
    assert run("train", "--synth", SYNTH, "--manifest", "x.json",
               "--out", str(tmp_path)) == 1
    assert "E_CONFIG" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["nan", "inf", "0"])
def test_unusable_horizon_is_a_domain_error(trained_dir, tmp_path, capsys, horizon):
    code = run("evaluate", "--synth", SYNTH, "--out", str(tmp_path),
               "--checkpoint", str(trained_dir / "checkpoint.bin"), "--horizon", horizon)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_DOMAIN: horizon must be finite and positive")
    assert err.count("\n") == 1


def test_unusable_horizon_writes_no_report(trained_dir, tmp_path):
    out = tmp_path / "ev"
    code = run("evaluate", "--synth", SYNTH, "--out", str(out),
               "--checkpoint", str(trained_dir / "checkpoint.bin"), "--horizon", "nan")
    assert code == 1
    assert not (out / "eval_report.json").exists()
    assert not (out / "horizon_report.json").exists()


def test_undefined_horizon_metric_writes_no_report(trained_dir, tmp_path, capsys):
    # a horizon before every test event leaves no positive label
    out = tmp_path / "ev"
    code = run("evaluate", "--synth", SYNTH, "--out", str(out),
               "--checkpoint", str(trained_dir / "checkpoint.bin"), "--horizon", "0.000001")
    assert code == 1
    assert capsys.readouterr().err.startswith("E_METRIC_UNDEFINED:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_evaluate_refuses_fewer_than_one_seed(trained_dir, tmp_path, capsys, seeds):
    out = tmp_path / "ev"
    code = run("evaluate", "--synth", SYNTH, "--out", str(out),
               "--checkpoint", str(trained_dir / "checkpoint.bin"), "--seeds", seeds)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG: --seeds")
    assert err.count("\n") == 1
    assert not out.exists()


def test_multi_seed_evaluate_refuses_a_mistyped_train_config(trained_dir, tmp_path, capsys):
    def fractional_batch(header):
        header["train_config"]["batch_size"] = 64.5
        return header

    damaged = tmp_path / "checkpoint.bin"
    damaged.write_bytes(_rewritten((trained_dir / "checkpoint.bin").read_bytes(), fractional_batch))
    out = tmp_path / "ev"
    code = run("evaluate", "--synth", SYNTH, "--out", str(out), "--checkpoint", str(damaged),
               "--seeds", "2")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CORRUPT:") and "batch_size" in err
    assert err.count("\n") == 1
    assert not (out / "eval_report.json").exists()


@pytest.fixture(scope="module")
def leak_run(tmp_path_factory):
    """The 3000-subject synthetic manifest and a checkpoint trained on its
    split of --seed 0."""
    root = tmp_path_factory.mktemp("leak")
    assert run("synth", "--synth", "3000,5,0.37", "--seed", "7", "--out", str(root)) == 0
    manifest = root / "synthetic_manifest.json"
    assert run("train", "--manifest", str(manifest), "--seed", "0", "--out", str(root / "train"),
               *FAST[:4], "--max-epochs", "1") == 0
    return manifest, root / "train" / "checkpoint.bin"


@pytest.mark.parametrize("argv", [["evaluate"], ["evaluate", "--seeds", "2"], ["importance"]],
                         ids=["evaluate", "multi_seed", "importance"])
def test_scoring_another_split_than_the_trained_one_is_refused(leak_run, tmp_path, capsys, argv):
    # --seed 1 puts training subjects of the --seed 0 checkpoint into the test split
    manifest, ckpt = leak_run
    out = tmp_path / "ev"
    code = run(*argv, "--manifest", str(manifest), "--seed", "1", "--out", str(out),
               "--checkpoint", str(ckpt))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG: the checkpoint was trained on the split of --seed 0;")
    assert err.count("\n") == 1
    assert not out.exists()


def test_the_trained_split_and_an_unrecorded_split_are_scored(leak_run, tmp_path):
    manifest, ckpt = leak_run
    assert run("evaluate", "--manifest", str(manifest), "--seed", "0", "--out", str(tmp_path / "a"),
               "--checkpoint", str(ckpt)) == 0
    assert (tmp_path / "a" / "eval_report.json").exists()
    unrecorded = tmp_path / "unrecorded.bin"
    unrecorded.write_bytes(_rewritten(ckpt.read_bytes(), lambda header: {**header, "split": None}))
    assert run("evaluate", "--manifest", str(manifest), "--seed", "1", "--out", str(tmp_path / "b"),
               "--checkpoint", str(unrecorded)) == 0
    assert (tmp_path / "b" / "eval_report.json").exists()


@pytest.mark.parametrize("bad", ["static.csv", "series.csv", "manifest.json"])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, bad):
    files = {
        "static.csv": b"id,age,duration,event\na,61.0,3.5,1\nb,48.0,7.0,0\n",
        "series.csv": b"id,t,feat,val\na,0,hr,80\nb,0,hr,72\n",
        "manifest.json": json.dumps({
            "static_csv": "static.csv", "duration_col": "duration", "event_col": "event",
            "series_csv": "series.csv", "time_col": "t", "feature_col": "feat",
            "value_col": "val",
        }).encode("utf-8"),
    }
    files[bad] = files[bad].replace(b"a", b"\xe9", 1)  # a Latin-1 e-acute
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    code = run("evaluate", "--manifest", str(tmp_path / "manifest.json"),
               "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_PARSE:")
    assert bad in err
    assert err.count("\n") == 1
