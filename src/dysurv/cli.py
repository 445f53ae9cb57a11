"""Command-line surface: reproducible runs from data to reports.

Every command writes its artifacts plus a ``run_meta_<command>.json``
holding the resolved configuration, seeds, and sha256 of each artifact,
which is enough to replay the run bit for bit, plus the run's wall time
and the python, numpy and dysurv versions. Module errors exit 1 with
a single ``E_CODE: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SurvivalDataset,
    apply_quantile_transform,
    build_time_grid,
    fit_quantile_transform,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    split_dataset,
)
from .errors import ConfigError, DySurvError, NumericalError
from .metrics import (
    EVAL_TIMES,
    concordance_td,
    evaluate_all,
    horizon_binary_metrics,
    horizon_labels,
    permutation_importance,
)
from .model import ModelConfig
from .pipeline import DEFAULT_BINS, Predictor, prepare_splits
from .training import (
    TrainConfig,
    fit,
    gradient_check,
    grid_search,
    load_checkpoint,
    multi_seed_report,
    save_checkpoint,
)

GRADCHECK_THRESHOLD = 1e-5
CURVE_POINTS = 101


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_meta(args, out: Path, config: dict, artifacts: list[Path]) -> Path:
    meta = {
        "command": args.command,
        "config": config,
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
        "wall_s": time.perf_counter() - args.started,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "dysurv": __version__,
        },
    }
    return _write_json(out / f"run_meta_{args.command}.json", meta)


def _dataset_files(manifest_path: Path) -> list[Path]:
    """The manifest ``save_dataset_csv`` wrote and the CSVs it names."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    csvs = [manifest[key] for key in ("static_csv", "series_csv") if key in manifest]
    return [manifest_path] + [manifest_path.parent / name for name in csvs]


def _parse_synth(spec: str) -> tuple[int, int, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--synth wants 'n,m,censor_frac', got '{spec}'")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"--synth wants 'n,m,censor_frac', got '{spec}'") from None


def _load_dataset(args) -> SurvivalDataset:
    manifest = getattr(args, "manifest", None)
    synth = getattr(args, "synth", None)
    if (manifest is None) == (synth is None):
        raise ConfigError("exactly one data source is required: --manifest or --synth")
    if manifest is not None:
        return load_csv(manifest)
    n, m, frac = _parse_synth(synth)
    return generate_synthetic(n, m, frac, seed=args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checkpoint_path(args, out: Path) -> Path:
    if getattr(args, "checkpoint", None):
        return Path(args.checkpoint)
    return out / "checkpoint.bin"


def _model_config(args) -> ModelConfig:
    return ModelConfig(hidden_size=args.hidden, z_dim=args.z_dim)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        alpha=args.alpha,
        dropout_keep=args.dropout_keep,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args)
    n, m, frac = _parse_synth(args.synth)
    ds = generate_synthetic(n, m, frac, seed=args.seed)
    manifest_path = save_dataset_csv(ds, out, stem="synthetic")
    artifacts = _dataset_files(manifest_path)
    config = {"n": n, "m_features": m, "censor_frac": frac, "seed": args.seed}
    artifacts.append(_write_meta(args, out, config, artifacts))
    print(f"wrote {len(ds)} subjects to {manifest_path}")
    return 0


def cmd_prepare(args) -> int:
    out = _out_dir(args)
    ds = _load_dataset(args)
    train_ds, val_ds, test_ds = split_dataset(ds, args.seed)
    transform = fit_quantile_transform(train_ds)
    grid = build_time_grid(train_ds.durations(), args.n_bins)
    artifacts: list[Path] = []
    for name, split in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        transformed = apply_quantile_transform(transform, split)
        artifacts += _dataset_files(save_dataset_csv(transformed, out, stem=name))
    artifacts.append(_write_json(out / "grid.json", {
        "n_bins": grid.n_bins,
        "t_max": grid.t_max,
        "boundaries": list(grid.boundaries),
    }))
    artifacts.append(_write_json(out / "transform.json", transform.canonical()))
    config = {"seed": args.seed, "n_bins": args.n_bins,
              "sizes": {"train": len(train_ds), "val": len(val_ds), "test": len(test_ds)}}
    artifacts.append(_write_meta(args, out, config, artifacts))
    print(f"prepared splits of {len(ds)} subjects into {out}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    ds = _load_dataset(args)
    prep = prepare_splits(ds, args.seed, n_bins=args.n_bins)
    model_config = _model_config(args)
    base = _train_config(args)
    artifacts: list[Path] = []
    grid_result = None
    config = base
    if args.grid:
        grid_result = grid_search(prep.train, prep.val, base=base, model_config=model_config)
        config = grid_result.best_config
        artifacts.append(_write_json(out / "grid.json", grid_result.to_json_dict()))
    params, history = fit(prep.train, prep.val, config, model_config=model_config)
    ckpt_path = out / "checkpoint.bin"
    save_checkpoint(
        ckpt_path, params,
        schema=prep.schema, grid=prep.grid, train_config=config, transform=prep.transform,
        grid_search=grid_result,
    )
    artifacts.append(ckpt_path)
    history.to_csv(out / "history.csv")
    artifacts.append(out / "history.csv")
    meta_config = {
        "seed": args.seed,
        "train_config": asdict(config),
        "model_config": asdict(model_config),
        "grid": bool(args.grid),
        "n_bins": args.n_bins,
    }
    artifacts.append(_write_meta(args, out, meta_config, artifacts))
    print(
        f"trained to epoch {history.best_epoch} "
        f"(val loss {history.best_val_total():.6f}); checkpoint at {ckpt_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    out = _out_dir(args)
    ds = _load_dataset(args)
    ckpt = load_checkpoint(_checkpoint_path(args, out), expected_schema=ds.schema)
    _, _, test_ds = split_dataset(ds, args.seed)
    if args.horizon is not None:  # a bad horizon fails before any file is written
        labels, include = horizon_labels(test_ds.durations(), test_ds.events(), args.horizon)
    artifacts: list[Path] = []
    curves = None
    if args.seeds > 1:
        if ckpt.train_config is None:
            raise ConfigError("multi-seed evaluation needs a checkpoint with a train config")
        prep = prepare_splits(
            ds, args.seed, n_bins=ckpt.grid.n_bins,
            condition_mode=ckpt.params.condition_mode,
        )
        report = multi_seed_report(
            prep.train, prep.val, prep.test, prep.grid, ckpt.train_config,
            seeds=tuple(range(args.seeds)), model_config=ckpt.model_config,
        )
        payload = report.to_json_dict()
        summary = payload["mean"]
    else:
        curves = Predictor.from_checkpoint(ckpt).curves(test_ds)
        report = evaluate_all(curves, test_ds.durations(), test_ds.events())
        payload = report.to_json_dict()
        summary = payload
    horizon_report = None
    if args.horizon is not None:  # an undefined horizon metric fails before any write too
        if curves is None:
            curves = Predictor.from_checkpoint(ckpt).curves(test_ds)
        risks = 1.0 - curves.at(args.horizon)
        horizon_report = horizon_binary_metrics(risks[include], labels, args.horizon)
    artifacts.append(_write_json(out / "eval_report.json", payload))
    if horizon_report is not None:
        artifacts.append(_write_json(out / "horizon_report.json", horizon_report.to_json_dict()))
    config = {"seed": args.seed, "seeds": args.seeds, "horizon": args.horizon,
              "n_eval_times": EVAL_TIMES}
    artifacts.append(_write_meta(args, out, config, artifacts))
    if summary is not None:
        print(
            f"c_td {summary['c_td']:.4f}  ibs {summary['ibs']:.4f}  "
            f"inbll {summary['inbll']:.4f}  (test n={len(test_ds)})"
        )
    else:
        print("every seed failed; see eval_report.json")
    return 0


def cmd_predict(args) -> int:
    out = _out_dir(args)
    ds = _load_dataset(args)
    ckpt = load_checkpoint(_checkpoint_path(args, out), expected_schema=ds.schema)
    predictor = Predictor.from_checkpoint(ckpt)
    curves = predictor.curves(ds)
    times = np.linspace(0.0, ckpt.grid.t_max, CURVE_POINTS)
    columns = np.stack([curves.at(t) for t in times], axis=1)
    path = out / "curves.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "time", "survival"])
        for record, row in zip(ds.records, columns):
            writer.writerows(
                [record.id, repr(float(t)), repr(float(s))] for t, s in zip(times, row)
            )
    config = {"subjects": len(ds), "points": CURVE_POINTS, "t_max": ckpt.grid.t_max}
    _write_meta(args, out, config, [path])
    print(f"wrote {len(ds)} curves ({CURVE_POINTS} points each) to {path}")
    return 0


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    worst = gradient_check(seed=args.seed)
    elapsed = time.perf_counter() - started
    payload = {
        "max_rel_error": worst,
        "threshold": GRADCHECK_THRESHOLD,
        "seconds": round(elapsed, 3),
        "seed": args.seed,
    }
    if args.out:
        out = _out_dir(args)
        path = _write_json(out / "gradcheck.json", payload)
        _write_meta(args, out, {"seed": args.seed}, [path])
    print(f"max relative gradient error {worst:.3e} in {elapsed:.2f}s")
    if worst >= GRADCHECK_THRESHOLD:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} >= {GRADCHECK_THRESHOLD}"
        )
    return 0


def cmd_importance(args) -> int:
    out = _out_dir(args)
    ds = _load_dataset(args)
    ckpt = load_checkpoint(_checkpoint_path(args, out), expected_schema=ds.schema)
    predictor = Predictor.from_checkpoint(ckpt)
    _, _, test_ds = split_dataset(ds, args.seed)
    baseline = concordance_td(
        predictor.curves(test_ds), test_ds.durations(), test_ds.events()
    )
    ranking = permutation_importance(
        predictor.curves, test_ds, n_repeats=args.n_repeats, seed=args.seed, baseline=baseline
    )
    payload = {
        "baseline_c_td": baseline,
        "n_repeats": args.n_repeats,
        "seed": args.seed,
        "ranking": [{"feature": name, "mean_c_td_drop": drop} for name, drop in ranking],
    }
    path = _write_json(out / "importance.json", payload)
    _write_meta(args, out, {"seed": args.seed, "n_repeats": args.n_repeats}, [path])
    top = ranking[0][0] if ranking else "none"
    print(f"baseline c_td {baseline:.4f}; most important feature: {top}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", help="manifest JSON describing the input CSVs")
    p.add_argument("--synth", help="generate data on the fly: 'n,m,censor_frac'")


def _add_common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (generation, split, training)")
    p.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysurv",
        description="Discrete-time survival estimation with a conditional VAE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic benchmark as CSVs")
    p.add_argument("--synth", required=True, help="'n,m,censor_frac'")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="split, transform, and export the splits")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--n-bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="fit the model, optionally after a grid search")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--grid", action="store_true", help="sweep the default hyperparameter grid")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--dropout-keep", type=float, default=0.9)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--z-dim", type=int, default=16)
    p.add_argument("--n-bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the test split with a trained checkpoint")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p.add_argument("--seeds", type=int, default=1,
                   help="refit and evaluate this many seeds, reporting the mean")
    p.add_argument("--horizon", type=float, default=None,
                   help="also report AUROC/AUPRC/sensitivity at this time")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="export per-subject survival curves as CSV")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optionally write gradcheck.json here")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("importance", help="permutation feature importance on the test split")
    _add_data_flags(p)
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p.add_argument("--n-repeats", type=int, default=5)
    p.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except DySurvError as err:
        print(f"{err.code}: {err.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
