"""End-to-end demo on synthetic data: generate, tune, refit across seeds,
compare against the non-VAE baseline and the Bayes-optimal oracle, then
rank features by permutation importance. Everything prints to stdout.

Usage:
    python3 scripts/run_synthetic_experiment.py [--n 4000] [--seed 7]
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from dysurv.data import generate_synthetic, split_dataset
from dysurv.metrics import SurvivalCurves, TimeGrid, concordance_td, permutation_importance
from dysurv.model import ModelConfig
from dysurv.pipeline import Predictor, prepare_splits
from dysurv.training import GridSearchSpace, TrainConfig, fit, grid_search, multi_seed_report


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4000, help="number of subjects")
    ap.add_argument("--features", type=int, default=5)
    ap.add_argument("--censor-frac", type=float, default=0.37)
    ap.add_argument("--seed", type=int, default=7, help="generator seed")
    ap.add_argument("--split-seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=3, help="refit seeds to average")
    return ap.parse_args()


def oracle_concordance(ds, prep):
    """Concordance of the true hazards on the test split, the ceiling any
    fitted model can reach."""
    truth = ds.truth
    idx = [int(sid[1:]) for sid in prep.test_ids]
    probs = np.concatenate(
        [truth.pmf[idx], truth.survive_beyond[idx][:, None]], axis=1
    )
    grid = TimeGrid(truth.n_bins, float(truth.n_bins))
    curves = SurvivalCurves.from_bin_probs(probs, grid)
    return concordance_td(curves, prep.test.durations, prep.test.events)


def main():
    args = parse_args()
    t0 = time.perf_counter()

    print(f"generating {args.n} subjects, {args.features} features, "
          f"target censoring {args.censor_frac:.2f}")
    ds = generate_synthetic(args.n, args.features, args.censor_frac, seed=args.seed)
    censored = 1.0 - np.mean(ds.events())
    print(f"  realized censoring fraction {censored:.3f}")

    prep = prepare_splits(ds, args.split_seed, n_bins=args.bins)
    print(f"  split sizes train/val/test = {len(prep.train)}/{len(prep.val)}/{len(prep.test)}")
    print(f"  time grid: {prep.grid.n_bins} bins over [0, {prep.grid.t_max:g}]")

    model = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,))
    space = GridSearchSpace(
        learning_rates=(1e-2, 1e-3),
        batch_sizes=(256,),
        alphas=(0.5, 0.8),
        dropout_keeps=(0.9,),
    )
    base = TrainConfig(max_epochs=8, patience=2, seed=0)
    print(f"\nscreening {len(space.configs(base))} configurations at {base.max_epochs} epochs each")
    result = grid_search(prep.train, prep.val, space, base=base, model_config=model)
    for trial in sorted(
        (t for t in result.leaderboard if t.status == "ok"), key=lambda t: t.val_l1
    ):
        c = trial.config
        print(f"  lr={c.learning_rate:<7g} alpha={c.alpha} keep={c.dropout_keep}"
              f"  val NLL {trial.val_l1:.4f}  (epoch {trial.best_epoch}/{trial.n_epochs})")
    tuned = replace(result.best_config, max_epochs=60, patience=6)
    print(f"tuned: lr={tuned.learning_rate:g} batch={tuned.batch_size} "
          f"alpha={tuned.alpha} keep={tuned.dropout_keep}")

    seeds = tuple(range(args.seeds))
    print(f"\nrefitting tuned model on seeds {seeds}")
    tuned_rep = multi_seed_report(
        prep.train, prep.val, prep.test, prep.grid, tuned, seeds, model_config=model
    )
    baseline_cfg = replace(tuned, alpha=1.0)
    print("refitting alpha=1 deterministic baseline on the same seeds")
    base_rep = multi_seed_report(
        prep.train, prep.val, prep.test, prep.grid, baseline_cfg, seeds, model_config=model
    )
    oracle_ctd = oracle_concordance(ds, prep)

    print("\ntest-split means")
    header = f"  {'model':<22}{'c_td':>8}{'IBS':>8}{'INBLL':>8}{'val NLL':>10}"
    print(header)
    for name, rep in (("DySurv (tuned)", tuned_rep), ("alpha=1 baseline", base_rep)):
        m = rep.mean
        print(f"  {name:<22}{m.c_td:>8.4f}{m.ibs:>8.4f}{m.inbll:>8.4f}"
              f"{rep.mean_val_nll:>10.4f}")
    print(f"  {'Bayes oracle':<22}{oracle_ctd:>8.4f}")

    print("\npermutation importance (tuned config, seed 0, test split)")
    params, _ = fit(prep.train, prep.val, tuned, model_config=model)
    predictor = Predictor(
        params=params, schema=prep.schema, grid=prep.grid, transform=prep.transform,
    )
    _, _, test_ds = split_dataset(ds, args.split_seed)
    for feat, drop in permutation_importance(predictor.curves, test_ds, n_repeats=2):
        print(f"  {feat:<12} c_td drop {drop:+.4f}")

    print(f"\ndone in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
