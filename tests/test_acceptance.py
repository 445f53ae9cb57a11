"""Acceptance gate. Each criterion prints one verdict line directly to the
console (bypassing capture) and then asserts, so a plain pytest run shows

    [ACCEPT] C1 gradient fidelity: PASS (...)

for every criterion. C4 and C5 share one full-scale training session; C6
runs only when a SUPPORT-shaped manifest is supplied (env var
DYSURV_SUPPORT_MANIFEST or tests/data/support_manifest.json)."""

import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dysurv.cli import main as cli_main
from dysurv.data import TimeGrid, generate_synthetic, load_csv
from dysurv.metrics import (
    SurvivalCurves,
    brier_ipcw,
    concordance_td,
    integrated_bll,
    integrated_brier,
    km_estimator,
)
from dysurv.model import ModelConfig, predict_risk_batch
from dysurv.pipeline import prepare_splits
from dysurv.training import (
    TrainConfig,
    gradient_check,
    grid_search,
    multi_seed_report,
)
from oracles import (
    constant_curves,
    naive_brier,
    naive_concordance,
    naive_km_value,
    random_instance,
)


_capman = [None]


@pytest.fixture(autouse=True)
def _verdicts_reach_terminal(request):
    # pytest captures at the fd level, which swallows writes from passing
    # tests; verdict lines go out through the capture manager instead
    _capman[0] = request.config.pluginmanager.getplugin("capturemanager")


def _emit(line: str) -> None:
    capman = _capman[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def announce(cid: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPT] {cid}: {'PASS' if ok else 'FAIL'} ({detail})"
    _emit(line)
    assert ok, line


def announce_skip(cid: str, detail: str) -> None:
    _emit(f"[ACCEPT] {cid}: SKIP ({detail})")
    pytest.skip(detail)


# ---------------------------------------------------------------------------
# C1: gradient fidelity
# ---------------------------------------------------------------------------


def test_c1_gradient_fidelity():
    started = time.perf_counter()
    worst = gradient_check(seed=0)
    elapsed = time.perf_counter() - started
    announce(
        "C1 gradient fidelity",
        worst < 1e-5 and elapsed < 10.0,
        f"max rel error {worst:.2e} < 1e-5, {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# C2: metric oracles
# ---------------------------------------------------------------------------


def test_c2_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    km_exact = ctd_exact = True
    for _ in range(50):
        n = int(rng.integers(2, 201))
        durations = rng.integers(1, 15, size=n).astype(np.float64)
        events = rng.integers(0, 2, size=n)
        events[0] = 1
        km = km_estimator(durations, events)
        for t in (0.5, 3.0, 7.5, 14.0, 20.0):
            if km.at(t) != naive_km_value(durations, events, t):
                km_exact = False
            if km.left(t) != naive_km_value(durations, events, t, strict=True):
                km_exact = False
        _, _, curves = random_instance(rng, n)
        expected = naive_concordance(curves, durations, events)
        if expected is not None and concordance_td(curves, durations, events) != expected:
            ctd_exact = False

    durations, events, curves = random_instance(rng, 150)
    events[0] = 1
    fast_ibs = integrated_brier(curves, durations, events)
    t_max = durations.max()
    fine = np.linspace(t_max / 100, t_max, 10_000)
    censor = km_estimator(durations, 1 - events)
    scores = [brier_ipcw(curves, durations, events, t, censor) for t in fine]
    oracle_ibs = float(np.trapezoid(scores, fine) / (fine[-1] - fine[0]))
    ibs_gap = abs(fast_ibs - oracle_ibs)
    # spot-check the pointwise score against the from-scratch loop too
    spot_gap = max(
        abs(brier_ipcw(curves, durations, events, t) - naive_brier(curves, durations, events, t))
        for t in (1.0, 5.0, 9.0)
    )
    elapsed = time.perf_counter() - started
    announce(
        "C2 metric oracles",
        km_exact and ctd_exact and ibs_gap <= 1e-3 and spot_gap <= 1e-12 and elapsed < 60.0,
        f"KM exact={km_exact}, c_td exact={ctd_exact}, "
        f"IBS gap {ibs_gap:.2e} <= 1e-3, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# C3: analytic anchors
# ---------------------------------------------------------------------------


def test_c3_analytic_anchors():
    rng = np.random.default_rng(3)
    durations = rng.uniform(1.0, 9.0, 400)
    events = np.ones(400)
    half = constant_curves(0.5, 400, 10.0)
    ibs = integrated_brier(half, durations, events)
    nbll = integrated_bll(half, durations, events)
    c_td = concordance_td(half, durations, events)
    announce(
        "C3 analytic anchors",
        abs(ibs - 0.25) <= 1e-6 and abs(nbll - math.log(2.0)) <= 1e-6 and c_td == 0.5,
        f"IBS {ibs:.8f} = 0.25 +/- 1e-6, NBLL {nbll:.8f} = ln2 +/- 1e-6, c_td {c_td} = 0.5",
    )


# ---------------------------------------------------------------------------
# C4 + C5: full-scale synthetic recovery and ablation, one shared session
# ---------------------------------------------------------------------------

HEAVY_MODEL = ModelConfig(
    hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,)
)


@pytest.fixture(scope="session")
def heavy():
    started = time.perf_counter()
    ds = generate_synthetic(50_000, 5, 0.37, seed=7)
    prep = prepare_splits(ds, 0, n_bins=10)

    base = TrainConfig(max_epochs=6, patience=2, seed=0)
    search = grid_search(prep.train, prep.val, base=base, model_config=HEAVY_MODEL)
    tuned = replace(search.best_config, max_epochs=40, patience=5)
    report = multi_seed_report(
        prep.train, prep.val, prep.test, prep.grid, tuned, model_config=HEAVY_MODEL
    )
    baseline_cfg = replace(tuned, alpha=1.0)
    baseline = multi_seed_report(
        prep.train, prep.val, prep.test, prep.grid, baseline_cfg,
        model_config=HEAVY_MODEL,
    )

    # Bayes-optimal curves from the generator's true hazards
    idx = [int(sid[1:]) for sid in prep.test_ids]
    truth = ds.truth
    true_probs = np.concatenate(
        [truth.pmf[idx], truth.survive_beyond[idx][:, None]], axis=1
    )
    true_grid = TimeGrid(n_bins=truth.n_bins, t_max=float(truth.n_bins))
    oracle_curves = SurvivalCurves.from_bin_probs(true_probs, true_grid)
    oracle_c_td = concordance_td(oracle_curves, prep.test.durations, prep.test.events)

    return SimpleNamespace(
        tuned=tuned,
        report=report,
        baseline=baseline,
        oracle_c_td=oracle_c_td,
        censored_frac=1.0 - ds.events().mean(),
        elapsed=time.perf_counter() - started,
    )


@pytest.mark.heavy
def test_c4_synthetic_recovery(heavy):
    ok = (
        not heavy.report.incomplete
        and not heavy.baseline.incomplete
        and 0.34 <= heavy.censored_frac <= 0.40
        and heavy.report.mean.c_td >= 0.75
        and heavy.report.mean.c_td >= heavy.baseline.mean.c_td - 0.01
        and heavy.report.mean.c_td <= heavy.oracle_c_td
        and heavy.elapsed <= 30 * 60
    )
    announce(
        "C4 synthetic recovery",
        ok,
        f"mean c_td {heavy.report.mean.c_td:.4f} >= 0.75, "
        f"baseline {heavy.baseline.mean.c_td:.4f} - 0.01, "
        f"oracle bound {heavy.oracle_c_td:.4f}, "
        f"censored {heavy.censored_frac:.3f}, {heavy.elapsed / 60:.1f} min <= 30",
    )


@pytest.mark.heavy
def test_c5_ablation_direction(heavy):
    tuned_nll = heavy.report.mean_val_nll
    baseline_nll = heavy.baseline.mean_val_nll
    ok = heavy.tuned.alpha < 1.0 and tuned_nll <= baseline_nll + 1e-3
    announce(
        "C5 ablation direction",
        ok,
        f"tuned alpha {heavy.tuned.alpha} val NLL {tuned_nll:.4f} <= "
        f"alpha=1 baseline {baseline_nll:.4f} + 1e-3",
    )


# ---------------------------------------------------------------------------
# C6: SUPPORT reproduction (conditional on a user-supplied CSV)
# ---------------------------------------------------------------------------


def _support_manifest() -> Path | None:
    env = os.environ.get("DYSURV_SUPPORT_MANIFEST")
    if env:
        return Path(env)
    default = Path(__file__).parent / "data" / "support_manifest.json"
    return default if default.exists() else None


def test_c6_support_reproduction():
    manifest = _support_manifest()
    if manifest is None:
        announce_skip(
            "C6 SUPPORT reproduction",
            "no SUPPORT manifest; set DYSURV_SUPPORT_MANIFEST or add "
            "tests/data/support_manifest.json",
        )
    started = time.perf_counter()
    ds = load_csv(manifest)
    prep = prepare_splits(ds, 0, n_bins=10)
    base = TrainConfig(max_epochs=10, patience=3, seed=0)
    search = grid_search(prep.train, prep.val, base=base)
    tuned = replace(search.best_config, max_epochs=100, patience=10)
    report = multi_seed_report(prep.train, prep.val, prep.test, prep.grid, tuned)
    elapsed = time.perf_counter() - started
    mean = report.mean
    ok = (
        not report.incomplete
        and abs(mean.c_td - 0.647) <= 0.030
        and abs(mean.ibs - 0.190) <= 0.020
        and abs(mean.inbll - 0.561) <= 0.050
        and elapsed <= 15 * 60
    )
    announce(
        "C6 SUPPORT reproduction",
        ok,
        f"c_td {mean.c_td:.4f} in 0.647+/-0.030, ibs {mean.ibs:.4f} in "
        f"0.190+/-0.020, inbll {mean.inbll:.4f} in 0.561+/-0.050, "
        f"{elapsed / 60:.1f} min <= 15",
    )


# ---------------------------------------------------------------------------
# C7: determinism
# ---------------------------------------------------------------------------


def test_c7_determinism(tmp_path):
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        out.mkdir()
        rc_train = cli_main([
            "train", "--synth", "2000,3,0.3", "--seed", "3", "--out", str(out),
            "--hidden", "8", "--z-dim", "4", "--max-epochs", "4", "--n-bins", "8",
        ])
        rc_eval = cli_main([
            "evaluate", "--synth", "2000,3,0.3", "--seed", "3", "--out", str(out),
        ])
        assert rc_train == 0 and rc_eval == 0
        blobs.append((out / "eval_report.json").read_bytes())
    announce(
        "C7 determinism",
        blobs[0] == blobs[1],
        f"two end-to-end runs, report bytes equal={blobs[0] == blobs[1]}",
    )


# ---------------------------------------------------------------------------
# C8: survival-curve sanity
# ---------------------------------------------------------------------------


def test_c8_curve_sanity(tmp_path):
    rc_train = cli_main([
        "train", "--synth", "300,3,0.3", "--seed", "1", "--out", str(tmp_path),
        "--hidden", "8", "--z-dim", "4", "--max-epochs", "3", "--n-bins", "8",
    ])
    rc_pred = cli_main([
        "predict", "--synth", "50,3,0.3", "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc_train == 0 and rc_pred == 0

    by_id: dict[str, list[tuple[float, float]]] = {}
    lines = (tmp_path / "curves.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        sid, t, s = line.split(",")
        by_id.setdefault(sid, []).append((float(t), float(s)))
    starts_at_one = all(series[0] == (0.0, 1.0) for series in by_id.values())
    nonincreasing = all(
        all(a[1] >= b[1] for a, b in zip(series, series[1:]))
        for series in by_id.values()
    )

    from dysurv.training import load_checkpoint

    ckpt = load_checkpoint(tmp_path / "checkpoint.bin")
    ds = generate_synthetic(50, 3, 0.3, seed=1)
    from dysurv.pipeline import Predictor

    probs = Predictor.from_checkpoint(ckpt).bin_probs(ds)
    mass_gap = float(np.abs(probs.sum(axis=1) - 1.0).max())
    announce(
        "C8 survival-curve sanity",
        starts_at_one and nonincreasing and len(by_id) == 50 and mass_gap <= 1e-12,
        f"{len(by_id)} exported curves: S(0)=1 {starts_at_one}, nonincreasing "
        f"{nonincreasing}, max |sum(a)-1| {mass_gap:.1e} <= 1e-12",
    )
