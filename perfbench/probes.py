"""Per-layer figures for the traced run.

Each probe calls public functions of one layer directly and times them.
A probe whose function has been removed or renamed, or that raises,
reports null for its figures instead of stopping the run. No end-to-end
figure depends on a probe.

The per-batch figures come from replaying the first epoch of ``fit`` with
public functions. ``replay_matches_fit`` says whether that replay still
reproduces ``fit(max_epochs=1)`` bit for bit, so a reader can see when the
per-batch figures stop describing ``fit``; it is reported, not checked.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracing import Tracer

PROBE_REPS = 5
ONE_SUBJECT_SAMPLES = 200

# name -> (unit, better); the order is the order of the printout
PER_LAYER = {
    "data.load_csv_s": ("s", "lower"),
    "data.csv_rows": ("count", "lower"),
    "data.split_s": ("s", "lower"),
    "data.quantile_fit_s": ("s", "lower"),
    "data.quantile_apply_s": ("s", "lower"),
    "data.fill_s": ("s", "lower"),
    "pipeline.prepare_splits_s": ("s", "lower"),
    "pipeline.dataset_to_arrays_s": ("s", "lower"),
    "pipeline.records_per_s": ("1/s", "higher"),
    "pipeline.curves_one_self_ms": ("ms", "lower"),
    "pipeline.curves_batch_s": ("s", "lower"),
    "autodiff.tape_nodes_per_batch": ("count", "lower"),
    "autodiff.us_per_node": ("us", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "nn.lstm_forward_ms": ("ms", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.forward_peak_mb": ("MB", "lower"),
    "model.predict_one_ms": ("ms", "lower"),
    "model.predict_nodes": ("count", "lower"),
    "training.adam_step_ms": ("ms", "lower"),
    "training.epoch_bs64_s": ("s", "lower"),
    "training.epoch_bs256_s": ("s", "lower"),
    "training.samples_per_s": ("1/s", "higher"),
    "training.grid_trials": ("count", "higher"),
    "training.grid_trials_failed": ("count", "lower"),
    "training.epochs_run": ("count", "lower"),
    "training.useful_epoch_ratio": ("ratio", "higher"),
    "training.grid_search_s": ("s", "lower"),
    "training.trial_s_sum": ("s", "lower"),
    "training.grid_concurrency": ("ratio", "higher"),
    "training.save_checkpoint_ms": ("ms", "lower"),
    "training.load_checkpoint_ms": ("ms", "lower"),
    "training.checkpoint_bytes": ("bytes", "lower"),
    "metrics.concordance_td_s": ("s", "lower"),
    "metrics.event_subjects": ("count", "higher"),
    "metrics.distinct_event_times": ("count", "lower"),
    "metrics.integrated_brier_s": ("s", "lower"),
    "metrics.integrated_bll_s": ("s", "lower"),
    "metrics.horizon_ms": ("ms", "lower"),
    "metrics.importance_predict_s": ("s", "lower"),
    "metrics.importance_self_s": ("s", "lower"),
    "metrics.importance_calls": ("count", "lower"),
    "cli.evaluate_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.replay_matches_fit": ("bool", "higher"),
}


def clock(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def median_clock(fn, *args, **kwargs):
    times = []
    for _ in range(PROBE_REPS):
        value, seconds = clock(fn, *args, **kwargs)
        times.append(seconds)
    return value, statistics.median(times)


class Probes:
    """Runs the probes of one traced run and collects their figures."""

    def __init__(self, tracer: Tracer, work: Path):
        self.tr = tracer
        self.work = work
        self.values: dict[str, float | None] = {}
        self.errors: list[str] = []

    def probe(self, names: tuple[str, ...], fn, *args) -> None:
        """Run one probe; on any exception its figures read null."""
        with self.tr.span("probe." + fn.__name__):
            try:
                found = fn(*args)
            except Exception:  # a removed or renamed function must not stop the run
                self.errors.append(f"probe {fn.__name__}:\n{traceback.format_exc()}")
                found = {}
        for name in names:
            self.values[name] = found.get(name)

    def run_all(self, traced, traced_total_s: float, untraced_total_s: float,
                seed: int) -> dict:
        st = traced.state
        figures = traced.figures
        tr = self.tr
        prep_s = tr.total("pipeline.prepare_splits", run="traced")
        load_s = tr.total("data.load_csv", run="traced")
        self.values.update({
            "data.load_csv_s": load_s or 0.0,
            "data.csv_rows": st.csv_rows,
            "pipeline.prepare_splits_s": prep_s,
            "pipeline.records_per_s": len(st.ds) / prep_s,
            "pipeline.curves_batch_s": tr.total("pipeline.curves_batch", run="traced"),
            "metrics.importance_predict_s": figures["importance_predict_s"],
            "metrics.importance_self_s":
                figures["importance_s"] - figures["importance_predict_s"],
            "metrics.importance_calls": figures["importance_calls"],
            "trace.overhead_s": traced_total_s - untraced_total_s,
            "trace.overhead_frac": (traced_total_s - untraced_total_s) / untraced_total_s,
        })
        self.probe(("data.split_s", "data.quantile_fit_s", "data.quantile_apply_s",
                    "data.fill_s", "pipeline.dataset_to_arrays_s"),
                   data_layer, st, seed)
        self.probe(("autodiff.tape_nodes_per_batch", "autodiff.us_per_node",
                    "autodiff.backward_ms", "nn.lstm_forward_ms", "model.forward_ms",
                    "training.adam_step_ms", "training.samples_per_s",
                    "trace.replay_matches_fit"),
                   batch_replay, st)
        self.probe(("model.forward_peak_mb",), forward_peak, st)
        self.probe(("training.epoch_bs64_s", "training.epoch_bs256_s"), epochs, st)
        self.probe(("model.predict_one_ms", "model.predict_nodes",
                    "pipeline.curves_one_self_ms"), one_subject, st)
        self.probe(("training.save_checkpoint_ms", "training.load_checkpoint_ms",
                    "training.checkpoint_bytes"), checkpoint, st, self.work)
        self.probe(("metrics.concordance_td_s", "metrics.event_subjects",
                    "metrics.distinct_event_times", "metrics.integrated_brier_s",
                    "metrics.integrated_bll_s", "metrics.horizon_ms"), metric_layer, st)
        self.probe(("training.grid_trials", "training.grid_trials_failed",
                    "training.epochs_run", "training.useful_epoch_ratio",
                    "training.grid_search_s", "training.trial_s_sum",
                    "training.grid_concurrency"),
                   grid_layer, st, tr.total("training.grid_search", run="traced"))
        self.probe(("cli.evaluate_self_s",), cli_layer, st, figures["cli_evaluate_s"], seed)
        return {name: self.values.get(name) for name in PER_LAYER}


# -- probes: each returns {metric name: value} ---------------------------------


def data_layer(st, seed: int) -> dict:
    from dysurv.data import (
        apply_quantile_transform,
        fill_dataset,
        fit_quantile_transform,
        split_dataset,
    )
    from dysurv.pipeline import dataset_to_arrays

    (train, _, _), split_s = median_clock(split_dataset, st.ds, seed)
    qt, fit_s = median_clock(fit_quantile_transform, train)
    applied, apply_s = median_clock(apply_quantile_transform, qt, train)
    _, fill_s = median_clock(fill_dataset, applied)
    _, arrays_s = median_clock(dataset_to_arrays, train, qt, st.prep.grid,
                               st.prep.condition_mode)
    return {"data.split_s": split_s, "data.quantile_fit_s": fit_s,
            "data.quantile_apply_s": apply_s, "data.fill_s": fill_s,
            "pipeline.dataset_to_arrays_s": arrays_s}


def batch_replay(st) -> dict:
    """Replay fit's first epoch with public functions, timing each part of
    every batch, then compare the parameters with fit(max_epochs=1)."""
    from dysurv.autodiff import Tape
    from dysurv.model import (
        LossMasks,
        draw_dropout_masks,
        forward_graph,
        init_dysurv_params,
        nll_graph,
        total_loss_graph,
        vae_graph,
    )
    from dysurv.nn import lstm_forward
    from dysurv.training import AdamState, adam_step, fit

    cfg = replace(st.train_config, max_epochs=1)
    data = st.prep.train
    rng = np.random.default_rng(cfg.seed)
    params = init_dysurv_params(rng, data.d_in, data.seq_len, data.n_bins, st.model_config)
    plist = params.parameters()
    adam = AdamState.init(plist)
    use_vae = cfg.alpha < 1.0
    parts = {"lstm": [], "forward": [], "loss": [], "backward": [], "adam": [], "nodes": []}
    order = rng.permutation(len(data))
    epoch_start = time.perf_counter()
    for start in range(0, len(data), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        xb = data.x[idx]
        batch = xb.shape[0]
        steps = [np.ascontiguousarray(xb[:, j, :]) for j in range(data.seq_len)]
        masks = draw_dropout_masks(rng, params, batch, cfg.dropout_keep) \
            if cfg.dropout_keep < 1.0 else None
        eps = None if cfg.deterministic_latent else rng.standard_normal((batch, params.z_dim))
        t0 = time.perf_counter()
        lstm_forward(Tape(), params.encoder, steps)
        t1 = time.perf_counter()
        tape = Tape()
        mu, logvar, _, a_hat, x_recon = forward_graph(
            tape, params, steps, cond=data.cond[idx] if use_vae else None,
            eps=eps, keep=cfg.dropout_keep, masks=masks, training=True)
        t2 = time.perf_counter()
        loss_masks = LossMasks.build(data.bins[idx], data.events[idx], data.last_obs[idx],
                                     data.n_bins)
        l1 = nll_graph(tape, a_hat, loss_masks)
        l2 = vae_graph(tape, xb.reshape(batch, -1), x_recon, mu, logvar) if use_vae else None
        mean_total = tape.mul(total_loss_graph(tape, l1, l2, cfg.alpha), 1.0 / idx.size)
        t3 = time.perf_counter()
        grads = tape.backward(mean_total, params=plist)
        t4 = time.perf_counter()
        adam_step(adam, plist, grads, cfg.learning_rate)
        t5 = time.perf_counter()
        for key, seconds in (("lstm", t1 - t0), ("forward", t2 - t1), ("loss", t3 - t2),
                             ("backward", t4 - t3), ("adam", t5 - t4)):
            parts[key].append(seconds)
        parts["nodes"].append(len(tape))
    epoch_s = time.perf_counter() - epoch_start - sum(parts["lstm"])

    fitted, _ = fit(data, st.prep.val, cfg, model_config=st.model_config)
    same = all(
        np.array_equal(a.value, b.value) for a, b in zip(plist, fitted.parameters(), strict=True)
    )
    med = {k: statistics.median(v) for k, v in parts.items()}
    record_s = med["forward"] + med["loss"] + med["backward"]
    return {
        "autodiff.tape_nodes_per_batch": statistics.median_low(parts["nodes"]),
        "autodiff.us_per_node": record_s / med["nodes"] * 1e6,
        "autodiff.backward_ms": med["backward"] * 1e3,
        "nn.lstm_forward_ms": med["lstm"] * 1e3,
        "model.forward_ms": med["forward"] * 1e3,
        "training.adam_step_ms": med["adam"] * 1e3,
        "training.samples_per_s": len(data) / epoch_s,
        "trace.replay_matches_fit": 1 if same else 0,
    }


def forward_peak(st) -> dict:
    """Peak Python-heap growth of one training-batch forward pass."""
    from dysurv.autodiff import Tape
    from dysurv.model import draw_dropout_masks, forward_graph

    cfg = st.train_config
    data = st.prep.train
    batch = min(cfg.batch_size, len(data))
    rng = np.random.default_rng(0)
    xb = data.x[:batch]
    steps = [np.ascontiguousarray(xb[:, j, :]) for j in range(data.seq_len)]
    masks = draw_dropout_masks(rng, st.params, batch, cfg.dropout_keep)
    eps = rng.standard_normal((batch, st.params.z_dim))
    tracemalloc.start()
    try:
        forward_graph(Tape(), st.params, steps, cond=data.cond[:batch], eps=eps,
                      keep=cfg.dropout_keep, masks=masks, training=cfg.dropout_keep < 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"model.forward_peak_mb": peak / 2**20}


def epochs(st) -> dict:
    from dysurv.training import fit

    out = {}
    for bs in (64, 256):
        cfg = replace(st.train_config, batch_size=bs, max_epochs=1, patience=1)
        _, seconds = clock(fit, st.prep.train, st.prep.val, cfg, model_config=st.model_config)
        out[f"training.epoch_bs{bs}_s"] = seconds
    return out


def one_subject(st) -> dict:
    """Predictor.curves on one subject against predict_risk_batch on the
    same subject's prepared row; the difference is the pipeline's own
    time per request."""
    from dysurv.autodiff import Tape
    from dysurv.data import SurvivalDataset
    from dysurv.model import forward_graph, predict_risk_batch

    test = st.prep.test
    k = min(ONE_SUBJECT_SAMPLES, len(test))
    curves_s, predict_s = [], []
    for i in range(k):
        one = SurvivalDataset(schema=st.ds.schema, records=[st.held_out[i]])
        curves_s.append(clock(st.predictor.curves, one)[1])
        predict_s.append(clock(predict_risk_batch, st.params, test.x[i : i + 1])[1])
    tape = Tape()
    forward_graph(tape, st.params, [test.x[:1, j, :] for j in range(test.seq_len)])
    one_ms = statistics.median(predict_s) * 1e3
    return {"model.predict_one_ms": one_ms, "model.predict_nodes": len(tape),
            "pipeline.curves_one_self_ms": statistics.median(curves_s) * 1e3 - one_ms}


def checkpoint(st, work: Path) -> dict:
    from dysurv.training import load_checkpoint
    from workloads import save_checkpoint_compat

    path = work / "probe_checkpoint.bin"
    _, save_s = median_clock(save_checkpoint_compat, path, st.params, st.prep,
                             st.model_config, st.train_config)
    _, load_s = median_clock(load_checkpoint, path)
    return {"training.save_checkpoint_ms": save_s * 1e3,
            "training.load_checkpoint_ms": load_s * 1e3,
            "training.checkpoint_bytes": path.stat().st_size}


def metric_layer(st) -> dict:
    from dysurv.metrics import (
        concordance_td,
        horizon_binary_metrics,
        horizon_labels,
        integrated_bll,
        integrated_brier,
    )

    _, curves, _, hrep = st.eval.value
    d, e = st.eval_durations, st.eval_events
    _, c_s = clock(concordance_td, curves, d, e)
    _, ibs_s = clock(integrated_brier, curves, d, e)
    _, bll_s = clock(integrated_bll, curves, d, e)

    def horizon():
        labels, include = horizon_labels(d, e, hrep.horizon)
        return horizon_binary_metrics(1.0 - curves.at(hrep.horizon)[include], labels,
                                      hrep.horizon)

    _, h_s = median_clock(horizon)
    return {"metrics.concordance_td_s": c_s, "metrics.integrated_brier_s": ibs_s,
            "metrics.integrated_bll_s": bll_s, "metrics.horizon_ms": h_s * 1e3,
            "metrics.event_subjects": int(e.sum()),
            "metrics.distinct_event_times": int(np.unique(d[e == 1]).size)}


def grid_layer(st, grid_search_s: float | None) -> dict:
    """Trial counts from the leaderboard; each trial's own fit time from
    refitting its configuration alone."""
    from dysurv.training import fit

    n_epochs = sum(n for n, _ in st.histories)
    best = sum(b for _, b in st.histories)
    if st.search is None:
        return {"training.grid_trials": 0, "training.grid_trials_failed": 0,
                "training.epochs_run": n_epochs, "training.useful_epoch_ratio": best / n_epochs,
                "training.grid_search_s": 0.0, "training.trial_s_sum": 0.0,
                "training.grid_concurrency": 0.0}
    board = st.search.leaderboard
    ok = [t for t in board if t.status == "ok"]
    n_epochs += sum(t.n_epochs for t in ok)
    best += sum(t.best_epoch for t in ok)
    trial_s = sum(
        clock(fit, st.prep.train, st.prep.val, t.config, model_config=st.model_config)[1]
        for t in board
    )
    return {"training.grid_trials": len(board),
            "training.grid_trials_failed": len(board) - len(ok),
            "training.epochs_run": n_epochs, "training.useful_epoch_ratio": best / n_epochs,
            "training.grid_search_s": grid_search_s, "training.trial_s_sum": trial_s,
            "training.grid_concurrency": trial_s / grid_search_s}


def cli_layer(st, cli_s: float, seed: int) -> dict:
    """CLI evaluate wall time minus the library calls it needs, timed
    directly: load the data, split, load the checkpoint, predict the test
    curves once, evaluate and score the horizon."""
    from dysurv.data import generate_synthetic, split_dataset
    from dysurv.metrics import evaluate_all, horizon_binary_metrics, horizon_labels
    from dysurv.pipeline import Predictor
    from dysurv.training import load_checkpoint

    argv = st.cli_argv
    horizon = st.eval.value[3].horizon
    start = time.perf_counter()
    if "--synth" in argv:
        n, m, frac = argv[argv.index("--synth") + 1].split(",")
        ds = generate_synthetic(int(n), int(m), float(frac), seed=seed)
    else:
        ds = st.load[0](st.load[1])
    _, _, test = split_dataset(ds, seed)
    ckpt = load_checkpoint(argv[argv.index("--checkpoint") + 1], expected_schema=ds.schema)
    curves = Predictor.from_checkpoint(ckpt).curves(test)
    evaluate_all(curves, test.durations(), test.events())
    labels, include = horizon_labels(test.durations(), test.events(), horizon)
    horizon_binary_metrics(1.0 - curves.at(horizon)[include], labels, horizon)
    return {"cli.evaluate_self_s": cli_s - (time.perf_counter() - start)}
