"""Optimizer, training loop, hyperparameter search, multi-seed averaging,
the worker pool behind them, and the checkpoint format."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import struct
import threading

import numpy as np
import pytest

from dysurv import autodiff, training
from dysurv.autodiff import Param, Tape
from dysurv.data import TimeGrid, _table_levels, generate_synthetic
from dysurv.errors import (
    CheckpointCorruptError,
    CheckpointIncompatibleError,
    ContractError,
    DomainError,
    NoCheckpointError,
    NumericalError,
    SearchFailureError,
)
from dysurv.model import ModelConfig, init_dysurv_params, predict_risk_batch
from dysurv.pipeline import prepare_splits
from dysurv.training import (
    AdamState,
    GridSearchResult,
    GridSearchSpace,
    SplitArrays,
    SplitRecord,
    TrainConfig,
    _batch_graph,
    _map_jobs,
    adam_step,
    fit,
    gradient_check,
    grid_search,
    load_checkpoint,
    multi_seed_report,
    save_checkpoint,
)
from oracles import (
    AdamStateReference,
    adam_step_reference,
    grid_search_reference,
    multi_seed_report_reference,
)
from test_nn import count_checks

TINY_MODEL = ModelConfig(hidden_size=6, z_dim=4, decoder_hidden=(6,),
                         survival_hidden=(6,), condition_mode="both")


@pytest.fixture(scope="module")
def prepared():
    ds = generate_synthetic(400, 3, 0.3, seed=0)
    return prepare_splits(ds, split_seed=0, n_bins=6)


def quick_config(**overrides):
    base = dict(learning_rate=1e-2, batch_size=64, alpha=0.5, dropout_keep=1.0,
                max_epochs=5, patience=5, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_single_step_frozen():
    p = Param("w", np.array([1.0]))
    state = AdamState.init([p])
    adam_step(state, [p], {"w": np.array([2.0])}, lr=0.1)
    # bias correction makes the first step lr * g / (|g| + eps)
    assert p.value[0] == pytest.approx(0.9000000005, abs=1e-12)
    assert state.step == 1


def test_adam_zero_gradient_is_a_no_op():
    p = Param("w", np.array([3.0, -2.0]))
    state = AdamState.init([p])
    adam_step(state, [p], {"w": np.zeros(2)}, lr=0.5)
    assert np.array_equal(p.value, [3.0, -2.0])


def test_adam_rejects_non_finite_gradients():
    params = [Param("w", np.ones(3)), Param("b", np.ones(2))]
    state = AdamState.init(params)
    with pytest.raises(NumericalError, match="parameter 'b'"):
        adam_step(state, params, {"w": np.ones(3), "b": np.array([1.0, np.nan])}, lr=0.1)


def test_flat_adam_matches_the_per_parameter_loop():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3,), "v": (2, 5)}
    params = [Param(n, rng.standard_normal(s)) for n, s in shapes.items()]
    ref_params = [Param(p.name, p.value.copy()) for p in params]
    state, ref_state = AdamState.init(params), AdamStateReference.init(ref_params)
    for _ in range(5):
        grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
        adam_step(state, params, grads, lr=0.01)
        adam_step_reference(ref_state, ref_params, grads, lr=0.01)
        for p, ref in zip(params, ref_params, strict=True):
            assert np.array_equal(p.value, ref.value), p.name
    assert state.step == ref_state.step == 5


def test_training_batch_records_few_tape_nodes(prepared):
    # the benchmark's shape: one hidden layer per head, dropout and the VAE on
    model = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,))
    data = prepared.train
    params = init_dysurv_params(np.random.default_rng(0), data.d_in, data.seq_len,
                                data.n_bins, model)
    counts = {}
    for alpha in (0.8, 1.0):
        tape = Tape()
        total, _, _ = _batch_graph(tape, params, data, np.arange(64),
                                   quick_config(alpha=alpha, dropout_keep=0.9),
                                   np.random.default_rng(0))
        tape.mul(total, 1.0 / 64)
        counts[alpha] = len(tape)
    assert counts[0.8] <= 16
    assert counts[1.0] <= 9


def test_training_batch_checks_computed_values_only(prepared, monkeypatch):
    # the benchmark's shape, as above; parameters are operands, so none of
    # the 15 is checked on its own: each feeds a checked pre-activation
    model = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,))
    data = prepared.train
    params = init_dysurv_params(np.random.default_rng(0), data.d_in, data.seq_len,
                                data.n_bins, model)
    assert len(params.parameters()) == 15
    calls = count_checks(monkeypatch)
    tape = Tape()
    total, _, _ = _batch_graph(tape, params, data, np.arange(64),
                               quick_config(alpha=0.8, dropout_keep=0.9),
                               np.random.default_rng(0))
    tape.mul(total, 1.0 / 64)
    # lstm 1, the encoder's dropout 1, mu and logvar 1 each, reparameterize
    # 1, each tanh layer 1 and its dropout 1, sur_out 1, decoder_input 1,
    # dec_out 1, nll 4, vae, total and the batch mean 1 each
    assert len(calls) == 19


@pytest.mark.parametrize("seq_len,per_batch,per_prediction", [(1, 20, 4), (12, 31, 15)])
def test_finiteness_checks_per_batch_and_per_prediction(monkeypatch, seq_len, per_batch,
                                                        per_prediction):
    # the benchmark's shape: one training batch checks each step's
    # pre-activation, the 18 other computed values above and, in adam_step,
    # the gradient; a one-subject prediction checks each step's
    # pre-activation and those of mu and the two survival layers
    model = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,))
    rng = np.random.default_rng(0)
    n, n_bins = 64, 10
    bins = rng.integers(0, n_bins, size=n)
    events = rng.integers(0, 2, size=n)
    data = SplitArrays(
        x=rng.standard_normal((n, seq_len, 5)), bins=bins, events=events,
        last_obs=np.full(n, -1), durations=bins + 0.5, n_bins=n_bins, condition_mode="both",
    )
    params = init_dysurv_params(rng, 5, seq_len, n_bins, model)
    plist = params.parameters()
    calls = count_checks(monkeypatch)
    monkeypatch.setattr(training, "all_finite", autodiff.all_finite)  # adam_step's
    tape = Tape()
    total, _, _ = _batch_graph(tape, params, data, np.arange(n),
                               quick_config(alpha=0.8, dropout_keep=0.9), rng)
    grads = tape.backward(tape.mul(total, 1.0 / n), plist)
    adam_step(AdamState.init(plist), plist, grads, 1e-3)
    assert len(calls) == per_batch
    calls.clear()
    predict_risk_batch(params, data.x[:1])
    assert len(calls) == per_prediction


@pytest.mark.parametrize("name,op", [
    ("mu.weight", "dense"), ("dec0.bias", "dense"),
    ("enc.w_x", "lstm"), ("enc.w_h", "lstm"), ("enc.b", "lstm"),
])
def test_non_finite_parameter_raises_at_its_first_use(monkeypatch, name, op):
    rng = np.random.default_rng(0)
    n, n_bins = 32, 4
    bins = rng.integers(0, n_bins, size=n)
    events = rng.integers(0, 2, size=n)
    data = SplitArrays(  # two steps, so the recurrent weights are read
        x=rng.standard_normal((n, 2, 3)), bins=bins, events=events,
        last_obs=np.full(n, -1), durations=bins + 0.5, n_bins=n_bins, condition_mode="both",
    )
    init = training.init_dysurv_params

    def poisoned(*args, **kwargs):
        params = init(*args, **kwargs)
        next(p for p in params.parameters() if p.name == name).value.flat[0] = np.nan
        return params

    monkeypatch.setattr(training, "init_dysurv_params", poisoned)
    with pytest.raises(NumericalError, match=rf"^epoch 1, batch 0: .* op '{op}'$"):
        fit(data, data, quick_config(), model_config=TINY_MODEL)


# ---------------------------------------------------------------------------
# gradient integrity of the full model
# ---------------------------------------------------------------------------


def test_full_model_gradient_check():
    assert gradient_check(seed=0) < 1e-5


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_loss_decreases_early(prepared):
    _, history = fit(prepared.train, prepared.val, quick_config(),
                     model_config=TINY_MODEL)
    assert history.n_epochs() == 5
    assert history.train_total[-1] < history.train_total[0]
    assert history.best_epoch == int(np.argmin(history.val_total)) + 1


def test_fit_is_deterministic(prepared):
    cfg = quick_config(max_epochs=3, dropout_keep=0.8)
    params_a, hist_a = fit(prepared.train, prepared.val, cfg, model_config=TINY_MODEL)
    params_b, hist_b = fit(prepared.train, prepared.val, cfg, model_config=TINY_MODEL)
    assert hist_a.val_total == hist_b.val_total
    assert hist_a.train_total == hist_b.train_total
    for pa, pb in zip(params_a.parameters(), params_b.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_early_stop_with_frozen_weights(prepared):
    # a vanishing learning rate cannot strictly improve, so patience=1
    # stops after the second epoch and keeps the first epoch's weights
    cfg = quick_config(learning_rate=1e-30, max_epochs=50, patience=1)
    params, history = fit(prepared.train, prepared.val, cfg, model_config=TINY_MODEL)
    assert history.n_epochs() == 2
    assert history.best_epoch == 1
    assert history.val_total[0] == history.val_total[1]


def test_early_stop_restores_best_epoch(prepared):
    cfg = quick_config(max_epochs=40, patience=2)
    params, history = fit(prepared.train, prepared.val, cfg, model_config=TINY_MODEL)
    if history.n_epochs() < 40:
        assert history.n_epochs() == history.best_epoch + 2
    assert history.best_val_total() == min(history.val_total)
    # returned weights reproduce the best epoch's validation loss
    from dysurv.training import _eval_losses

    val_l1, val_l2 = _eval_losses(params, prepared.val, cfg)
    total = cfg.alpha * val_l1 + (1 - cfg.alpha) * val_l2
    assert total == pytest.approx(history.best_val_total(), rel=1e-12)


def test_alpha_one_never_touches_the_decoder(prepared):
    config = quick_config(alpha=1.0)
    # the initial weights, drawn exactly as fit draws them
    init = init_dysurv_params(
        np.random.default_rng(config.seed), prepared.train.d_in,
        prepared.train.seq_len, prepared.train.n_bins, TINY_MODEL,
    )
    params, history = fit(prepared.train, prepared.val, config, model_config=TINY_MODEL)
    assert not np.array_equal(params.mu_head.weight.value, init.mu_head.weight.value)
    for layer, old in zip(params.decoder, init.decoder):
        for name in ("weight", "bias"):
            assert np.array_equal(getattr(layer, name).value, getattr(old, name).value)
    assert all(np.isnan(v) for v in history.val_l2)
    assert history.val_total == history.val_l1


def test_fit_shape_contracts(prepared, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the condition modes were checked")

    bad_val = dataclasses.replace(prepared.val, condition_mode="labels")
    bad_train = dataclasses.replace(prepared.train, condition_mode="times")
    with monkeypatch.context() as patched:
        patched.setattr(training, "_batch_graph", no_batch)
        with pytest.raises(ContractError,
                           match="^the val split conditions on 'labels', the decoder on 'both'$"):
            fit(prepared.train, bad_val, quick_config(), model_config=TINY_MODEL)
        with pytest.raises(ContractError,
                           match="^the train split conditions on 'times', the decoder on 'both'$"):
            fit(bad_train, prepared.val, quick_config(), model_config=TINY_MODEL)
    # alpha = 1 ignores the conditioning entirely
    params, _ = fit(bad_train, bad_val, quick_config(alpha=1.0, max_epochs=1),
                    model_config=TINY_MODEL)
    assert params is not None


def _split(**overrides):
    """A valid three-subject split, with ``overrides`` replacing its fields."""
    fields = dict(x=np.zeros((3, 2, 4)), bins=[0, 1, 2], events=[1, 0, 1],
                  last_obs=[-1, -1, 0], durations=[0.5, 1.5, 2.5], n_bins=3,
                  condition_mode="both")
    return SplitArrays(**{**fields, **overrides})


@pytest.mark.parametrize("overrides,message", [
    (dict(x=np.zeros((3, 8))), r"^x must be \(n, seq_len, d_in\), got shape \(3, 8\)$"),
    (dict(x=np.zeros((0, 2, 4))), "^a split needs at least one subject$"),
    (dict(durations=[0.5, 1.5]), r"^durations must be shape \(3,\), got \(2,\)$"),
    (dict(bins=[0, 1, 3]), r"^bins must lie in \[0, 2\]$"),
    (dict(bins=[0, -1, 2]), r"^bins must lie in \[0, 2\]$"),
    (dict(events=[1, 2, 0]), "^events must be 0 or 1$"),
    (dict(events=[1, -1, 0]), "^events must be 0 or 1$"),
], ids=["x-not-3d", "empty", "wrong-length", "bin-past-the-grid", "negative-bin",
        "event-code-2", "event-code-minus-1"])
def test_split_arrays_refusals(overrides, message):
    _split()  # the base split is valid
    with pytest.raises(ContractError, match=message):
        _split(**overrides)


@pytest.mark.parametrize("field,value,message", [
    ("learning_rate", 0.0, "^learning_rate must be positive, got 0.0$"),
    ("batch_size", 0, "^batch_size must be >= 1, got 0$"),
    ("alpha", 1.5, r"^alpha must lie in \[0, 1\], got 1.5$"),
    ("dropout_keep", 0.0, r"^dropout_keep must lie in \(0, 1\], got 0.0$"),
    ("max_epochs", 0, "^max_epochs must be >= 1, got 0$"),
    ("patience", 0, "^patience must be >= 1, got 0$"),
])
def test_train_config_refusals(field, value, message):
    with pytest.raises(DomainError, match=message):
        TrainConfig(**{field: value})


def test_history_csv_layout(prepared, tmp_path):
    _, history = fit(prepared.train, prepared.val, quick_config(max_epochs=2),
                     model_config=TINY_MODEL)
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_l1,train_l2,train_total,val_l1,val_l2,val_total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[3]) == history.train_total[0]
    assert float(first[4]) == history.val_l1[0]
    assert float(first[5]) == history.val_l2[0]
    assert float(first[6]) == history.val_total[0]


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def _mismatched_mode(prepared):
    """Splits whose condition mode is not the decoder's: every alpha < 1 trial fails."""
    return (dataclasses.replace(prepared.train, condition_mode="labels"),
            dataclasses.replace(prepared.val, condition_mode="labels"))


def test_grid_search_exhaustive_and_ranked(prepared):
    # two alphas blend validation losses at different weights, so the
    # ranking must use the NLL component, not the blended total
    space = GridSearchSpace(learning_rates=(1e-2, 1e-3), batch_sizes=(64,),
                            alphas=(0.5, 1.0), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=3)
    result = grid_search(prepared.train, prepared.val, space, base=base,
                         model_config=TINY_MODEL)
    assert len(space.configs(base)) == 4
    assert len(result.leaderboard) == 4
    oks = [t for t in result.leaderboard if t.status == "ok"]
    best_nll = min(t.val_l1 for t in oks)
    chosen = [t for t in oks if t.config == result.best_config]
    assert chosen and chosen[0].val_l1 == best_nll
    assert result.best_config.max_epochs == 3  # base carried through


def test_grid_search_single_point(prepared):
    space = GridSearchSpace(learning_rates=(5e-3,), batch_sizes=(32,),
                            alphas=(0.8,), dropout_keeps=(0.9,))
    result = grid_search(prepared.train, prepared.val, space,
                         base=quick_config(max_epochs=2), model_config=TINY_MODEL)
    cfg = result.best_config
    assert (cfg.learning_rate, cfg.batch_size, cfg.alpha, cfg.dropout_keep) == (
        5e-3, 32, 0.8, 0.9,
    )


def test_grid_search_all_failures(prepared):
    broken, broken_val = _mismatched_mode(prepared)
    space = GridSearchSpace(learning_rates=(1e-2,), batch_sizes=(64,),
                            alphas=(0.5, 0.2), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=1)
    with pytest.raises(SearchFailureError) as got:
        grid_search(broken, broken_val, space, base=base, model_config=TINY_MODEL)
    with pytest.raises(SearchFailureError) as want:
        grid_search_reference(broken, broken_val, space, base, model_config=TINY_MODEL)
    assert str(got.value) == str(want.value)


def test_default_space_is_the_documented_product():
    space = GridSearchSpace()
    assert len(space.configs(TrainConfig())) == 36
    assert set(space.learning_rates) == {1e-2, 1e-3, 1e-4}
    assert set(space.batch_sizes) == {64, 256}
    assert set(space.alphas) == {0.2, 0.5, 0.8}
    assert set(space.dropout_keeps) == {0.7, 0.9}


# ---------------------------------------------------------------------------
# multi-seed refits
# ---------------------------------------------------------------------------


def test_multi_seed_report_averages(prepared):
    report = multi_seed_report(
        prepared.train, prepared.val, prepared.test, prepared.grid,
        quick_config(max_epochs=2), seeds=(0, 1, 2), model_config=TINY_MODEL,
    )
    assert len(report.rows) == 3
    assert not report.incomplete
    assert report.mean.c_td == pytest.approx(
        np.mean([r.report.c_td for r in report.rows]), abs=1e-12
    )
    assert report.mean_val_nll == pytest.approx(
        np.mean([r.val_nll for r in report.rows]), abs=1e-12
    )
    with pytest.raises(ContractError):
        multi_seed_report(prepared.train, prepared.val, prepared.test,
                          prepared.grid, quick_config(), seeds=(0, 0),
                          model_config=TINY_MODEL)


def test_multi_seed_report_is_seedwise_deterministic(prepared):
    kwargs = dict(grid=prepared.grid, config=quick_config(max_epochs=2),
                  model_config=TINY_MODEL)
    a = multi_seed_report(prepared.train, prepared.val, prepared.test,
                          seeds=(0, 1), **kwargs)
    b = multi_seed_report(prepared.train, prepared.val, prepared.test,
                          seeds=(0, 1), **kwargs)
    assert a.to_json_dict() == b.to_json_dict()


# ---------------------------------------------------------------------------
# independent fits on forked workers
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture(params=[1, 2], ids=["inline", "pool"])
def cpus(request, monkeypatch):
    """Both paths of the pool: one available CPU, and two whatever the host has."""
    _cpus(monkeypatch, request.param)


def _json(result) -> str:  # NaN-safe, byte-level comparison
    return json.dumps(result.to_json_dict())


@needs_fork
def test_pool_maps_in_input_order_on_workers(monkeypatch):
    _cpus(monkeypatch, 2)
    assert _map_jobs(lambda j: j * j, list(range(7))) == [j * j for j in range(7)]
    pids = _map_jobs(lambda _: os.getpid(), list(range(4)))
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


@needs_fork
def test_pool_error_reaches_the_caller_and_leaves_no_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError):
        _map_jobs(lambda j: 1 / (j - 3), list(range(6)))
    assert multiprocessing.active_children() == []


def test_pool_runs_inline_on_one_cpu(monkeypatch):
    _cpus(monkeypatch, 1)
    assert _map_jobs(lambda _: os.getpid(), list(range(4))) == [os.getpid()] * 4
    assert multiprocessing.active_children() == []


def test_pool_runs_inline_beside_another_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(_map_jobs(lambda _: os.getpid(), list(range(3))))
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == [[os.getpid()] * 3]


def test_grid_search_matches_the_serial_loop(prepared, cpus):
    train, val = _mismatched_mode(prepared)
    space = GridSearchSpace(learning_rates=(1e-2, 1e-3), batch_sizes=(64,),
                            alphas=(1.0, 0.5), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=2)
    got = grid_search(train, val, space, base=base, model_config=TINY_MODEL)
    assert multiprocessing.active_children() == []
    want = grid_search_reference(train, val, space, base, model_config=TINY_MODEL)
    assert _json(got) == _json(want)
    board = got.to_json_dict()["leaderboard"]
    assert [t["status"] for t in board] == ["ok", "failed", "ok", "failed"]
    assert "the train split conditions on 'labels', the decoder on 'both'" in board[1]["error"]


def test_multi_seed_report_matches_the_serial_loop(prepared, cpus, monkeypatch):
    fit_ = training.fit

    def diverges_on_seed_one(train, val, config, **kwargs):
        if config.seed == 1:
            raise NumericalError("injected divergence")
        return fit_(train, val, config, **kwargs)

    monkeypatch.setattr(training, "fit", diverges_on_seed_one)
    args = (prepared.train, prepared.val, prepared.test, prepared.grid,
            quick_config(max_epochs=2), (0, 1, 2))
    got = multi_seed_report(*args, model_config=TINY_MODEL)
    assert multiprocessing.active_children() == []
    want = multi_seed_report_reference(*args, model_config=TINY_MODEL)
    assert _json(got) == _json(want)
    assert got.incomplete
    assert [r.error for r in got.rows] == [None, "injected divergence", None]


@needs_fork
def test_pool_runs_inline_inside_a_daemon_process(prepared, monkeypatch):
    _cpus(monkeypatch, 2)
    space = GridSearchSpace(learning_rates=(1e-2, 1e-3), batch_sizes=(64,),
                            alphas=(0.5,), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        try:
            pids = _map_jobs(lambda _: os.getpid(), list(range(3)))
            search = grid_search(prepared.train, prepared.val, space, base=base,
                                 model_config=TINY_MODEL)
            send.send((pids == [os.getpid()] * 3, _json(search)))
        except BaseException as err:  # a failure must reach the parent, not hang it
            send.send((False, repr(err)))
            raise

    proc = ctx.Process(target=child, daemon=True)
    proc.start()
    assert recv.poll(120)
    inline, board = recv.recv()
    proc.join(timeout=60)
    assert inline, board
    assert proc.exitcode == 0
    want = grid_search_reference(prepared.train, prepared.val, space, base,
                                 model_config=TINY_MODEL)
    assert board == _json(want)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(prepared):
    params, _ = fit(prepared.train, prepared.val, quick_config(max_epochs=2),
                    model_config=TINY_MODEL)
    return params


def test_checkpoint_round_trip(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    cfg = quick_config(max_epochs=2)
    split = SplitRecord.of(0, prepared.train_ids)
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=cfg, transform=prepared.transform, split=split)
    ckpt = load_checkpoint(path, expected_schema=prepared.schema)
    before = predict_risk_batch(trained, prepared.test.x)
    after = predict_risk_batch(ckpt.params, prepared.test.x)
    assert np.array_equal(before, after)
    assert ckpt.grid.n_bins == prepared.grid.n_bins
    assert ckpt.grid.t_max == prepared.grid.t_max
    assert ckpt.model_config == TINY_MODEL
    assert (ckpt.params.d_in, ckpt.params.seq_len) == (trained.d_in, trained.seq_len)
    assert ckpt.train_config == cfg
    assert ckpt.split == split
    assert ckpt.transform is not None
    vals = ckpt.transform.transform_values("x0", np.array([0.0, 1.0]))
    assert np.array_equal(vals, prepared.transform.transform_values("x0", np.array([0.0, 1.0])))


def test_fit_and_load_write_into_the_arrays_init_made(prepared, tmp_path, monkeypatch):
    init = training.init_dysurv_params
    made = []

    def kept(*args, **kwargs):
        params = init(*args, **kwargs)
        made.append([p.value for p in params.parameters()])
        return params

    monkeypatch.setattr(training, "init_dysurv_params", kept)
    params, _ = fit(prepared.train, prepared.val, quick_config(max_epochs=3),
                    model_config=TINY_MODEL)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, schema=prepared.schema, grid=prepared.grid)
    loaded = load_checkpoint(path).params
    for got, arrays in zip((params, loaded), made, strict=True):
        assert all(p.value is a for p, a in zip(got.parameters(), arrays, strict=True))
    for p, q in zip(params.parameters(), loaded.parameters(), strict=True):
        assert np.array_equal(p.value, q.value)


def test_checkpoint_error_contracts(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    with pytest.raises(NoCheckpointError):
        load_checkpoint(tmp_path / "missing.bin")

    blob = path.read_bytes()
    (tmp_path / "magic.bin").write_bytes(b"X" + blob[1:])
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "magic.bin")

    (tmp_path / "short.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "short.bin")

    # framing faults, each named by its own message
    framing = [
        ("is truncated", blob[:15]),  # shorter than the magic and the length
        ("header is truncated", blob[:8] + struct.pack("<Q", len(blob)) + blob[16:]),
        ("header is unreadable", blob[:16] + b"\xff" + blob[17:]),  # not UTF-8
        ("header is unreadable", blob[:16] + b"[" + blob[17:]),  # not JSON
    ]
    for message, damaged in framing:
        (tmp_path / "framed.bin").write_bytes(damaged)
        with pytest.raises(CheckpointCorruptError, match=f"framed.bin {message}"):
            load_checkpoint(tmp_path / "framed.bin")

    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # corrupt the digest, header stays valid
    (tmp_path / "bits.bin").write_bytes(bytes(flipped))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "bits.bin")

    other = generate_synthetic(50, 2, 0.3, seed=1).schema
    with pytest.raises(CheckpointIncompatibleError):
        load_checkpoint(path, expected_schema=other)


def test_checkpoint_rebuilds_the_stored_architecture(prepared, tmp_path):
    config = dataclasses.replace(TINY_MODEL, z_dim=2, condition_mode="labels")
    params = init_dysurv_params(np.random.default_rng(3), prepared.train.d_in,
                                prepared.train.seq_len, prepared.grid.n_bins, config)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, schema=prepared.schema, grid=prepared.grid)
    ckpt = load_checkpoint(path)
    assert ckpt.params.config == config
    assert ckpt.params.decoder[0].weight.value.shape[0] == config.z_dim + 2  # [z | labels]
    assert np.array_equal(predict_risk_batch(params, prepared.test.x),
                          predict_risk_batch(ckpt.params, prepared.test.x))


def _header(blob):
    """The JSON header of the checkpoint ``blob``."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + header_len])


def _rewritten(blob, edit=lambda header: header, weights=None):
    """The checkpoint ``blob`` with its header replaced by ``edit(header)``
    and, if given, ``weights`` as its block, under a matching sha256 trailer."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    block = blob[16 + header_len : -32] if weights is None else weights.astype("<f8").tobytes()
    new_header = json.dumps(edit(_header(blob)), sort_keys=True).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(new_header)) + new_header + block
    return body + hashlib.sha256(body).digest()


def _version_three(blob, params, edit):
    """``blob`` of ``params`` in the version 3 layout, its header changed by
    ``edit``: no trailer, and a header that also stores the schema hash, the
    dims, the weight shapes and the sha256 of the weights."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    block = blob[16 + header_len : -32]
    header = _header(blob)
    del header["seq_len"], header["split"]
    schema = json.dumps(header["schema"], sort_keys=True).encode("utf-8")
    header.update(
        version=3,
        schema_hash=hashlib.sha256(schema).hexdigest(),
        dims={"d_in": params.d_in, "seq_len": params.seq_len, "n_bins": params.n_bins},
        shapes=[[p.name, list(p.value.shape)] for p in params.parameters()],
        weights_sha256=hashlib.sha256(block).hexdigest(),
    )
    new_header = json.dumps(edit(header), sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(new_header)) + new_header + block


def test_checkpoint_refuses_version_one_header(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)

    def version_one(header):
        header["version"] = 1
        header["dims"].update(z_dim=TINY_MODEL.z_dim, condition_mode=TINY_MODEL.condition_mode)
        return header

    old = tmp_path / "v1.bin"
    old.write_bytes(_version_three(path.read_bytes(), trained, version_one))
    with pytest.raises(CheckpointIncompatibleError, match="version 1"):
        load_checkpoint(old)


def test_checkpoint_refuses_version_two_header(prepared, trained, tmp_path):
    # version 2 stored the encoder as twelve per-gate arrays
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    d_in, hidden = trained.d_in, trained.encoder.hidden
    per_gate = [[f"enc.{prefix}{gate}", shape]
                for gate in "ifog"
                for prefix, shape in (("w_x", [d_in, hidden]), ("w_h", [hidden, hidden]),
                                      ("b_", [hidden]))]

    def version_two(header):
        header["version"] = 2
        header["shapes"] = per_gate + [s for s in header["shapes"] if not s[0].startswith("enc.")]
        return header

    old = tmp_path / "v2.bin"
    old.write_bytes(_version_three(path.read_bytes(), trained, version_two))
    with pytest.raises(CheckpointIncompatibleError, match="version 2"):
        load_checkpoint(old)


def test_checkpoint_refuses_version_three_file(prepared, trained, tmp_path):
    # version 3 stored derivable keys and a digest of the weights only
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    old = tmp_path / "v3.bin"
    old.write_bytes(_version_three(path.read_bytes(), trained, lambda header: header))
    with pytest.raises(CheckpointIncompatibleError, match="version 3"):
        load_checkpoint(old)


def test_checkpoint_header_must_agree_with_the_weights(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    wider = dataclasses.replace(prepared.schema, time_varying=["extra"])
    with pytest.raises(ContractError, match="bins"):
        save_checkpoint(path, trained, schema=prepared.schema,
                        grid=TimeGrid(trained.n_bins - 1, prepared.grid.t_max))
    with pytest.raises(ContractError, match="features"):
        save_checkpoint(path, trained, schema=wider, grid=prepared.grid)
    assert not path.exists()

    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    blob = path.read_bytes()

    def fewer_bins(header):
        header["grid"]["n_bins"] -= 1
        return header

    def wider_schema(header):
        return {**header, "schema": dataclasses.asdict(wider)}

    # under a valid trailer, the architecture the header describes is not the weights'
    for edit in (fewer_bins, wider_schema):
        (tmp_path / "edited.bin").write_bytes(_rewritten(blob, edit))
        with pytest.raises(CheckpointCorruptError, match="weight block holds"):
            load_checkpoint(tmp_path / "edited.bin")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_weight_is_corrupt(prepared, trained, tmp_path, bad):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    weights = np.concatenate([p.value.ravel() for p in trained.parameters()])
    weights[len(weights) // 2] = bad
    (tmp_path / "bad.bin").write_bytes(_rewritten(path.read_bytes(), weights=weights))
    with pytest.raises(CheckpointCorruptError, match="non-finite"):
        load_checkpoint(tmp_path / "bad.bin")
    # the same block with the entry restored loads
    weights[len(weights) // 2] = 0.0
    (tmp_path / "ok.bin").write_bytes(_rewritten(path.read_bytes(), weights=weights))
    load_checkpoint(tmp_path / "ok.bin")


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _edit_section(section, edit):
    return lambda header: {**header, section: edit(header[section])}


GOOD_TABLE = [0.0, 1.0]


def _with_table(entry, names=("x1", "x2")):
    """The header with a transform: ``entry`` as the table of x0, a good
    table for each other feature in ``names``."""
    tables = {"x0": entry, **dict.fromkeys(names, GOOD_TABLE)}
    return lambda header: {**header, "transform": tables}


KEYS = "header has keys"
MALFORMED_TABLE = "quantile table 'x0' is malformed"
BAD_REFERENCES = "quantile table 'x0' needs finite, nondecreasing references"
OTHER_TABLES = "quantile tables .* are not the schema's numeric statics and series features"

# each damage and the message that names it
HEADER_DAMAGE = {
    **{f"missing_{key}": (_without(key), KEYS)
       for key in ("schema", "grid", "seq_len", "model_config", "split")},
    "unknown_train_config_key": (
        _edit_section("train_config", lambda cfg: {**cfg, "momentum": 0.9}),
        "TrainConfig holds exactly"),
    "train_config_without_alpha": (
        _edit_section("train_config", _without("alpha")), "TrainConfig holds exactly"),
    "model_config_without_z_dim": (
        _edit_section("model_config", _without("z_dim")), "ModelConfig holds exactly"),
    "unknown_model_config_key": (
        _edit_section("model_config", lambda cfg: {**cfg, "n_layers": 2}),
        "ModelConfig holds exactly"),
    "fractional_batch_size": (
        _edit_section("train_config", lambda cfg: {**cfg, "batch_size": 64.5}),
        "TrainConfig.batch_size cannot hold 64.5"),
    "boolean_alpha": (
        _edit_section("train_config", lambda cfg: {**cfg, "alpha": True}),
        "TrainConfig.alpha cannot hold True"),
    "string_hidden_size": (
        _edit_section("model_config", lambda cfg: {**cfg, "hidden_size": "8"}),
        "ModelConfig.hidden_size cannot hold '8'"),
    "unknown_schema_key": (
        _edit_section("schema", lambda schema: {**schema, "id_col": "id"}),
        "FeatureSchema holds exactly"),
    "unknown_grid_key": (
        _edit_section("grid", lambda grid: {**grid, "t_min": 0.0}), "TimeGrid holds exactly"),
    "misspelt_grid_search_key": (lambda header: {**header, "grid_searhc": None}, KEYS),
    "fractional_seq_len": (lambda header: {**header, "seq_len": 1.0}, "seq_len must be an int"),
    "boolean_seq_len": (lambda header: {**header, "seq_len": True}, "seq_len must be an int"),
    "zero_seq_len": (lambda header: {**header, "seq_len": 0}, "must all be positive"),
    "unknown_split_key": (lambda header: {**header, "split": {"seed": 0}},
                          "SplitRecord holds exactly"),
    "string_split_seed": (
        lambda header: {**header, "split": {"seed": "0", "train_ids_sha256": "ab"}},
        "SplitRecord.seed cannot hold '0'"),
    "transform_empty_table": (_with_table([]), MALFORMED_TABLE),
    "transform_unsorted_references": (_with_table([1.0, 0.0]), BAD_REFERENCES),
    "transform_non_finite_reference": (_with_table([0.0, float("inf")]), BAD_REFERENCES),
    "transform_string_reference": (_with_table(["0", 1.0]), MALFORMED_TABLE),
    "transform_unknown_table_key": (
        _with_table({"references": GOOD_TABLE, "targets": [-1.0, 1.0]}), MALFORMED_TABLE),
    "transform_missing_table": (_with_table(GOOD_TABLE, names=("x1",)), OTHER_TABLES),
    "transform_extra_table": (_with_table(GOOD_TABLE, names=("x1", "x2", "x3")), OTHER_TABLES),
    "json_list": (lambda header: [header], "header is not a JSON object"),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_checkpoint_with_an_incomplete_header_is_corrupt(prepared, trained, tmp_path, damage):
    # valid JSON, the current version and a matching digest, but not a
    # header this loader wrote
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=quick_config(), split=SplitRecord.of(0, prepared.train_ids))
    edit, message = HEADER_DAMAGE[damage]
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(_rewritten(path.read_bytes(), edit))
    with pytest.raises(CheckpointCorruptError, match=message):
        load_checkpoint(damaged)


@pytest.mark.parametrize("part", ["header", "weights", "trailer"])
def test_checkpoint_with_a_flipped_byte_is_corrupt(prepared, trained, tmp_path, part):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    blob = bytearray(path.read_bytes())
    # in the header, a digit of t_max: still a well-formed header, with another grid
    at = {"header": blob.index(b'"t_max": ') + len(b'"t_max": '),
          "weights": len(blob) - 32 - 8 * 3, "trailer": len(blob) - 1}[part]
    blob[at] = ord("7") if part == "header" and blob[at] != ord("7") else blob[at] ^ 0x01
    (tmp_path / "flipped.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorruptError, match="does not match its sha256 digest"):
        load_checkpoint(tmp_path / "flipped.bin")


def test_checkpoint_with_a_well_formed_table_loads(prepared, trained, tmp_path):
    # the control for the transform damages above: only the damage is refused
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    (tmp_path / "table.bin").write_bytes(_rewritten(path.read_bytes(), _with_table([0.0, 0.0, 1.0])))
    transform = load_checkpoint(tmp_path / "table.bin").transform
    # a 3-entry table's targets are the normal quantiles at 1e-7, 0.5 and 1 - 1e-7
    assert transform.transform_values("x0", np.array([0.5])) == _table_levels(3)[1][2] / 2


def test_checkpoint_header_has_the_documented_keys(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    assert set(_header(path.read_bytes())) == training.HEADER_KEYS == {
        "version", "schema", "grid", "seq_len", "model_config",
        "train_config", "transform", "split"}
    result = GridSearchResult(best_config=quick_config(), leaderboard=[])
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=quick_config(), grid_search=result)
    header = _header(path.read_bytes())
    assert set(header) == training.HEADER_KEYS | {"grid_search"}
    assert header["grid_search"] == result.to_json_dict()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_a_non_finite_weight_is_not_saved(prepared, tmp_path, bad):
    params = init_dysurv_params(np.random.default_rng(3), prepared.train.d_in,
                                prepared.train.seq_len, prepared.grid.n_bins, TINY_MODEL)
    target = params.mu_head.weight
    target.value[0, 1] = bad
    path = tmp_path / "model.bin"
    with pytest.raises(NumericalError, match=f"'{target.name}'"):
        save_checkpoint(path, params, schema=prepared.schema, grid=prepared.grid)
    assert not path.exists()
