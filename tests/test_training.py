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

from dysurv import training
from dysurv.autodiff import Param, Tape
from dysurv.data import TimeGrid, generate_synthetic
from dysurv.errors import (
    CheckpointCorruptError,
    CheckpointIncompatibleError,
    ContractError,
    NoCheckpointError,
    NumericalError,
    SearchFailureError,
)
from dysurv.model import ModelConfig, condition_matrix, init_dysurv_params, predict_risk_batch
from dysurv.pipeline import prepare_splits
from dysurv.training import (
    AdamState,
    GridSearchResult,
    GridSearchSpace,
    SplitArrays,
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
    # lstm 3, the encoder's dropout 1, mu and logvar 1 each, reparameterize
    # 3, each tanh layer 2 and its dropout 1, sur_out 2, decoder_input 1,
    # dec_out 1, nll 4, vae, total and the batch mean 1 each
    assert len(calls) == 26


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
        last_obs=np.full(n, -1), cond=condition_matrix(events, bins, n_bins, "both"),
        durations=bins + 0.5, n_bins=n_bins,
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


def test_fit_shape_contracts(prepared):
    bad_val = dataclasses.replace(prepared.val, cond=prepared.val.cond[:, :3])
    with pytest.raises(ContractError):
        fit(prepared.train, bad_val, quick_config(), model_config=TINY_MODEL)
    bad_cond = dataclasses.replace(prepared.train, cond=prepared.train.cond[:, :3])
    with pytest.raises(ContractError):
        fit(bad_cond, prepared.val, quick_config(), model_config=TINY_MODEL)
    # alpha = 1 ignores the conditioning entirely
    params, _ = fit(bad_cond, bad_val, quick_config(alpha=1.0, max_epochs=1),
                    model_config=TINY_MODEL)
    assert params is not None


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


def _mismatched_cond(prepared):
    """Splits whose cond is too narrow for the decoder: every alpha < 1 trial fails."""
    return (dataclasses.replace(prepared.train, cond=prepared.train.cond[:, :3]),
            dataclasses.replace(prepared.val, cond=prepared.val.cond[:, :3]))


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
    broken, broken_val = _mismatched_cond(prepared)
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
    train, val = _mismatched_cond(prepared)
    space = GridSearchSpace(learning_rates=(1e-2, 1e-3), batch_sizes=(64,),
                            alphas=(1.0, 0.5), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=2)
    got = grid_search(train, val, space, base=base, model_config=TINY_MODEL)
    assert multiprocessing.active_children() == []
    want = grid_search_reference(train, val, space, base, model_config=TINY_MODEL)
    assert _json(got) == _json(want)
    board = got.to_json_dict()["leaderboard"]
    assert [t["status"] for t in board] == ["ok", "failed", "ok", "failed"]
    assert "conditioning width 3" in board[1]["error"]


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
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=cfg, transform=prepared.transform)
    ckpt = load_checkpoint(path, expected_schema=prepared.schema)
    before = predict_risk_batch(trained, prepared.test.x)
    after = predict_risk_batch(ckpt.params, prepared.test.x)
    assert np.array_equal(before, after)
    assert ckpt.grid.n_bins == prepared.grid.n_bins
    assert ckpt.grid.t_max == prepared.grid.t_max
    assert ckpt.model_config == TINY_MODEL
    assert set(ckpt.header["dims"]) == {"d_in", "seq_len", "n_bins"}
    assert ckpt.train_config == cfg
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

    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # corrupt the weight block, header stays valid
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
    assert ckpt.params.cond_dim == 2
    assert np.array_equal(predict_risk_batch(params, prepared.test.x),
                          predict_risk_batch(ckpt.params, prepared.test.x))


def _rewritten(blob, edit=lambda header: header, weights=None):
    """The checkpoint ``blob`` with its header replaced by ``edit(header)``
    and, if given, ``weights`` as its block under a matching digest."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    block = blob[16 + header_len :] if weights is None else weights.astype("<f8").tobytes()
    header["weights_sha256"] = hashlib.sha256(block).hexdigest()
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
    old.write_bytes(_rewritten(path.read_bytes(), version_one))
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
    old.write_bytes(_rewritten(path.read_bytes(), version_two))
    with pytest.raises(CheckpointIncompatibleError, match="version 2"):
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
        return {**header, "schema": dataclasses.asdict(wider), "schema_hash": wider.hash()}

    for edit in (fewer_bins, wider_schema):
        (tmp_path / "edited.bin").write_bytes(_rewritten(blob, edit))
        with pytest.raises(CheckpointCorruptError, match="disagrees"):
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


GOOD_TABLE = {"references": [0.0, 1.0], "targets": [-1.0, 1.0]}


def _with_table(entry, names=("x1", "x2")):
    """The header with a transform: ``entry`` as the table of x0, a good
    table for each other feature in ``names``."""
    tables = {"x0": entry, **dict.fromkeys(names, GOOD_TABLE)}
    return lambda header: {**header, "transform": tables}


HEADER_DAMAGE = {
    **{f"missing_{key}": _without(key)
       for key in ("schema", "schema_hash", "grid", "dims", "model_config", "shapes")},
    "unknown_train_config_key":
        _edit_section("train_config", lambda cfg: {**cfg, "momentum": 0.9}),
    "train_config_without_alpha": _edit_section("train_config", _without("alpha")),
    "model_config_without_z_dim": _edit_section("model_config", _without("z_dim")),
    "unknown_model_config_key":
        _edit_section("model_config", lambda cfg: {**cfg, "n_layers": 2}),
    "fractional_batch_size": _edit_section("train_config", lambda cfg: {**cfg, "batch_size": 64.5}),
    "boolean_alpha": _edit_section("train_config", lambda cfg: {**cfg, "alpha": True}),
    "string_hidden_size": _edit_section("model_config", lambda cfg: {**cfg, "hidden_size": "8"}),
    "unknown_schema_key": _edit_section("schema", lambda schema: {**schema, "id_col": "id"}),
    "unknown_grid_key": _edit_section("grid", lambda grid: {**grid, "t_min": 0.0}),
    "misspelt_grid_search_key": lambda header: {**header, "grid_searhc": None},
    "unknown_dims_key": _edit_section("dims", lambda dims: {**dims, "z_dim": 99}),
    "fractional_dims_entry": _edit_section("dims", lambda dims: {**dims, "seq_len": 1.0}),
    "transform_one_target_short": _with_table({"references": [0.0, 1.0], "targets": [-1.0]}),
    "transform_empty_table": _with_table({"references": [], "targets": []}),
    "transform_unsorted_references": _with_table({"references": [1.0, 0.0], "targets": [-1.0, 1.0]}),
    "transform_non_finite_target": _with_table({"references": [0.0, 1.0], "targets": [-1.0, float("inf")]}),
    "transform_string_reference": _with_table({"references": ["0", 1.0], "targets": [-1.0, 1.0]}),
    "transform_unknown_table_key": _with_table({**GOOD_TABLE, "n_quantiles": 2}),
    "transform_missing_table": _with_table(GOOD_TABLE, names=("x1",)),
    "transform_extra_table": _with_table(GOOD_TABLE, names=("x1", "x2", "x3")),
    "json_list": lambda header: [header],
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_checkpoint_with_an_incomplete_header_is_corrupt(prepared, trained, tmp_path, damage):
    # valid JSON and the current version, but not a header this loader wrote
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=quick_config())
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(_rewritten(path.read_bytes(), HEADER_DAMAGE[damage]))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(damaged)


def test_checkpoint_with_a_well_formed_table_loads(prepared, trained, tmp_path):
    # the control for the transform damages above: only the damage is refused
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    table = _with_table({"references": [0.0, 0.0, 1.0], "targets": [-1.0, 0.0, 1.0]})
    (tmp_path / "table.bin").write_bytes(_rewritten(path.read_bytes(), table))
    transform = load_checkpoint(tmp_path / "table.bin").transform
    assert transform.transform_values("x0", np.array([0.5])) == 0.5


def test_checkpoint_header_has_the_documented_keys(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    assert set(load_checkpoint(path).header) == training.HEADER_KEYS == {
        "version", "schema_hash", "schema", "grid", "dims", "model_config",
        "train_config", "transform", "shapes", "weights_sha256"}
    result = GridSearchResult(best_config=quick_config(), leaderboard=[])
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid,
                    train_config=quick_config(), grid_search=result)
    header = load_checkpoint(path).header
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
