"""Optimizer, training loop, hyperparameter search, multi-seed averaging,
and the checkpoint format."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from dysurv.autodiff import Param
from dysurv.data import generate_synthetic
from dysurv.errors import (
    CheckpointCorruptError,
    CheckpointIncompatibleError,
    ContractError,
    NoCheckpointError,
    NumericalError,
    SearchFailureError,
)
from dysurv.model import ModelConfig, init_dysurv_params, predict_risk_batch
from dysurv.pipeline import prepare_splits
from dysurv.training import (
    AdamState,
    GridSearchSpace,
    TrainConfig,
    adam_step,
    fit,
    gradient_check,
    grid_search,
    load_checkpoint,
    multi_seed_report,
    save_checkpoint,
)

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
    p = Param("w", np.array([1.0]))
    state = AdamState.init([p])
    with pytest.raises(NumericalError):
        adam_step(state, [p], {"w": np.array([np.nan])}, lr=0.1)


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
    rng = np.random.default_rng(3)
    init = init_dysurv_params(
        rng, prepared.train.d_in, prepared.train.seq_len,
        prepared.train.n_bins, TINY_MODEL,
    )
    before = [layer.weight.value.copy() for layer in init.decoder]
    params, history = fit(prepared.train, prepared.val, quick_config(alpha=1.0),
                          init=init)
    for layer, old in zip(params.decoder, before):
        assert np.array_equal(layer.weight.value, old)
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


def test_grid_search_exhaustive_and_ranked(prepared):
    # two alphas blend validation losses at different weights, so the
    # ranking must use the NLL component, not the blended total
    space = GridSearchSpace(learning_rates=(1e-2, 1e-3), batch_sizes=(64,),
                            alphas=(0.5, 1.0), dropout_keeps=(1.0,))
    base = quick_config(max_epochs=3)
    result = grid_search(prepared.train, prepared.val, space, base=base,
                         model_config=TINY_MODEL)
    assert space.size() == 4
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
    broken = dataclasses.replace(prepared.train, cond=prepared.train.cond[:, :3])
    broken_val = dataclasses.replace(prepared.val, cond=prepared.val.cond[:, :3])
    space = GridSearchSpace(learning_rates=(1e-2,), batch_sizes=(64,),
                            alphas=(0.5, 0.2), dropout_keeps=(1.0,))
    with pytest.raises(SearchFailureError):
        grid_search(broken, broken_val, space, base=quick_config(max_epochs=1),
                    model_config=TINY_MODEL)


def test_default_space_is_the_documented_product():
    space = GridSearchSpace()
    assert space.size() == 36
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


def test_checkpoint_refuses_version_one_header(prepared, trained, tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, trained, schema=prepared.schema, grid=prepared.grid)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    header["version"] = 1
    header["dims"].update(z_dim=TINY_MODEL.z_dim, condition_mode=TINY_MODEL.condition_mode)
    new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    old = tmp_path / "v1.bin"
    old.write_bytes(blob[:8] + struct.pack("<Q", len(new_header)) + new_header
                    + blob[16 + header_len :])
    with pytest.raises(CheckpointIncompatibleError, match="version 1"):
        load_checkpoint(old)
