"""Optimization loop with early stopping, hyperparameter grid search,
multi-seed evaluation, and checkpoint I/O.

Losses on the tape are batch sums; the trainer scales by batch size so
the learning rate is batch-size comparable. Validation always runs with
z = mu and dropout off, so the early-stopping signal is deterministic.
Grid trials and seed refits are independent fits, each seeded by its own
config, so they run on up to one forked worker per available CPU.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .autodiff import Param, Tape, all_finite, finite_difference_check
from .data import FeatureSchema, QuantileTransform, TimeGrid, _holds, dataclass_from_json
from .errors import (
    CheckpointCorruptError,
    CheckpointIncompatibleError,
    ContractError,
    DomainError,
    DySurvError,
    NoCheckpointError,
    NumericalError,
    SchemaError,
    SearchFailureError,
)
from .metrics import EvalReport, SurvivalCurves, evaluate_all
from .model import (
    DySurvParams,
    LossMasks,
    ModelConfig,
    condition_matrix,
    draw_dropout_masks,
    forward_graph,
    init_dysurv_params,
    loss_total,
    nll_graph,
    predict_risk_batch,
    total_loss_graph,
    vae_graph,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"DYSURV1\x00"
CHECKPOINT_VERSION = 3
EVAL_CHUNK = 1024
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# every checkpoint header's keys; one written after a grid search adds "grid_search"
HEADER_KEYS = frozenset({"version", "schema_hash", "schema", "grid", "dims", "model_config",
                         "train_config", "transform", "shapes", "weights_sha256"})


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    alpha: float = 0.5
    dropout_keep: float = 0.9
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    deterministic_latent: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 < self.dropout_keep <= 1.0):
            raise DomainError(f"dropout_keep must lie in (0, 1], got {self.dropout_keep}")
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise DomainError(f"patience must be >= 1, got {self.patience}")


@dataclass
class SplitArrays:
    """One split, stacked for batching: inputs (n, seq_len, d_in), outcome
    bins/events, decoder conditioning, and the raw durations for metrics.
    ``last_obs`` is -1 where the likelihood conditions on nothing."""

    x: Array
    bins: Array
    events: Array
    last_obs: Array
    cond: Array
    durations: Array
    n_bins: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.bins = np.asarray(self.bins, dtype=np.int64)
        self.events = np.asarray(self.events, dtype=np.int64)
        self.last_obs = np.asarray(self.last_obs, dtype=np.int64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        self.durations = np.asarray(self.durations, dtype=np.float64)
        n = self.x.shape[0]
        if self.x.ndim != 3:
            raise ContractError(f"x must be (n, seq_len, d_in), got shape {self.x.shape}")
        if n == 0:
            raise ContractError("a split needs at least one subject")
        for name, arr in (
            ("bins", self.bins), ("events", self.events),
            ("last_obs", self.last_obs), ("durations", self.durations),
        ):
            if arr.shape != (n,):
                raise ContractError(f"{name} must be shape ({n},), got {arr.shape}")
        if self.cond.ndim != 2 or self.cond.shape[0] != n:
            raise ContractError(f"cond must be (n, cond_dim), got {self.cond.shape}")
        if np.any(self.bins < 0) or np.any(self.bins >= self.n_bins):
            raise ContractError(f"bins must lie in [0, {self.n_bins - 1}]")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def seq_len(self) -> int:
        return self.x.shape[1]

    @property
    def d_in(self) -> int:
        return self.x.shape[2]


@dataclass
class History:
    train_l1: list[float] = field(default_factory=list)
    train_l2: list[float] = field(default_factory=list)
    train_total: list[float] = field(default_factory=list)
    val_l1: list[float] = field(default_factory=list)
    val_l2: list[float] = field(default_factory=list)
    val_total: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based

    def n_epochs(self) -> int:
        return len(self.val_total)

    def best_val_total(self) -> float:
        return self.val_total[self.best_epoch - 1]

    def best_val_l1(self) -> float:
        return self.val_l1[self.best_epoch - 1]

    def best_val_l2(self) -> float:
        return self.val_l2[self.best_epoch - 1]

    def to_csv(self, path) -> None:
        columns = ("train_l1", "train_l2", "train_total", "val_l1", "val_l2", "val_total")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", *columns])
            for i in range(self.n_epochs()):
                writer.writerow([i + 1, *(repr(getattr(self, c)[i]) for c in columns)])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First and second moments as one flat vector each, laid out as the
    parameters' raveled values concatenated in list order."""

    m: Array
    v: Array
    step: int = 0

    @staticmethod
    def init(params: list[Param]) -> "AdamState":
        size = sum(p.value.size for p in params)
        return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: list[Param], grads: dict[str, Array], lr: float) -> None:
    """One bias-corrected Adam update over all parameters as one flat
    vector, written back into each parameter's array in place."""
    g = np.concatenate([grads[p.name].ravel() for p in params])
    if not all_finite(g):
        bad = next(p for p in params if not np.isfinite(grads[p.name]).all())
        raise NumericalError(f"non-finite gradient for parameter '{bad.name}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    pos = 0
    for p in params:
        size = p.value.size
        p.value -= update[pos : pos + size].reshape(p.value.shape)
        pos += size


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _batch_graph(
    tape: Tape,
    params: DySurvParams,
    data: SplitArrays,
    idx: Array,
    config: TrainConfig,
    rng: np.random.Generator | None,
):
    """Forward + loss for one batch. ``rng`` None means deterministic
    evaluation: z = mu, dropout off. Returns (total, l1, l2) tensors."""
    xb = data.x[idx]
    batch = xb.shape[0]
    steps = [np.ascontiguousarray(xb[:, j, :]) for j in range(data.seq_len)]
    use_vae = config.alpha < 1.0
    training = rng is not None
    masks = None
    eps = None
    if training:
        if config.dropout_keep < 1.0:
            masks = draw_dropout_masks(rng, params, batch, config.dropout_keep)
        if use_vae and not config.deterministic_latent:
            eps = rng.standard_normal((batch, params.z_dim))
    mu, logvar, _, a_hat, x_recon = forward_graph(
        tape, params, steps,
        cond=data.cond[idx] if use_vae else None,
        eps=eps, keep=config.dropout_keep, masks=masks, training=training,
    )
    loss_masks = LossMasks.build(
        data.bins[idx], data.events[idx], data.last_obs[idx], data.n_bins
    )
    l1 = nll_graph(tape, a_hat, loss_masks)
    l2 = None
    if use_vae:
        l2 = vae_graph(tape, xb.reshape(batch, -1), x_recon, mu, logvar)
    total = total_loss_graph(tape, l1, l2, config.alpha)
    return total, l1, l2


def _eval_losses(params: DySurvParams, data: SplitArrays, config: TrainConfig) -> tuple[float, float]:
    """Deterministic per-subject mean (l1, l2) on a split; l2 is nan when
    alpha = 1 leaves the decoder unused."""
    n = len(data)
    sum_l1 = 0.0
    sum_l2 = 0.0
    for start in range(0, n, EVAL_CHUNK):
        idx = np.arange(start, min(start + EVAL_CHUNK, n))
        tape = Tape()
        _, l1, l2 = _batch_graph(tape, params, data, idx, config, rng=None)
        sum_l1 += float(l1.value)
        if l2 is not None:
            sum_l2 += float(l2.value)
    mean_l1 = sum_l1 / n
    mean_l2 = sum_l2 / n if config.alpha < 1.0 else float("nan")
    return mean_l1, mean_l2


def fit(
    train: SplitArrays,
    val: SplitArrays,
    config: TrainConfig,
    *,
    model_config: ModelConfig | None = None,
) -> tuple[DySurvParams, History]:
    """Minibatch training with early stopping on validation total loss.

    Returns the parameters of the best validation epoch and the per-epoch
    history.
    """
    if train.seq_len != val.seq_len or train.d_in != val.d_in:
        raise ContractError("train and val arrays disagree on input shape")
    if train.n_bins != val.n_bins:
        raise ContractError("train and val arrays disagree on bin count")
    rng = np.random.default_rng(config.seed)
    params = init_dysurv_params(rng, train.d_in, train.seq_len, train.n_bins, model_config)
    if config.alpha < 1.0 and train.cond.shape[1] != params.cond_dim:
        raise ContractError(
            f"conditioning width {train.cond.shape[1]} does not match the "
            f"decoder's expected {params.cond_dim}"
        )
    plist = params.parameters()
    adam = AdamState.init(plist)
    n = len(train)
    history = History()
    best_val = math.inf
    best_values: dict[str, Array] = {}
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_l1 = 0.0
        epoch_l2 = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            try:
                tape = Tape()
                total, l1, l2 = _batch_graph(tape, params, train, idx, config, rng)
                mean_total = tape.mul(total, 1.0 / idx.size)
                grads = tape.backward(mean_total, params=plist)
            except NumericalError as err:
                raise NumericalError(
                    f"epoch {epoch}, batch {batch_no}: {err.message}"
                ) from err
            epoch_l1 += float(l1.value)
            if l2 is not None:
                epoch_l2 += float(l2.value)
            adam_step(adam, plist, grads, config.learning_rate)

        train_l1 = epoch_l1 / n
        train_l2 = epoch_l2 / n if config.alpha < 1.0 else float("nan")
        train_total = train_l1 if config.alpha == 1.0 else loss_total(train_l1, train_l2, config.alpha)
        val_l1, val_l2 = _eval_losses(params, val, config)
        val_total = val_l1 if config.alpha == 1.0 else loss_total(val_l1, val_l2, config.alpha)
        history.train_l1.append(train_l1)
        history.train_l2.append(train_l2)
        history.train_total.append(train_total)
        history.val_l1.append(val_l1)
        history.val_l2.append(val_l2)
        history.val_total.append(val_total)

        if val_total < best_val:
            best_val = val_total
            history.best_epoch = epoch
            best_values = {p.name: p.value.copy() for p in plist}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    for p in plist:
        p.value[...] = best_values[p.name]
    return params, history


# ---------------------------------------------------------------------------
# independent jobs on forked workers
# ---------------------------------------------------------------------------

_pool_jobs = None  # (fn, jobs) while a pool runs; its workers inherit it


def _run_pool_job(index: int):
    fn, jobs = _pool_jobs
    return fn(jobs[index])


def _map_jobs(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]`` on up to one forked worker per
    available CPU, in input order.

    The workers inherit ``fn`` and ``jobs`` through the fork, so only an
    index goes out and only ``fn``'s picklable result comes back. Runs
    inline on one CPU, where ``fork`` is unavailable, inside a daemon
    process (a pool worker among them), which may not have children, and
    while another Python thread runs, which could hold a lock across the
    fork.
    """
    global _pool_jobs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers > 1:
        import multiprocessing  # not at module level: `import dysurv` stays cheap
        import threading

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1
        ):
            workers = 1
    if workers <= 1:
        return [fn(job) for job in jobs]
    _pool_jobs = (fn, jobs)
    try:
        # The workers fork in the constructor, before the pool starts its
        # threads; leaving the block on an error terminates and joins them.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_pool_job, range(len(jobs)), chunksize=1)
            pool.close()
            pool.join()
    finally:
        _pool_jobs = None
    return results


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


_SWEPT = ("learning_rate", "batch_size", "alpha", "dropout_keep")  # one per grid axis


@dataclass
class GridSearchSpace:
    learning_rates: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    batch_sizes: tuple[int, ...] = (64, 256)
    alphas: tuple[float, ...] = (0.2, 0.5, 0.8)
    dropout_keeps: tuple[float, ...] = (0.7, 0.9)

    def __post_init__(self):
        for name in ("learning_rates", "batch_sizes", "alphas", "dropout_keeps"):
            if len(getattr(self, name)) == 0:
                raise ContractError(f"grid axis {name} must be nonempty")

    def configs(self, base: TrainConfig) -> list[TrainConfig]:
        axes = (self.learning_rates, self.batch_sizes, self.alphas, self.dropout_keeps)
        return [replace(base, **dict(zip(_SWEPT, values))) for values in itertools.product(*axes)]


@dataclass
class TrialResult:
    config: TrainConfig
    status: str  # "ok" | "failed"
    val_total: float | None = None
    val_l1: float | None = None
    val_l2: float | None = None
    best_epoch: int | None = None
    n_epochs: int | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        """The swept config values, then the row's own fields."""
        row = asdict(self)
        config = row.pop("config")
        return {**{name: config[name] for name in _SWEPT}, **row}


def _grid_trial(
    train: SplitArrays, val: SplitArrays, model_config: ModelConfig | None, config: TrainConfig
) -> TrialResult:
    try:
        _, history = fit(train, val, config, model_config=model_config)
    except DySurvError as err:
        return TrialResult(config=config, status="failed", error=str(err))
    return TrialResult(
        config=config,
        status="ok",
        val_total=history.best_val_total(),
        val_l1=history.best_val_l1(),
        val_l2=history.best_val_l2(),
        best_epoch=history.best_epoch,
        n_epochs=history.n_epochs(),
    )


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    leaderboard: list[TrialResult]

    def to_json_dict(self) -> dict:
        return {
            "best": asdict(self.best_config),
            "leaderboard": [t.to_json_dict() for t in self.leaderboard],
        }


def grid_search(
    train: SplitArrays,
    val: SplitArrays,
    space: GridSearchSpace | None = None,
    *,
    base: TrainConfig | None = None,
    model_config: ModelConfig | None = None,
) -> GridSearchResult:
    """Exhaustive sweep over the four hyperparameter axes.

    Each trial early-stops on its own blended validation loss, but trials
    are ranked by the recorded validation NLL: the blend weights differ
    across alpha, so the NLL is the only component on a common scale.
    Exact ties fall to the smaller learning rate, then the larger batch.
    Trials that abort are kept on the leaderboard with their error; if
    every trial aborts the search fails listing all of them.
    """
    space = space or GridSearchSpace()
    base = base or TrainConfig()
    leaderboard = _map_jobs(
        partial(_grid_trial, train, val, model_config), space.configs(base)
    )
    ok = [t for t in leaderboard if t.status == "ok"]
    if not ok:
        details = "; ".join(
            f"(lr={t.config.learning_rate}, batch={t.config.batch_size}, "
            f"alpha={t.config.alpha}, keep={t.config.dropout_keep}): {t.error}"
            for t in leaderboard
        )
        raise SearchFailureError(f"every grid trial failed: {details}")
    best = min(
        ok,
        key=lambda t: (t.val_l1, t.config.learning_rate, -t.config.batch_size),
    )
    return GridSearchResult(best_config=best.config, leaderboard=leaderboard)


# ---------------------------------------------------------------------------
# multi-seed evaluation
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    seed: int
    report: EvalReport | None = None
    val_nll: float | None = None
    val_total: float | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        d: dict = {"seed": self.seed}
        if self.report is not None:
            d.update(self.report.to_json_dict())
            d["val_nll"] = self.val_nll
            d["val_total"] = self.val_total
        if self.error is not None:
            d["error"] = self.error
        return d


def _seed_refit(
    train: SplitArrays,
    val: SplitArrays,
    test: SplitArrays,
    grid: TimeGrid,
    model_config: ModelConfig | None,
    config: TrainConfig,
) -> SeedResult:
    try:
        params, history = fit(train, val, config, model_config=model_config)
        probs = predict_risk_batch(params, test.x)
        curves = SurvivalCurves.from_bin_probs(probs, grid)
        report = evaluate_all(curves, test.durations, test.events)
    except DySurvError as err:
        return SeedResult(seed=config.seed, error=str(err))
    return SeedResult(
        seed=config.seed,
        report=report,
        val_nll=history.best_val_l1(),
        val_total=history.best_val_total(),
    )


@dataclass
class MultiSeedReport:
    rows: list[SeedResult]
    mean: EvalReport | None
    mean_val_nll: float | None
    incomplete: bool

    def to_json_dict(self) -> dict:
        return {
            "per_seed": [r.to_json_dict() for r in self.rows],
            "mean": self.mean.to_json_dict() if self.mean is not None else None,
            "mean_val_nll": self.mean_val_nll,
            "incomplete": self.incomplete,
        }


def multi_seed_report(
    train: SplitArrays,
    val: SplitArrays,
    test: SplitArrays,
    grid: TimeGrid,
    config: TrainConfig,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    *,
    model_config: ModelConfig | None = None,
) -> MultiSeedReport:
    """Refit with each seed, evaluate on the test split, and average.

    A seed that aborts keeps its error in the row and flags the whole
    report incomplete; the mean covers the seeds that finished.
    """
    if len(set(seeds)) != len(seeds) or len(seeds) < 1:
        raise ContractError("seeds must be distinct and nonempty")
    rows = _map_jobs(
        partial(_seed_refit, train, val, test, grid, model_config),
        [replace(config, seed=seed) for seed in seeds],
    )
    done = [r for r in rows if r.report is not None]
    mean = None
    mean_val_nll = None
    if done:
        mean = EvalReport(
            c_td=float(np.mean([r.report.c_td for r in done])),
            ibs=float(np.mean([r.report.ibs for r in done])),
            inbll=float(np.mean([r.report.inbll for r in done])),
            n_eval_times=done[0].report.n_eval_times,
        )
        mean_val_nll = float(np.mean([r.val_nll for r in done]))
    return MultiSeedReport(
        rows=rows,
        mean=mean,
        mean_val_nll=mean_val_nll,
        incomplete=len(done) < len(seeds),
    )


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def gradient_check(seed: int = 0) -> float:
    """Worst relative error of analytic vs central-difference gradients on
    one training step's blended loss over a small random model (latent
    noise fixed, dropout off). Below 1e-5 the backward pass is trustworthy."""
    batch, seq_len, d_in, n_bins = 4, 3, 6, 5
    rng = np.random.default_rng(seed)
    model_config = ModelConfig(
        hidden_size=4, z_dim=3, decoder_hidden=(4,), survival_hidden=(4,),
        condition_mode="both",
    )
    params = init_dysurv_params(rng, d_in, seq_len, n_bins, model_config)
    x = rng.standard_normal((batch, seq_len, d_in))
    bins = rng.integers(0, n_bins, size=batch)
    events = rng.integers(0, 2, size=batch)
    events[0] = 1
    events[-1] = 0
    data = SplitArrays(
        x=x, bins=bins, events=events, last_obs=np.where(bins > 0, bins - 1, -1),
        cond=condition_matrix(events, bins, n_bins, "both"),
        durations=bins + 0.5, n_bins=n_bins,
    )
    config = TrainConfig(alpha=0.5, dropout_keep=1.0)

    def build():  # a fresh generator per build draws the same latent noise
        tape = Tape()
        rng_eps = np.random.default_rng(seed)
        total = _batch_graph(tape, params, data, np.arange(batch), config, rng_eps)[0]
        return tape, tape.mul(total, 1.0 / batch)

    return finite_difference_check(build, params.parameters())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: DySurvParams
    schema: FeatureSchema
    grid: TimeGrid
    train_config: TrainConfig | None
    transform: QuantileTransform | None
    header: dict

    @property
    def model_config(self) -> ModelConfig:
        return self.params.config


def _header_disagreement(schema: FeatureSchema, grid: TimeGrid, d_in, n_bins) -> str | None:
    """Why ``schema`` and ``grid`` cannot describe a model of this input
    width and bin count, or None when they can."""
    width = len(schema.static_columns()) + len(schema.time_varying)
    if width != d_in:
        return f"the schema encodes {width} features, the weights read {d_in}"
    if grid.n_bins != n_bins:
        return f"the grid has {grid.n_bins} bins, the weights {n_bins}"
    return None


def save_checkpoint(
    path,
    params: DySurvParams,
    *,
    schema: FeatureSchema,
    grid: TimeGrid,
    train_config: TrainConfig | None = None,
    transform: QuantileTransform | None = None,
    grid_search: GridSearchResult | None = None,
) -> None:
    """Versioned binary checkpoint: magic, JSON header, float64 weights.
    Raises ContractError when ``schema`` or ``grid`` does not fit ``params``
    and NumericalError when a weight is NaN or ±inf, before any file is
    opened."""
    why = _header_disagreement(schema, grid, params.d_in, params.n_bins)
    if why:
        raise ContractError(f"cannot save this checkpoint: {why}")
    plist = params.parameters()
    weights = np.concatenate([p.value.ravel() for p in plist]).astype("<f8")
    if not all_finite(weights):
        bad = next(p for p in plist if not np.isfinite(p.value).all())
        raise NumericalError(f"cannot save this checkpoint: parameter '{bad.name}' is not finite")
    header = {
        "version": CHECKPOINT_VERSION,
        "schema_hash": schema.hash(),
        "schema": asdict(schema),
        "grid": {"n_bins": grid.n_bins, "t_max": grid.t_max},
        "dims": {"d_in": params.d_in, "seq_len": params.seq_len, "n_bins": params.n_bins},
        "model_config": asdict(params.config),
        "train_config": asdict(train_config) if train_config else None,
        "transform": transform.canonical() if transform else None,
        "shapes": [[p.name, list(p.value.shape)] for p in plist],
    }
    if grid_search is not None:
        header["grid_search"] = grid_search.to_json_dict()
    weight_bytes = weights.tobytes()
    header["weights_sha256"] = hashlib.sha256(weight_bytes).hexdigest()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(weight_bytes)


def load_checkpoint(path, expected_schema: FeatureSchema | None = None) -> Checkpoint:
    """Read a checkpoint back; reconstruction is bit-exact.

    ``expected_schema`` guards use on a different dataset: a hash mismatch
    raises the incompatibility error rather than producing predictions on
    misaligned features. The file is corrupt when its header keys are not
    ``HEADER_KEYS`` plus an optional ``grid_search``, when its schema, grid
    or a config does not hold exactly its dataclass's fields of their
    declared kinds, when its dims are not exactly the ints ``d_in``,
    ``seq_len`` and ``n_bins``, when a quantile table is malformed (see
    ``QuantileTransform.from_canonical``) or the tables are not one per
    numeric static and series feature of its schema, when its schema or
    grid disagrees with its dims, and when a weight is not finite.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise NoCheckpointError(f"no checkpoint at {path}") from None
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointCorruptError(f"checkpoint {path} is truncated")
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"checkpoint {path} has a wrong magic string")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack("<Q", raw[offset : offset + 8])
    offset += 8
    if len(raw) < offset + header_len:
        raise CheckpointCorruptError(f"checkpoint {path} header is truncated")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointCorruptError(f"checkpoint {path} header is unreadable: {err}") from None
    offset += header_len
    if not isinstance(header, dict):
        raise CheckpointCorruptError(f"checkpoint {path} header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointIncompatibleError(
            f"checkpoint version {header.get('version')} is not supported"
        )
    if header.keys() - {"grid_search"} != HEADER_KEYS:
        raise CheckpointCorruptError(f"checkpoint {path} header has keys {sorted(header)}")
    try:  # a field that is missing or of the wrong kind fails here
        schema = dataclass_from_json(FeatureSchema, header["schema"])
        dims = header["dims"]
        if not (_holds(dict[str, int], dims) and dims.keys() == {"d_in", "seq_len", "n_bins"}):
            raise SchemaError(f"dims holds exactly the ints d_in, seq_len and n_bins, got {dims!r}")
        params = init_dysurv_params(
            np.random.default_rng(0), dims["d_in"], dims["seq_len"], dims["n_bins"],
            dataclass_from_json(ModelConfig, header["model_config"]),
        )
        stored = [(name, tuple(shape)) for name, shape in header["shapes"]]
        grid = dataclass_from_json(TimeGrid, header["grid"])
        train_config, transform = header["train_config"], header["transform"]
        if train_config is not None:
            train_config = dataclass_from_json(TrainConfig, train_config)
        if transform is not None:
            transform = QuantileTransform.from_canonical(transform)
            if transform.tables.keys() != {*schema.numeric_static, *schema.time_varying}:
                raise SchemaError(f"quantile tables {sorted(transform.tables)} are not the "
                                  "schema's numeric statics and series features")
    except (DySurvError, KeyError, TypeError, ValueError, AttributeError) as err:
        raise CheckpointCorruptError(f"checkpoint {path} header is malformed: {err!r}") from None
    if schema.hash() != header["schema_hash"]:
        raise CheckpointCorruptError("schema hash does not match the stored schema")
    why = _header_disagreement(schema, grid, params.d_in, params.n_bins)
    if why:
        raise CheckpointCorruptError(f"checkpoint {path} header disagrees with itself: {why}")
    if expected_schema is not None and expected_schema.hash() != header["schema_hash"]:
        raise CheckpointIncompatibleError(
            "checkpoint was trained against a different feature schema"
        )
    plist = params.parameters()
    built = [(p.name, p.value.shape) for p in plist]
    if stored != built:
        raise CheckpointIncompatibleError(
            "stored parameter shapes do not match this architecture"
        )
    n_weights = sum(int(np.prod(s)) for _, s in stored)
    block = raw[offset:]
    if len(block) != n_weights * 8:
        raise CheckpointCorruptError(
            f"weight block holds {len(block)} bytes, expected {n_weights * 8}"
        )
    digest = hashlib.sha256(block).hexdigest()
    if digest != header["weights_sha256"]:
        raise CheckpointCorruptError("weight block digest mismatch")
    flat = np.frombuffer(block, dtype="<f8")
    if not all_finite(flat):  # the tape checks computed values, not weights
        raise CheckpointCorruptError(f"checkpoint {path} holds a non-finite weight")
    pos = 0
    for p in plist:
        size = p.value.size
        p.value[...] = flat[pos : pos + size].reshape(p.value.shape)
        pos += size
    return Checkpoint(
        params=params,
        schema=schema,
        grid=grid,
        train_config=train_config,
        transform=transform,
        header=header,
    )
