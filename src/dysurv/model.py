"""Conditional-VAE survival model over a discrete time grid.

An LSTM encoder reads the replicated static + longitudinal matrix and its
final hidden state feeds two linear heads, mu and logvar. The survival
head pushes mu through a softmax over K + 1 bins: K interval bins plus one
beyond-horizon bin, which keeps every censored likelihood term strictly
positive. It reads mu in training as well as at inference, so the head is
fitted on the same input it is validated and served on. Only the decoder
reads the sampled z = mu + eps * sigma: in training it reconstructs the
input from z and a condition vector built from the outcome, which keeps
the VAE term a variational objective. At inference the decoder is not
used.

The survival likelihood for an event in bin b conditions on surviving the
observation window: -log( a_b / (1 - sum_{n <= l} a_n) ) with l the last
observed bin; censored subjects contribute -log(1 - F(bin)). Complements
are evaluated as suffix sums of the softmax, which is the same quantity
without cancellation. The VAE term is the per-subject reconstruction MSE
plus the Gaussian KL, 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2), and the
total training loss is alpha * L_nll + (1 - alpha) * L_vae.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Param, Tape, Tensor, dense_values, lstm_values
from .errors import ContractError, DomainError
from .nn import (
    DenseLayerParams,
    LSTMCellParams,
    dense_forward,
    init_dense,
    init_lstm,
    lstm_forward,
)

Array = np.ndarray

PROB_FLOOR = 1e-12
CONDITION_MODES = ("labels", "times", "both")


@dataclass
class ModelConfig:
    """Architecture knobs; sizes follow the data, these set capacity."""

    hidden_size: int = 64
    z_dim: int = 16
    decoder_hidden: tuple[int, ...] = (64,)
    survival_hidden: tuple[int, ...] = (32,)
    condition_mode: str = "both"

    def __post_init__(self):
        if self.condition_mode not in CONDITION_MODES:
            raise ContractError(
                f"condition_mode '{self.condition_mode}' not one of {CONDITION_MODES}"
            )
        if self.hidden_size < 1 or self.z_dim < 1:
            raise ContractError("hidden_size and z_dim must be positive")


def condition_dim(mode: str, n_bins: int) -> int:
    if mode == "labels":
        return 2
    if mode == "times":
        return n_bins + 1
    return 2 + n_bins + 1


@dataclass
class DySurvParams:
    """All trainable parameters, the data shape they were built for, and
    the architecture that built them."""

    encoder: LSTMCellParams
    mu_head: DenseLayerParams
    logvar_head: DenseLayerParams
    decoder: list[DenseLayerParams]
    survival: list[DenseLayerParams]
    d_in: int
    seq_len: int
    n_bins: int
    config: ModelConfig

    @property
    def z_dim(self) -> int:
        return self.config.z_dim

    @property
    def condition_mode(self) -> str:
        return self.config.condition_mode

    @property
    def cond_dim(self) -> int:
        return condition_dim(self.condition_mode, self.n_bins)

    def parameters(self) -> list[Param]:
        out = self.encoder.parameters()
        out += self.mu_head.parameters() + self.logvar_head.parameters()
        for layer in self.decoder:
            out += layer.parameters()
        for layer in self.survival:
            out += layer.parameters()
        return out


def init_dysurv_params(
    rng: np.random.Generator,
    d_in: int,
    seq_len: int,
    n_bins: int,
    config: ModelConfig | None = None,
) -> DySurvParams:
    config = config or ModelConfig()
    if d_in < 1 or seq_len < 1 or n_bins < 1:
        raise ContractError("d_in, seq_len and n_bins must all be positive")
    encoder = init_lstm(rng, d_in, config.hidden_size, "enc")
    mu_head = init_dense(rng, config.hidden_size, config.z_dim, "identity", "mu")
    logvar_head = init_dense(rng, config.hidden_size, config.z_dim, "identity", "logvar")

    survival = []
    prev = config.z_dim
    for i, width in enumerate(config.survival_hidden):
        survival.append(init_dense(rng, prev, width, "tanh", f"sur{i}"))
        prev = width
    survival.append(init_dense(rng, prev, n_bins + 1, "softmax", "sur_out"))

    decoder = []
    prev = config.z_dim + condition_dim(config.condition_mode, n_bins)
    for i, width in enumerate(config.decoder_hidden):
        decoder.append(init_dense(rng, prev, width, "tanh", f"dec{i}"))
        prev = width
    decoder.append(init_dense(rng, prev, seq_len * d_in, "identity", "dec_out"))

    return DySurvParams(
        encoder=encoder,
        mu_head=mu_head,
        logvar_head=logvar_head,
        decoder=decoder,
        survival=survival,
        d_in=d_in,
        seq_len=seq_len,
        n_bins=n_bins,
        config=config,
    )


def condition_matrix(events: Array, bins: Array, n_bins: int, mode: str) -> Array:
    """Outcome conditioning for the decoder: event one-hot [censored, event]
    and/or a duration-bin one-hot of width n_bins + 1."""
    if mode not in CONDITION_MODES:
        raise ContractError(f"condition mode '{mode}' not one of {CONDITION_MODES}")
    events = np.asarray(events, dtype=np.int64)
    bins = np.asarray(bins, dtype=np.int64)
    n = events.shape[0]
    parts = []
    if mode in ("labels", "both"):
        lab = np.zeros((n, 2))
        lab[np.arange(n), events] = 1.0
        parts.append(lab)
    if mode in ("times", "both"):
        if np.any(bins < 0) or np.any(bins > n_bins):
            raise DomainError("duration bins outside [0, n_bins]")
        tim = np.zeros((n, n_bins + 1))
        tim[np.arange(n), bins] = 1.0
        parts.append(tim)
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


def draw_dropout_masks(
    rng: np.random.Generator, params: DySurvParams, batch: int, keep: float
) -> dict[str, Array]:
    """Pre-draw 0/1 keep masks for every dropout site of one forward pass."""
    masks = {"enc": (rng.random((batch, params.encoder.hidden)) < keep).astype(np.float64)}
    for i, layer in enumerate(params.survival[:-1]):
        masks[f"sur{i}"] = (rng.random((batch, layer.d_out)) < keep).astype(np.float64)
    for i, layer in enumerate(params.decoder[:-1]):
        masks[f"dec{i}"] = (rng.random((batch, layer.d_out)) < keep).astype(np.float64)
    return masks


def forward_graph(
    tape: Tape,
    params: DySurvParams,
    x_steps: list[Array],
    *,
    cond: Array | None = None,
    eps: Array | None = None,
    keep: float = 1.0,
    masks: dict[str, Array] | None = None,
    training: bool = False,
):
    """Build the full forward pass on the tape for a batch.

    ``x_steps`` is the input split per timestep, each (batch, d_in).
    The survival head always reads mu. Passing ``eps`` samples
    z = mu + eps * sigma for the decoder; without it z is mu. Passing
    ``cond`` builds the reconstruction branch. Returns (mu, logvar, z,
    a_hat, x_recon) tensors, x_recon None when ``cond`` is None.
    """
    dropping = training and keep < 1.0
    if dropping and masks is None:
        raise ContractError("training with keep < 1 requires pre-drawn dropout masks")

    h = lstm_forward(tape, params.encoder, x_steps)
    if dropping:
        h = tape.dropout(h, keep, masks["enc"])
    mu = dense_forward(tape, params.mu_head, h)
    logvar = dense_forward(tape, params.logvar_head, h)
    z = mu if eps is None else reparameterize_graph(tape, mu, logvar, eps)

    s = mu
    for i, layer in enumerate(params.survival[:-1]):
        s = dense_forward(tape, layer, s)
        if dropping:
            s = tape.dropout(s, keep, masks[f"sur{i}"])
    a_hat = dense_forward(tape, params.survival[-1], s)

    x_recon = None
    if cond is not None:
        d = decoder_input_graph(tape, z, cond)
        for i, layer in enumerate(params.decoder[:-1]):
            d = dense_forward(tape, layer, d)
            if dropping:
                d = tape.dropout(d, keep, masks[f"dec{i}"])
        x_recon = dense_forward(tape, params.decoder[-1], d)
    return mu, logvar, z, a_hat, x_recon


def reparameterize_graph(tape: Tape, mu: Tensor, logvar: Tensor, eps: Array) -> Tensor:
    """z = mu + sigma * eps with sigma = exp(logvar * 0.5), as one tape node
    over mu and logvar; the standard-normal draw ``eps`` is a constant.

    Values and gradients follow the order of the composed ``mul``/``exp``/
    ``add`` nodes: d mu = g and d logvar = ((g * eps) * sigma) * 0.5. eps
    and sigma are checked as well as z, so an overflowing sigma raises
    naming ``'reparameterize'``.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if not (mu.shape == logvar.shape == eps.shape):
        raise ContractError(f"reparameterize shapes {mu.shape}, {logvar.shape}, {eps.shape} differ")
    sigma = np.exp(logvar.value * 0.5)

    def vjp(g):
        return g, ((g * eps) * sigma) * 0.5

    return tape.record("reparameterize", mu.value + sigma * eps, (mu, logvar), vjp,
                       intermediates=(sigma, eps))


def decoder_input_graph(tape: Tape, z: Tensor, cond: Array) -> Tensor:
    """The decoder input [z | cond] as one tape node over z; the outcome
    condition is a constant, so z's gradient is the first z_dim columns."""
    cond = np.asarray(cond, dtype=np.float64)
    if z.value.ndim != 2 or cond.ndim != 2 or cond.shape[0] != z.shape[0]:
        raise ContractError(f"decoder input rows disagree: z {z.shape}, cond {cond.shape}")
    width = z.shape[1]
    return tape.record("decoder_input", np.concatenate([z.value, cond], axis=1), (z,),
                       lambda g: (g[:, :width],))


def predict_risk_batch(params: DySurvParams, x: Array) -> Array:
    """Bin masses for a (batch, seq_len, d_in) stack with z = mu.

    Runs the encoder, the mu head and the survival layers through the
    kernels the tape nodes use, and records no tape. The logvar head and
    the decoder are skipped: the bin masses read neither.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (params.seq_len, params.d_in):
        raise ContractError(
            f"expected (batch, {params.seq_len}, {params.d_in}) inputs, got {x.shape}"
        )
    enc = params.encoder
    steps = [x[:, j, :] for j in range(params.seq_len)]
    s = lstm_values(steps, enc.w_x.value, enc.w_h.value, enc.b.value)
    for layer in (params.mu_head, *params.survival):
        s = dense_values(s, layer.weight.value, layer.bias.value, layer.activation)
    return s


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_total(l1: float, l2: float, alpha: float) -> float:
    """alpha-weighted blend; alpha = 1 recovers the plain logistic hazard."""
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * l1 + (1.0 - alpha) * l2


@dataclass
class LossMasks:
    """Constant 0/1 matrices that express the likelihood as tape primitives.
    ``build`` takes each subject's last observed bin, -1 where it has none."""

    onehot: Array
    after_last: Array
    after_bin: Array
    is_event: Array
    is_censored: Array

    @staticmethod
    def build(bins, events, last_obs_bins, n_bins: int) -> "LossMasks":
        bins = np.asarray(bins, dtype=np.int64)
        events = np.asarray(events, dtype=np.int64)
        last_obs = np.asarray(last_obs_bins, dtype=np.int64)
        cols = np.arange(n_bins + 1)
        onehot = (cols[None, :] == bins[:, None]).astype(np.float64)
        after_last = (cols[None, :] > last_obs[:, None]).astype(np.float64)
        after_bin = (cols[None, :] > bins[:, None]).astype(np.float64)
        return LossMasks(
            onehot=onehot,
            after_last=after_last,
            after_bin=after_bin,
            is_event=(events == 1).astype(np.float64),
            is_censored=(events == 0).astype(np.float64),
        )


def nll_graph(tape: Tape, a_hat: Tensor, masks: LossMasks) -> Tensor:
    """Discrete-time NLL summed over the batch, as one tape node: event
    subjects contribute -log(a_bin / sum_{n > l} a_n) with l the last
    observed bin (l = -1 conditions on nothing), censored subjects
    -log(sum_{n > bin} a_n). Probabilities are clamped to [PROB_FLOOR, 1]
    before the log.

    Every product, sum and clamp is taken as the composition of
    ``mul``/``sum``/``clip``/``log`` nodes took it, and the gradient of
    ``a_hat`` sums the censored, event-window and picked-bin terms in that
    order. The three masked sums are checked, since the clamp would hide
    their overflow.
    """
    a = a_hat.value
    if a.shape != masks.onehot.shape:
        raise ContractError(f"nll shape mismatch: {a.shape} vs {masks.onehot.shape}")
    sums = [(a * m).sum(axis=1) for m in (masks.onehot, masks.after_last, masks.after_bin)]
    inside = [(v >= PROB_FLOOR) & (v <= 1.0) for v in sums]
    pick, den_evt, den_cen = (np.clip(v, PROB_FLOOR, 1.0) for v in sums)
    evt_terms = np.log(den_evt) - np.log(pick)
    cen_terms = np.log(den_cen) * -1.0
    per_subject = evt_terms * masks.is_event + cen_terms * masks.is_censored

    def vjp(g):
        g_evt = g * masks.is_event
        d_cen = (g * masks.is_censored) * -1.0 / den_cen * inside[2]
        d_evt = g_evt / den_evt * inside[1]
        d_pick = -g_evt / pick * inside[0]
        d_a = d_cen[:, None] * masks.after_bin
        d_a = d_a + d_evt[:, None] * masks.after_last
        return (d_a + d_pick[:, None] * masks.onehot,)

    return tape.record("nll", np.asarray(per_subject.sum()), (a_hat,), vjp,
                       intermediates=sums)


def vae_graph(tape: Tape, x_flat: Array, x_recon: Tensor, mu: Tensor, logvar: Tensor) -> Tensor:
    """Reconstruction MSE plus Gaussian KL, summed over the batch and
    parameterized by logvar, as one tape node. The MSE is the mean over
    each subject's input entries, so its scale does not grow with
    sequence length or width.

    Values and gradients follow the order of the composed ``sub``/
    ``square``/``mean``/``exp``/``sum`` nodes; d logvar is (-g) + g * sigma^2.
    Checking the result suffices: every term is nonnegative up to
    rounding, so a non-finite one, such as an overflowing exp(logvar),
    makes the sum +inf or NaN.
    """
    xr, m, lv = x_recon.value, mu.value, logvar.value
    x_flat = np.asarray(x_flat, dtype=np.float64)
    if xr.shape != x_flat.shape or m.shape != lv.shape or xr.ndim != 2 or m.ndim != 2:
        raise ContractError(
            f"vae shapes disagree: x {x_flat.shape}, x_recon {xr.shape}, "
            f"mu {m.shape}, logvar {lv.shape}"
        )
    diff = xr - x_flat
    mse = (diff * diff).mean(axis=1)
    sig2 = np.exp(lv)
    inner = m * m + sig2 - 1.0 - lv
    per_subject = mse + inner.sum(axis=1) * 0.5

    def vjp(g):  # g is the scalar upstream gradient, the same for every row
        g_inner = g * 0.5
        return 2.0 * diff * (g / diff.shape[1]), 2.0 * m * g_inner, (-g_inner) + g_inner * sig2

    return tape.record("vae", np.asarray(per_subject.sum()), (x_recon, mu, logvar), vjp)


def total_loss_graph(tape: Tape, l1: Tensor, l2: Tensor | None, alpha: float) -> Tensor:
    """:func:`loss_total` as one tape node over l1 and l2; alpha = 1 returns
    l1 and records nothing. The gradients are g * alpha and g * (1 - alpha),
    the products the composed ``mul``/``add`` nodes took."""
    value = loss_total(l1.value, 0.0 if l2 is None else l2.value, alpha)  # checks alpha
    if alpha == 1.0:
        return l1
    if l2 is None:
        raise ContractError("alpha < 1 needs the VAE branch on the tape")
    return tape.record("total", np.asarray(value), (l1, l2),
                       lambda g: (g * alpha, g * (1.0 - alpha)))
