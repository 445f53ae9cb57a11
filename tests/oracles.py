"""Slow brute-force metric implementations used as oracles by the metric
tests and the acceptance gate, numpy references for the tape losses, and
the per-gate tape composition of the LSTM that the fused primitive
replaces. Kept deliberately naive: different formulation, same definition
as the fast paths."""

import numpy as np

from dysurv.autodiff import Param
from dysurv.data import TimeGrid
from dysurv.errors import ContractError, DomainError, NumericalError
from dysurv.metrics import SurvivalCurves
from dysurv.model import PROB_FLOOR
from dysurv.nn import glorot_uniform


def naive_km_value(durations, events, t, strict=False):
    """Product over distinct event times <= t (or < t), one factor at a time."""
    durations = np.asarray(durations, dtype=np.float64)
    events = np.asarray(events)
    s = 1.0
    for u in np.unique(durations):
        if (u < t) if strict else (u <= t):
            r = int((durations >= u).sum())
            d = int(((durations == u) & (events == 1)).sum())
            if d > 0:
                s = s * (1.0 - d / r)
    return s


def naive_concordance(curves, durations, events):
    """Pairwise double loop; returns None when no pair is comparable."""
    concordant = 0.0
    comparable = 0
    n = len(durations)
    for i in range(n):
        if events[i] != 1:
            continue
        row = curves.at(durations[i])
        s_i = row[i]
        for j in range(n):
            if j == i:
                continue
            ok = durations[j] > durations[i] or (
                durations[j] == durations[i] and events[j] == 0
            )
            if not ok:
                continue
            comparable += 1
            if s_i < row[j]:
                concordant += 1
            elif s_i == row[j]:
                concordant += 0.5
    if comparable == 0:
        return None
    return concordant / comparable


def naive_brier(curves, durations, events, t):
    """Per-subject loop with a from-scratch censoring weight per term."""
    n = len(durations)
    total = 0.0
    for i in range(n):
        s = float(curves.single(i).at(t)[0])
        if durations[i] <= t and events[i] == 1:
            g = naive_km_value(durations, 1 - np.asarray(events), durations[i], strict=True)
            total += (0.0 - s) ** 2 / g
        elif durations[i] > t:
            g = naive_km_value(durations, 1 - np.asarray(events), t)
            total += (1.0 - s) ** 2 / g
    return total / n


def random_instance(rng, n, n_bins=8):
    """Random durations, events, and valid survival curves for oracle runs."""
    durations = rng.uniform(0.1, 10.0, size=n)
    events = rng.integers(0, 2, size=n)
    logits = rng.standard_normal((n, n_bins + 1))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    grid = TimeGrid(n_bins=n_bins, t_max=10.0)
    return durations, events, SurvivalCurves.from_bin_probs(probs, grid)


def _suffix_sums(probs):
    """suffix[i, k] = sum of probs[i, k:]; column K+1 would be zero."""
    return np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]


def _validate_nll_inputs(probs, bins, events, last_obs_bins):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ContractError("probs must be (n, n_bins + 1)")
    n, kp1 = probs.shape
    bins = np.asarray(bins, dtype=np.int64)
    events = np.asarray(events, dtype=np.int64)
    if last_obs_bins is None:
        last_obs_bins = np.full(n, -1, dtype=np.int64)
    else:
        last_obs_bins = np.asarray(last_obs_bins, dtype=np.int64)
    if not (bins.shape == events.shape == last_obs_bins.shape == (n,)):
        raise ContractError("bins, events and last_obs_bins must all be (n,)")
    if np.any(bins < 0) or np.any(bins > kp1 - 2):
        raise DomainError("event/censor bins must lie in [0, n_bins - 1]")
    if np.any((events != 0) & (events != 1)):
        raise DomainError("events must be 0 or 1")
    if np.any(last_obs_bins < -1) or np.any(last_obs_bins > bins):
        raise DomainError(
            "last observed bin must lie in [-1, bin]; -1 means no observation window"
        )
    return probs, bins, events, last_obs_bins


def loss_survival_nll(probs, bins, events, last_obs_bins=None) -> float:
    """Discrete-time negative log likelihood, summed over the batch.

    Event subjects contribute -log(a_bin / sum_{n > l} a_n) with l the last
    observed bin (l = -1 conditions on nothing); censored subjects
    contribute -log(sum_{n > bin} a_n). Probabilities are clamped to
    [1e-12, 1] before the log.
    """
    probs, bins, events, last_obs = _validate_nll_inputs(probs, bins, events, last_obs_bins)
    n = probs.shape[0]
    idx = np.arange(n)
    suffix = _suffix_sums(probs)
    pick = probs[idx, bins]
    den_evt = suffix[idx, last_obs + 1]
    den_cen = suffix[idx, bins + 1]
    bad_evt = (events == 1) & (den_evt <= 0)
    bad_cen = (events == 0) & (den_cen <= 0)
    if bad_evt.any() or bad_cen.any():
        offenders = np.where(bad_evt | bad_cen)[0][:8].tolist()
        raise NumericalError(
            f"nonpositive likelihood denominator for subjects {offenders}"
        )
    clamp = lambda v: np.clip(v, PROB_FLOOR, 1.0)
    evt_terms = -(np.log(clamp(pick)) - np.log(clamp(den_evt)))
    cen_terms = -np.log(clamp(den_cen))
    return float(np.where(events == 1, evt_terms, cen_terms).sum())


def loss_vae(x, x_recon, mu, sigma) -> float:
    """Reconstruction MSE plus Gaussian KL, summed over the batch.

    The MSE is the mean over each subject's input entries, so its scale
    does not grow with the sequence length or feature count.
    """
    x = np.asarray(x, dtype=np.float64)
    x_recon = np.asarray(x_recon, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.ndim == 1:
        mu, sigma = mu[None, :], sigma[None, :]
        x, x_recon = x[None, ...], x_recon[None, ...]
    if x.shape != x_recon.shape:
        raise ContractError(f"x {x.shape} and x_recon {x_recon.shape} differ")
    if mu.shape != sigma.shape:
        raise ContractError("mu and sigma must share a shape")
    if np.any(sigma <= 0):
        raise DomainError("sigma must be strictly positive")
    n = mu.shape[0]
    mse = ((x - x_recon) ** 2).reshape(n, -1).mean(axis=1)
    kl = 0.5 * (mu**2 + sigma**2 - 1.0 - np.log(sigma**2)).sum(axis=1)
    return float((mse + kl).sum())


# ---------------------------------------------------------------------------
# LSTM as a composition of per-gate tape ops
# ---------------------------------------------------------------------------

LSTM_GATES = ("i", "f", "o", "g")


def init_lstm_reference(rng, d_in, hidden, name):
    """Twelve per-gate Params, drawn in the order the per-gate encoder drew
    them: w_x then w_h for each gate i, f, o, g; biases zero except b_f."""

    def w(tag, rows):
        return Param(f"{name}.{tag}", glorot_uniform(rng, d_in + hidden, hidden, (rows, hidden)))

    def b(tag, value):
        return Param(f"{name}.{tag}", np.full(hidden, value))

    return {
        "w_xi": w("w_xi", d_in), "w_hi": w("w_hi", hidden), "b_i": b("b_i", 0.0),
        "w_xf": w("w_xf", d_in), "w_hf": w("w_hf", hidden), "b_f": b("b_f", 1.0),
        "w_xo": w("w_xo", d_in), "w_ho": w("w_ho", hidden), "b_o": b("b_o", 0.0),
        "w_xg": w("w_xg", d_in), "w_hg": w("w_hg", hidden), "b_g": b("b_g", 0.0),
    }


def split_lstm_cell(cell, name="enc"):
    """Per-gate copies of a stacked cell's weights, keyed like
    ``init_lstm_reference``."""
    h = cell.hidden
    gates = {}
    for k, gate in enumerate(LSTM_GATES):
        cols = slice(k * h, (k + 1) * h)
        gates[f"w_x{gate}"] = Param(f"{name}.w_x{gate}", cell.w_x.value[:, cols].copy())
        gates[f"w_h{gate}"] = Param(f"{name}.w_h{gate}", cell.w_h.value[:, cols].copy())
        gates[f"b_{gate}"] = Param(f"{name}.b_{gate}", cell.b.value[cols].copy())
    return gates


def stack_lstm_grads(grads, name="enc"):
    """Per-gate gradients of ``lstm_forward_reference`` laid out like the
    stacked (w_x, w_h, b)."""
    return tuple(
        np.concatenate([grads[f"{name}.{prefix}{gate}"] for gate in LSTM_GATES], axis=-1)
        for prefix in ("w_x", "w_h", "b_")
    )


def _gate(tape, x, h, w_x, w_h, b):
    z = tape.add(tape.matmul(x, tape.param(w_x)), tape.param(b))
    if h is not None:
        z = tape.add(z, tape.matmul(h, tape.param(w_h)))
    return z


def lstm_forward_reference(tape, gates, steps):
    """The encoder as one tape node per matmul, add, activation and
    product; h and c start at zero, so the first step has no forget gate."""
    h = None
    c = None
    for x_step in steps:
        x = tape.leaf(x_step)
        i = tape.sigmoid(_gate(tape, x, h, gates["w_xi"], gates["w_hi"], gates["b_i"]))
        o = tape.sigmoid(_gate(tape, x, h, gates["w_xo"], gates["w_ho"], gates["b_o"]))
        g = tape.tanh(_gate(tape, x, h, gates["w_xg"], gates["w_hg"], gates["b_g"]))
        gain = tape.mul(i, g)
        if c is None:
            c = gain
        else:
            f = tape.sigmoid(_gate(tape, x, h, gates["w_xf"], gates["w_hf"], gates["b_f"]))
            c = tape.add(tape.mul(f, c), gain)
        h = tape.mul(o, tape.tanh(c))
    return h
