"""Observable-operator kernel shared by both model families.

Both families are linear sequence models (Jaeger 2000): P(s_1 .. s_L) =
x0 M_{s_1} .. M_{s_L} out, with a start row vector, one operator per symbol and
an output functional. Classically x0 is the start law, M_s = diag(e_s) A
(A diag(e_s) propagate-first) and out = 1; for the quantum channel x0 =
vec(rho0), M_s = (K_s (x) conj K_s)^T and out = vec(I). The state dimension D
(n_L, or d^2) bounds the rank of the Hankel matrix H = P S^T of forward and
backward vectors (Hsu, Kakade & Zhang 2012). ``forward`` is the one loop that
applies per-symbol operators; likelihoods, filters, sequence probabilities,
sampling and prefix-tree walks are built on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroLikelihoodError

MIN_STEP_PROB = 1e-300  # a step probability at or below this counts as zero


@dataclass(frozen=True)
class OperatorModel:
    """Start row vector, per-symbol operators and output functional of a linear sequence model.

    A batch of B models of one dimension D adds a leading model axis to ``x0`` and ``ops``.
    """

    x0: np.ndarray  # (D,), or (B, D)
    ops: np.ndarray  # (n_obs, D, D), or (B, n_obs, D, D): a row state x moves to x @ ops[s]
    out: np.ndarray  # (D,)

    @property
    def n_obs(self) -> int:
        return self.ops.shape[-3]


def stack(models) -> OperatorModel:
    """One batched model from single models of one dimension and alphabet."""
    models = list(models)
    return OperatorModel(
        np.stack([m.x0 for m in models]), np.stack([m.ops for m in models]), models[0].out
    )


def forward(model: OperatorModel, obs, x=None, keep_states: bool = False):
    """Normalised pass of ``obs`` from each row of ``x`` (default x0): (steps, states).

    A single model runs every row of x through its operators; a batch runs row b through
    model b. steps (B, T) are P(s_t | s_1 .. s_{t-1}); states are the normalised (B, D) rows
    after the last symbol, or (T, B, D) after each. Both are 0 from a step <= MIN_STEP_PROB on.
    """
    obs = np.asarray(obs, dtype=np.int64).reshape(-1)
    if obs.size and (obs.min() < 0 or obs.max() >= model.n_obs):
        raise ValidationError(f"symbols out of range [0, {model.n_obs})")
    batched = model.ops.ndim == 4
    x = np.asarray(model.x0 if x is None else x).reshape(-1, model.out.size)
    rows, dim = x.shape
    # x [M_s | M_s out] = [y | p]: one product gives the next vector and its probability.
    step_ops = np.concatenate([model.ops, (model.ops @ model.out)[..., None]], axis=-1)
    if batched:
        # Row b as a (1, D) matrix against operator (b, s): the same vector-matrix product
        # as a single model's one-row pass, so a row's floats do not depend on the batch.
        step_ops = step_ops.swapaxes(0, 1)
        x = x[:, None, :]
    probs = np.empty((obs.size, rows))
    states = np.empty((obs.size, rows, dim), step_ops.dtype) if keep_states else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t, s in enumerate(obs.tolist()):
            y = x @ step_ops[s]
            p = y[..., -1:].real
            x = y[..., :-1] / p
            probs[t] = p.reshape(rows)
            if keep_states:
                states[t] = x.reshape(rows, dim)
    x = x.reshape(rows, dim)
    steps = np.ascontiguousarray(probs.T)
    dead = ~np.logical_and.accumulate(steps > MIN_STEP_PROB, axis=1)  # NaN is dead too
    if dead.any():
        steps[dead] = 0.0
        x[dead[:, -1]] = 0.0
        if keep_states:
            states[dead.T] = 0.0
    return steps, (states if keep_states else x)


def log_prob(steps) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(steps).sum(axis=1)


def filtered(model: OperatorModel, obs, x=None, keep_states: bool = False):
    """``forward`` of one possible string; ZeroLikelihoodError at its first impossible step."""
    steps, states = forward(model, obs, x, keep_states)
    zero = np.flatnonzero(steps[0] == 0.0)
    if zero.size:
        t = int(zero[0])
        raise ZeroLikelihoodError(f"zero probability at step {t} (symbol {int(obs[t])})", step=t)
    return steps, states


def log_likelihood(model: OperatorModel, obs) -> float:
    return float(log_prob(filtered(model, obs)[0])[0])


def probability(model: OperatorModel, obs) -> float:
    return float(np.exp(log_prob(forward(model, obs)[0])[0]))


def walk(model: OperatorModel, depth: int, x=None, backward: bool = False):
    """Breadth-first prefix-tree walk: yields (logp, states) for string lengths 0 .. depth.

    Each level lists its strings lexicographically; exp(logp) * states are their
    forward vectors x M_w, or with ``backward`` their backward vectors M_w out:
    transposed operators prepend symbols, normalised by out (positive on them; x0 need not be).
    """
    if backward:
        model = OperatorModel(model.out, model.ops.transpose(0, 2, 1), model.out)
    x = model.x0[None, :] if x is None else x
    logp = np.zeros(x.shape[0])
    yield logp, x
    for _ in range(depth):
        children = [forward(model, [s], x) for s in range(len(model.ops))]
        axis = 0 if backward else 1  # the new symbol leads (backward) or trails the string
        logp = np.stack([logp + log_prob(steps) for steps, _ in children], axis=axis).ravel()
        x = np.stack([states for _, states in children], axis=axis).reshape(-1, x.shape[1])
        yield logp, x


def leaves(model: OperatorModel, depth: int, x=None, backward: bool = False):
    return deque(walk(model, depth, x, backward), maxlen=1)[0]


def vectors(model: OperatorModel, depth: int, backward: bool = False) -> np.ndarray:
    """Forward (or backward) vectors of all strings of length <= depth, shortest first."""
    levels = walk(model, depth, None, backward)
    return np.concatenate([np.exp(logp)[:, None] * x for logp, x in levels])


def sample(model: OperatorModel, uniforms):
    """One symbol per uniform from the predictive law; returns (symbols, states after each)."""
    effects = model.ops @ model.out  # state . effects[s] = P(next symbol is s)
    x = model.x0[None, :]
    symbols = np.empty(len(uniforms), dtype=np.int64)
    states = []
    for t, u in enumerate(uniforms):
        probs = np.maximum(0.0, (effects @ x[0]).real)
        cum = np.cumsum(probs / probs.sum())
        symbols[t] = min(int(np.searchsorted(cum, u, side="right")), len(model.ops) - 1)
        x = forward(model, symbols[t : t + 1], x)[1]
        states.append(x[0])
    return symbols, states
