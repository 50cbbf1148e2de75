"""Observable-operator kernel shared by both model families.

Both families are linear sequence models (Jaeger 2000): P(s_1 .. s_L) =
x0 M_{s_1} .. M_{s_L} out, with a start row vector, one operator per symbol and
an output functional. Classically x0 is the start law, M_s = diag(e_s) A and
out = 1; for the quantum channel x0 = vec(rho0), M_s = (K_s (x) conj K_s)^T and
out = vec(I). The state dimension D
(n_L, or d^2) bounds the rank of the Hankel matrix H = P S^T of forward and
backward vectors (Hsu, Kakade & Zhang 2012). ``forward`` is the one loop that
applies per-symbol operators; likelihoods, filters, sequence probabilities,
sampling and prefix-tree walks are built on it. It runs one model or a batch of
models, over one string that every row reads or over (B, T) strings, one per
row, whose operators it gathers a block at a time. ``sample`` draws B sequences
together from (B, T) uniforms, one ``forward`` step per symbol.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, ZeroLikelihoodError

MIN_STEP_PROB = 1e-300  # a step probability at or below this counts as zero
GATHER_BYTES = 1 << 20  # operators a (B, T) pass holds at once: the chunk it reads, the next
SLAB_BYTES, SLABS_KEPT = 1 << 16, 4  # a pass's product slab; slabs a caller's dict keeps


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

    @cached_property
    def step_ops(self) -> np.ndarray:
        """[M_s | M_s out] per symbol: x @ step_ops[s] = [y | p] gives the next vector and
        its probability in one product."""
        return np.concatenate([self.ops, (self.ops @ self.out)[..., None]], axis=-1)

    @classmethod
    def stepped(cls, x0, step_ops, out) -> OperatorModel:
        """The model whose builder wrote its operators into ``step_ops[..., :-1]``. This
        sets the last column to M_s out, by the product the property forms it with, and
        keeps ``step_ops`` as the model's step form, its ops a view of it: no second copy."""
        ops = step_ops[..., :-1]
        np.matmul(ops, out, out=step_ops[..., -1])
        model = cls(x0, ops, out)
        model.__dict__["step_ops"] = step_ops  # the cached property's value
        return model


def stack(models) -> OperatorModel:
    """One batched model from models of one dimension and alphabet, single or batched."""
    models = list(models)
    if len(models) == 1 and models[0].ops.ndim == 4:
        return models[0]
    dim = models[0].out.size
    return OperatorModel(
        np.concatenate([m.x0.reshape(-1, dim) for m in models]),
        np.concatenate([m.ops.reshape(-1, *m.ops.shape[-3:]) for m in models]),
        models[0].out,
    )


def forward(model: OperatorModel, obs, x=None, keep_states: bool = False, check: bool = True,
            slabs: dict | None = None):
    """Normalised pass of ``obs`` from each row of ``x`` (default x0): (steps, states).

    A single model runs every row of x through its operators; a batch runs row b through
    model b. ``obs`` is one string (T,) that every row reads, or B strings (B, T) of which
    row b reads string b: for a batch of B models, or for a single model, whose x then
    has one row (the start of every string) or B rows. steps (B, T) are
    P(s_t | s_1 .. s_{t-1}); states are the normalised (B, D) rows after the last symbol,
    or (T, B, D) after each. Both are 0 from a step <= MIN_STEP_PROB on. A row of a batch,
    or of (B, T) obs, has the floats of its own one-row, one-string pass; the rows of a
    single model reading one string go through one matrix product. ``check=False`` skips
    the symbol-range check, for callers that checked the symbols once already (a symbol
    out of range then reads a wrong operator or raises IndexError). ``slabs``, a dict a
    caller keeps across its passes, holds the product slab of each shape for its next pass
    (see ``_slab``).
    """
    obs = np.asarray(obs, dtype=np.int64)
    if obs.ndim != 2:
        obs = obs.reshape(-1)
    if check and obs.size and (obs.min() < 0 or obs.max() >= model.n_obs):
        raise ValidationError(f"symbols out of range [0, {model.n_obs})")
    step_ops = model.step_ops
    batched = step_ops.ndim == 4
    x = np.asarray(model.x0 if x is None else x).reshape(-1, model.out.size)
    if obs.ndim == 2 and not batched and len(x) == 1 < len(obs):
        x = np.broadcast_to(x, (len(obs), x.shape[1]))
    rows, dim = x.shape
    if obs.ndim == 2 and obs.shape[0] != rows:
        raise ValidationError(f"a (B, T) obs needs a batch of B models or B start rows, got "
                              f"{obs.shape[0]} strings for {rows} rows")
    if batched or obs.ndim == 2:
        # Row b as a (1, D) matrix against its own operator: the same vector-matrix product
        # as a single model's one-row pass, so a row's floats do not depend on the batch.
        x = x[:, None, :]
    if obs.ndim == 2:
        blocks = _gathered(step_ops.swapaxes(0, 1) if batched else step_ops, obs, batched)
    else:
        by_symbol = list(step_ops.swapaxes(0, 1) if batched else step_ops)
        blocks = [(slice(None), map(by_symbol.__getitem__, obs.tolist()))]
    n_steps = obs.shape[-1]
    dtype = np.result_type(x, step_ops)
    steps = np.empty((rows, n_steps))
    states = np.empty((n_steps, rows, dim), dtype) if keep_states else None
    last = np.empty((rows, dim), dtype)
    matmul, divide = np.matmul, np.divide
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block, per_step in blocks:
            xb, per_step = x[block], iter(per_step)
            # Each step's product [y | p] goes to its row of a slab of at most SLAB_BYTES,
            # whose p column is read once per slab; y / p goes to one buffer, or to the states.
            span = max(1, SLAB_BYTES // max(1, dtype.itemsize * (dim + 1) * (xb.size // dim)))
            slab, probs, buf, views = _slab(min(span, n_steps), xb.shape, dtype, slabs)
            for t0 in range(0, n_steps, span):
                n = min(span, n_steps - t0)
                outs = (states[t0 : t0 + n, block].reshape((n,) + xb.shape)
                        if keep_states else itertools.repeat(buf))
                # the views lead, so the last chunk takes only the steps it has
                for (y, y_next, p), out, ops in zip(views[:n], outs, per_step):
                    matmul(xb, ops, y)
                    xb = divide(y_next, p, out)
                steps[block, t0 : t0 + n] = probs[:n].T
            last[block] = xb.reshape(-1, dim)
    if not steps.min(initial=np.inf) > MIN_STEP_PROB:  # a NaN step is dead too
        dead = ~np.logical_and.accumulate(steps > MIN_STEP_PROB, axis=1)
        steps[dead] = 0.0
        last[dead[:, -1]] = 0.0
        if keep_states:
            states[dead.T] = 0.0
    return steps, (states if keep_states else last)


def _slab(span, shape, dtype, kept=None):
    """(slab, probs, buffer, views) for a pass of (..., D) rows of this shape: a
    (span, ..., D + 1) product slab, its p column as (span, rows), a buffer of the rows'
    shape, and for each step the slab's row and its [y | p] parts (y, p.real).

    A slab within SLAB_BYTES is kept in the caller's dict ``kept``, when given, for the
    next pass of its shape (the last SLABS_KEPT shapes used), so that pass's steps make no
    new view objects; nothing a pass returns is a view of it.
    """
    key = (span, shape, dtype)
    found = None if kept is None else kept.pop(key, None)
    if found is None:
        slab = np.empty((span,) + shape[:-1] + (shape[-1] + 1,), dtype)
        found = (slab, slab[..., -1].real.reshape(span, math.prod(shape[:-1])),
                 np.empty(shape, dtype),
                 list(zip(slab, slab[..., :-1], slab[..., -1:].real)))
        if kept is None or slab.nbytes > SLAB_BYTES:  # over SLAB_BYTES: one step, many rows
            return found
        if len(kept) == SLABS_KEPT:
            del kept[next(iter(kept))]  # the shape used least recently
    kept[key] = found
    return found


def _gathered(step_ops, obs, batched):
    """Per block of rows, (rows, per-step operators): for each step t, the (R, D, D + 1)
    operators that the rows' symbols obs[:, t] select from one model's (n_obs, D, D + 1)
    stack, or row b's from a batch's (n_obs, B, D, D + 1).

    A block holds as many rows as GATHER_BYTES of one step's operators allows (at least
    one), and its steps are gathered a chunk at a time by one ``take``, each chunk at most
    half of GATHER_BYTES, as the next chunk is taken while the last is still held; the
    per-step operators are views of those chunks, chained in C.
    """
    rows, n_steps = obs.shape
    n_obs, shape = step_ops.shape[0], step_ops.shape[-2:]
    op_bytes = step_ops.itemsize * shape[0] * shape[1]
    per_block = max(1, min(rows, GATHER_BYTES // op_bytes))
    span = max(1, GATHER_BYTES // 2 // (per_block * op_bytes))
    # one take from the flat stack, where row b's operator of symbol s is entry b * n_obs + s
    flat = (step_ops.swapaxes(0, 1) if batched else step_ops).reshape(-1, *shape)
    for r0 in range(0, rows, per_block):
        block = slice(r0, r0 + per_block)
        index = obs[block].T + np.arange(rows)[block] * n_obs if batched else obs[block].T
        chunks = (flat.take(index[t0 : t0 + span], axis=0) for t0 in range(0, n_steps, span))
        yield block, itertools.chain.from_iterable(chunks)


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


def sample(model: OperatorModel, uniforms) -> np.ndarray:
    """One symbol per uniform from the predictive law, of the uniforms' shape.

    ``uniforms`` is one sequence (T,) or B sequences (B, T), each drawn from x0. A uniform
    goes to the first symbol whose cumulative conditional probability exceeds it (the
    last symbol, past the last sum). A row's symbols do not depend on the other rows.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    u = uniforms.reshape(-1, uniforms.shape[-1])
    rows, n_steps = u.shape
    effects = model.ops @ model.out  # state . effects[s] = P(next symbol is s)
    x = np.broadcast_to(model.x0, (rows, model.out.size))
    symbols = np.empty((rows, n_steps), dtype=np.int64)
    for t in range(n_steps):
        probs = np.maximum(0.0, (effects @ x[..., None])[..., 0].real)
        cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        symbols[:, t] = (cum[:, :-1] <= u[:, t, None]).sum(axis=1)
        x = forward(model, symbols[:, t : t + 1], x)[1]
    return symbols.reshape(uniforms.shape)
