"""Unitary quantum HMM simulated exactly as a Kraus-operator channel.

A parameterized unitary U acts on a latent register tensored with an observed
register; after each step the observed register is measured in the
computational basis and reset to |0>. Conditioning on outcome i gives the
Kraus operator

    K_i = (I_latent (x) <i|_observed) U (I_latent (x) |0>_observed),

one per symbol, with sum_i K_i^dagger K_i = I whenever U is unitary. The
latent belief state is a density matrix rho; observing symbol i yields
probability tr(K_i rho K_i^dagger) and posterior K_i rho K_i^dagger / prob.
Sequence log-probabilities accumulate the per-step normalizers, which equals
the log of the single end-to-end trace but stays finite at long horizons.
As vec(K_i rho K_i^dagger) = vec(rho) (K_i (x) conj K_i)^T, filtering runs the
shared kernel of ``volhmm.operators`` on d^2-dimensional vectors. The builders
take a leading batch of parameter vectors, so a fit builds every model of one
Nelder-Mead round at once (``qhmm_operators``); one vector is the case without
that axis.

Index conventions (fixed; Kraus extraction is sensitive to them): the joint
basis index is latent_index * n_obs + observed_index, i.e. the latent register
occupies the leading tensor factor. Circuit qubits are numbered with the
latent register first; each register is little-endian (its qubit 0 is the
least significant bit of its index). Rotation layers apply Ry then Rz on every
qubit; "full" entanglement applies CNOTs on all ordered pairs (a, b), a < b,
ascending, and "linear" chains a -> a+1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators
from .errors import ValidationError
from .seeds import streams

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_COMPLETENESS_TOL = 1e-10
CAUSAL_BREAK_TOL = 1e-10
_TINY_ANGLE = 1e-100  # at or below it, Rz(b) @ Ry(a) is formed as a matrix product


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_density(m: np.ndarray):
    """Hermitian, unit-trace and PSD checks of a (..., d, d) stack of matrices."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"density matrix must be square, got shape {m.shape}")
    m_dagger = m.conj().swapaxes(-1, -2)
    if np.max(np.abs(m - m_dagger)) > _HERMITIAN_TOL:
        raise ValidationError("density matrix must be Hermitian")
    trace = np.trace(m, axis1=-2, axis2=-1)
    off = (np.abs(trace.real - 1.0) > _TRACE_TOL) | (np.abs(trace.imag) > _TRACE_TOL)
    if off.any():
        raise ValidationError(f"density matrix must have unit trace, got {trace[off].flat[0]}")
    if np.linalg.eigvalsh(0.5 * (m + m_dagger)).min() < -_PSD_TOL:
        raise ValidationError("density matrix must be positive semidefinite")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix representing a latent statistical ensemble.

    A (..., d, d) stack holds a batch of them, each checked.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_density(m)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the parameterized circuit: register sizes, repetitions, entanglement."""

    latent_qubits: int
    observed_qubits: int
    reps: int = 3
    entanglement: str = "full"

    def __post_init__(self):
        if self.latent_qubits < 1 or self.observed_qubits < 1:
            raise ValidationError("both registers need at least one qubit")
        if self.reps < 0:
            raise ValidationError(f"reps must be >= 0, got {self.reps}")
        if self.entanglement not in ("full", "linear"):
            raise ValidationError(f"entanglement must be 'full' or 'linear', got {self.entanglement!r}")
        if self.observed_qubits > 2 * self.latent_qubits:
            raise ValidationError(
                "n_obs must not exceed n_latent^2 "
                f"(2^{self.observed_qubits} > (2^{self.latent_qubits})^2)"
            )

    @property
    def n_qubits(self) -> int:
        return self.latent_qubits + self.observed_qubits

    @property
    def dim_latent(self) -> int:
        return 2**self.latent_qubits

    @property
    def dim_observed(self) -> int:
        return 2**self.observed_qubits

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)


@dataclass(frozen=True)
class QhmmModel:
    """Per-symbol Kraus operators plus the initial latent density matrix."""

    kraus: np.ndarray  # (n_obs, dim_latent, dim_latent)
    rho0: DensityMatrix
    spec: AnsatzSpec
    theta: np.ndarray
    theta_init: np.ndarray

    def __post_init__(self):
        kraus = np.asarray(self.kraus, dtype=complex)
        d = self.spec.dim_latent
        if kraus.shape != (self.spec.dim_observed, d, d):
            raise ValidationError(f"expected kraus shape {(self.spec.dim_observed, d, d)}, got {kraus.shape}")
        _check_completeness(kraus)
        if self.rho0.matrix.shape != (d, d):
            raise ValidationError("rho0 dimension does not match the latent register")
        object.__setattr__(self, "kraus", _freeze(kraus))
        object.__setattr__(self, "theta", _freeze(np.asarray(self.theta, dtype=float)))
        object.__setattr__(self, "theta_init", _freeze(np.asarray(self.theta_init, dtype=float)))

    @property
    def n_obs(self) -> int:
        return self.kraus.shape[0]

    def operators(self) -> operators.OperatorModel:
        """Observable-operator form: vec(rho0), (K_s (x) conj K_s)^T per symbol, vec(I)."""
        return _operator_form(self.kraus, self.rho0.matrix)


def _check_completeness(kraus: np.ndarray):
    """sum_s K_s^dagger K_s = I for each Kraus set of a (..., n_obs, d, d) stack."""
    completeness = np.einsum("...iba,...ibc->...ac", kraus.conj(), kraus)
    if np.max(np.abs(completeness - np.eye(kraus.shape[-1]))) > _COMPLETENESS_TOL:
        raise ValidationError("Kraus operators do not satisfy sum K^dagger K = I")


def _operator_form(kraus: np.ndarray, rho0: np.ndarray) -> operators.OperatorModel:
    """vec(rho0) and (K_s (x) conj K_s)^T of one model, or of a batch on the leading axis,
    the operators formed in their step form."""
    *batch, n, d, _ = kraus.shape
    step_ops = np.empty((*batch, n, d * d, d * d + 1), dtype=complex)
    # Entry [(c, e), (a, b)] of operator s is K_s[a, c] conj K_s[b, e].
    np.einsum("...sac,...sbe->...sceab", kraus, kraus.conj(),
              out=step_ops[..., :-1].reshape(*batch, n, d, d, d, d))
    return operators.OperatorModel.stepped(rho0.reshape(*batch, d * d), step_ops,
                                           np.eye(d).ravel())


def qhmm_operators(spec: AnsatzSpec, theta, theta_init) -> operators.OperatorModel:
    """Operator form of the models of a (B, n_params) batch of circuit angles and a
    (B, latent_qubits) batch of initial-state angles; row b equals
    ``build_qhmm(spec, theta[b], theta_init[b]).operators()`` bit for bit. The cos and
    sin of both batches' Ry angles come from one libm pass. An infinite Ry angle, which
    libm rejects, raises a ValidationError naming it; no other angle is checked here, so
    a NaN angle or an infinite Rz angle gives NaN operators in its row."""
    layers, theta_init = _layers(spec, theta), _init_angles(spec, theta_init)
    try:
        (cos, sin), (cos0, sin0) = _ry_columns(layers[..., 0, :], theta_init)
    except ValueError:  # math.cos of an infinite Ry angle: name it
        _finite_angles("theta", theta)
        _finite_angles("theta_init", theta_init)
        raise
    kraus = kraus_from_unitary(_unitary(spec, cos, sin, layers[..., 1, :]), spec)
    model = _operator_form(kraus, _pure_state(spec, cos0, sin0))
    # Completeness read off the step form: M_s vec(I) = conj vec(K_s^dagger K_s), so the
    # last columns sum to vec(I) over the symbols.
    completeness = model.step_ops[..., -1].sum(axis=-2)
    if np.max(np.abs(completeness - model.out), initial=0.0) > _COMPLETENESS_TOL:
        raise ValidationError("Kraus operators do not satisfy sum K^dagger K = I")
    return model


def _ry_columns(*angles) -> list:
    """(cos, sin) of half of each angle, per array of angles, from one pass over them all.

    libm's scalar functions: numpy's SIMD ones may round differently on some CPUs.
    """
    halves = [np.asarray(a, dtype=float) / 2.0 for a in angles]
    flat = np.concatenate([h.ravel() for h in halves]).tolist()
    cos = np.fromiter(map(math.cos, flat), float, len(flat))
    sin = np.fromiter(map(math.sin, flat), float, len(flat))
    out, start = [], 0
    for h in halves:
        stop = start + h.size
        out.append((cos[start:stop].reshape(h.shape), sin[start:stop].reshape(h.shape)))
        start = stop
    return out


def _finite_angles(name: str, angles: np.ndarray) -> np.ndarray:
    """angles as a float array; a ValidationError naming the first entry that is not finite."""
    angles = np.asarray(angles, dtype=float)
    bad = np.argwhere(~np.isfinite(angles))
    if bad.size:
        at = tuple(bad[0].tolist())
        raise ValidationError(
            f"{name}[{', '.join(map(str, at))}] is {angles[at]}: angles must be finite"
        )
    return angles


def _rz_ry(cos, sin, rz_angles) -> np.ndarray:
    """Rz(b) @ Ry(a) for every angle pair, from cos and sin of a / 2: (...) -> (..., 2, 2).

    Ry is real and Rz diagonal, so entry (i, j) of the product is Rz[i, i] Ry[i, j] plus
    a term with an exact zero factor. When every sin(a / 2) and every b exceeds _TINY_ANGLE
    in size, no component of that first product is zero, so the zero term leaves it
    exactly as it is, and one elementwise product gives the matrix product's floats. Near
    a zero angle, where the sign of a zero component would rest on the order of the matrix
    product's sums, the matrix product is formed.
    """
    ry = np.empty(cos.shape + (2, 2), dtype=complex)
    ry[..., 0, 0], ry[..., 0, 1], ry[..., 1, 0], ry[..., 1, 1] = cos, -sin, sin, cos
    phases = np.empty(cos.shape + (2,), dtype=complex)
    np.exp(-0.5j * rz_angles, out=phases[..., 0])
    np.exp(0.5j * rz_angles, out=phases[..., 1])
    if (np.abs(sin).min(initial=np.inf) > _TINY_ANGLE
            and np.abs(rz_angles).min(initial=np.inf) > _TINY_ANGLE):
        return phases[..., :, None] * ry
    rz = np.zeros_like(ry)
    rz[..., 0, 0], rz[..., 1, 1] = phases[..., 0], phases[..., 1]
    return rz @ ry


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the trailing two axes, batched over the leading ones."""
    *batch, m, n = a.shape
    p, q = b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*batch, m * p, n * q)


def _bit_position(spec: AnsatzSpec, qubit: int) -> int:
    # Joint index = latent * dim_observed + observed, both registers little-endian.
    if qubit < spec.latent_qubits:
        return spec.observed_qubits + qubit
    return qubit - spec.latent_qubits


def _entanglement_pairs(n_qubits: int, kind: str):
    if kind == "full":
        return list(itertools.combinations(range(n_qubits), 2))
    return [(q, q + 1) for q in range(n_qubits - 1)]


def _cnot_permutation(n_qubits: int, pairs, bit_of) -> np.ndarray:
    """Basis permutation of the composed CNOT block: index -> image index."""
    dim = 2**n_qubits
    perm = np.arange(dim)
    for control, target in pairs:
        cbit, tbit = 1 << bit_of(control), 1 << bit_of(target)
        flip = (perm & cbit).astype(bool)
        perm = np.where(flip, perm ^ tbit, perm)
    return perm


@lru_cache(maxsize=32)
def _entangler(spec: AnsatzSpec) -> np.ndarray:
    """Inverse of the basis permutation of the ansatz's CNOT block: u[..., inv, :] applies it."""
    pairs = _entanglement_pairs(spec.n_qubits, spec.entanglement)
    perm = _cnot_permutation(spec.n_qubits, pairs, lambda q: _bit_position(spec, q))
    return _freeze(np.argsort(perm))


def _rotation_layer(spec: AnsatzSpec, cos, sin, rz_angles) -> np.ndarray:
    """Rotation layers, each a kron over qubits of Rz(b) Ry(a), from cos and sin of a / 2:
    (..., n_qubits) angles give (..., dim, dim), every layer of a stack in one gate pass
    and one kron chain."""
    # kron builds most-significant-bit first: latent qubits high to low, then
    # observed qubits high to low.
    order = list(range(spec.latent_qubits - 1, -1, -1)) + [
        spec.latent_qubits + q for q in range(spec.observed_qubits - 1, -1, -1)
    ]
    gates = _rz_ry(cos, sin, rz_angles)
    layer = np.ones(gates.shape[:-3] + (1, 1), dtype=complex)
    for q in order:
        layer = _kron(layer, gates[..., q, :, :])
    return layer


def _layers(spec: AnsatzSpec, theta) -> np.ndarray:
    """Circuit angles (..., n_params) as (..., reps + 1, 2, n_qubits): per layer, the Ry
    then the Rz angle of each qubit."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (spec.n_params,):
        raise ValidationError(f"expected {spec.n_params} parameters, got shape {theta.shape}")
    return theta.reshape(theta.shape[:-1] + (spec.reps + 1, 2, spec.n_qubits))


def build_ansatz_unitary(spec: AnsatzSpec, theta) -> np.ndarray:
    """Dense unitary of the rotation/entanglement ansatz on the joint register.

    theta (..., n_params) gives one unitary per parameter vector, (..., dim, dim).
    """
    layers = _layers(spec, theta)
    _finite_angles("theta", theta)
    ((cos, sin),) = _ry_columns(layers[..., 0, :])
    return _unitary(spec, cos, sin, layers[..., 1, :])


def _unitary(spec: AnsatzSpec, cos, sin, rz_angles) -> np.ndarray:
    """The ansatz unitaries of (..., reps + 1, n_qubits) layer angles, given as cos and sin
    of half of each Ry angle and the Rz angles."""
    inv_perm = _entangler(spec)
    rotations = _rotation_layer(spec, cos, sin, rz_angles)  # every layer at once
    u = rotations[..., 0, :, :]
    for r in range(1, spec.reps + 1):
        u = u.take(inv_perm, axis=-2)  # entanglement block (a permutation) applied in place
        u = rotations[..., r, :, :] @ u
    return u


def initial_latent_state(spec: AnsatzSpec, theta_init) -> DensityMatrix:
    """Pure initial state: per-qubit Ry rotations followed by a linear CNOT chain.

    theta_init (..., latent_qubits) gives a (..., d, d) stack of states.
    """
    ((cos, sin),) = _ry_columns(_finite_angles("theta_init", _init_angles(spec, theta_init)))
    return DensityMatrix(matrix=_pure_state(spec, cos, sin))


def _init_angles(spec: AnsatzSpec, theta_init) -> np.ndarray:
    theta_init = np.asarray(theta_init, dtype=float)
    if theta_init.shape[-1:] != (spec.latent_qubits,):
        raise ValidationError(
            f"expected {spec.latent_qubits} initial-state angles, got shape {theta_init.shape}"
        )
    return theta_init


@lru_cache(maxsize=32)
def _latent_chain(latent_qubits: int) -> np.ndarray:
    """Inverse of the basis permutation of the linear CNOT chain on the latent register:
    psi.take(inv) applies the chain."""
    pairs = [(q, q + 1) for q in range(latent_qubits - 1)]
    return _freeze(np.argsort(_cnot_permutation(latent_qubits, pairs, lambda q: q)))


def _pure_state(spec: AnsatzSpec, cos, sin) -> np.ndarray:
    """The matrices |psi><psi| of ``initial_latent_state``, from cos and sin of half of
    each initial-state angle, unchecked: psi is a unit vector, so each is Hermitian,
    positive semidefinite and of unit trace by construction."""
    column = np.empty(cos.shape + (1, 2), dtype=complex)  # Ry(angle) |0>, imaginary parts +0
    column[..., 0, 0], column[..., 0, 1] = cos, sin
    # The kron chain from the highest qubit; its first factor is that qubit's column as
    # it is, the value its product with a leading 1 has (the column's imaginary parts are +0).
    psi = column[..., -1, :, :]
    for q in range(spec.latent_qubits - 2, -1, -1):
        psi = _kron(psi, column[..., q, :, :])
    out = psi[..., 0, :].take(_latent_chain(spec.latent_qubits), axis=-1)
    return out[..., :, None] * out.conj()[..., None, :]


def kraus_from_unitary(u: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Extract the per-symbol Kraus operators K_i[a, b] = U[(a, i), (b, 0)] of each unitary."""
    u = np.asarray(u, dtype=complex)
    d_l, d_o = spec.dim_latent, spec.dim_observed
    if u.shape[-2:] != (d_l * d_o, d_l * d_o):
        raise ValidationError(f"expected unitary of dim {d_l * d_o}, got shape {u.shape}")
    blocks = u.reshape(u.shape[:-2] + (d_l, d_o, d_l, d_o))
    return np.ascontiguousarray(blocks[..., 0].swapaxes(-2, -3))


def build_qhmm(spec: AnsatzSpec, theta, theta_init) -> QhmmModel:
    """Model from circuit parameters: ansatz unitary -> Kraus set, plus the initial state."""
    u = build_ansatz_unitary(spec, theta)
    kraus = kraus_from_unitary(u, spec)
    rho0 = initial_latent_state(spec, theta_init)
    return QhmmModel(
        kraus=kraus,
        rho0=rho0,
        spec=spec,
        theta=np.asarray(theta, dtype=float),
        theta_init=np.asarray(theta_init, dtype=float),
    )


def partial_trace(matrix: np.ndarray, keep: str, dims) -> DensityMatrix:
    """Reduce a composite-state density matrix to one subsystem.

    keep is "latent" (leading factor) or "observed" (trailing factor); dims is
    (dim_latent, dim_observed).
    """
    d_l, d_o = dims
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d_l * d_o, d_l * d_o):
        raise ValidationError(f"expected dim {d_l * d_o} composite state, got shape {m.shape}")
    blocks = m.reshape(d_l, d_o, d_l, d_o)
    if keep == "latent":
        reduced = np.einsum("aibi->ab", blocks)
    elif keep == "observed":
        reduced = np.einsum("aiaj->ij", blocks)
    else:
        raise ValidationError(f"keep must be 'latent' or 'observed', got {keep!r}")
    return DensityMatrix(matrix=reduced)


def qhmm_sequence_logprob(model: QhmmModel, obs) -> float:
    """Log-probability of a symbol sequence, accumulated from per-step normalizers."""
    return operators.log_likelihood(model.operators(), obs)


def qhmm_sequence_probability(model: QhmmModel, obs) -> float:
    """Exact sequence probability (0 allowed)."""
    return operators.probability(model.operators(), obs)


def qhmm_simulate(model: QhmmModel, n_steps: int, seed) -> np.ndarray:
    """Sample a symbol sequence."""
    return qhmm_simulate_many(model, n_steps, [seed])[0]


def qhmm_simulate_many(model: QhmmModel, n_steps: int, seeds) -> np.ndarray:
    """``qhmm_simulate`` of each seed: (B, n_steps) symbols, row b sampled from the
    n_steps uniforms of seeds[b]."""
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    seeds = list(seeds)
    uniforms = np.empty((len(seeds), n_steps))
    for row, rng in zip(uniforms, streams(seeds)):
        rng.random(out=row)
    return operators.sample(model.operators(), uniforms)


@dataclass
class CausalBreakReport:
    """Continuation statistics of two runs after resetting the second to the first's state."""

    sequences: list
    distribution_a: np.ndarray
    distribution_b: np.ndarray
    max_abs_diff: float
    markovian: bool


def causal_break_test(model: QhmmModel, prefix_a, prefix_b, horizon: int) -> CausalBreakReport:
    """Reset-and-continue check of Markovianity.

    Run A filters prefix_a to latent state rho_A and tabulates the law of the
    next ``horizon`` symbols directly, pairing rho_A with each continuation's
    backward effect M_w out. Run B filters prefix_b, then undergoes a causal
    break: its latent state is replaced by rho_A and the same continuation law
    is tabulated through a numerically distinct route, stepwise renormalized
    filtering with the normalizers multiplied back. A Markovian channel makes
    the two laws agree; dependence on run B's earlier emissions would show up
    as a discrepancy above ``CAUSAL_BREAK_TOL``.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    om = model.operators()
    rho_a = operators.filtered(om, prefix_a)[1][0]
    operators.filtered(om, prefix_b)  # must itself be a positive-probability history
    sequences = list(itertools.product(range(model.n_obs), repeat=horizon))
    logp, effects = operators.leaves(om, horizon, backward=True)
    dist_a = np.maximum(0.0, (np.exp(logp)[:, None] * effects @ rho_a).real)
    logp, _ = operators.leaves(om, horizon, rho_a[None, :])
    dist_b = np.exp(logp)
    max_abs_diff = float(np.max(np.abs(dist_a - dist_b)))
    return CausalBreakReport(
        sequences=sequences,
        distribution_a=dist_a,
        distribution_b=dist_b,
        max_abs_diff=max_abs_diff,
        markovian=bool(max_abs_diff < CAUSAL_BREAK_TOL),
    )


def random_qhmm(spec: AnsatzSpec, seed) -> QhmmModel:
    """Model with uniformly random angles in [0, 2pi); useful for property checks."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=spec.n_params)
    theta_init = rng.uniform(0.0, 2.0 * math.pi, size=spec.latent_qubits)
    return build_qhmm(spec, theta, theta_init)
