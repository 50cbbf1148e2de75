import itertools
import math

import numpy as np
import pytest

from volhmm import operators, qhmm
from volhmm.errors import ValidationError, ZeroLikelihoodError
from volhmm.qhmm import (
    AnsatzSpec,
    DensityMatrix,
    QhmmModel,
    build_ansatz_unitary,
    causal_break_test,
    initial_latent_state,
    kraus_from_unitary,
    build_qhmm,
    partial_trace,
    qhmm_operators,
    qhmm_sequence_logprob,
    qhmm_sequence_probability,
    qhmm_simulate,
    random_qhmm,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
SPEC_1_1 = AnsatzSpec(latent_qubits=1, observed_qubits=1, reps=1)


def hadamard_channel():
    """Uniform-coin channel: K_0 = K_1 = I / sqrt(2)."""
    u = np.kron(np.eye(2), HADAMARD)
    kraus = kraus_from_unitary(u, SPEC_1_1)
    rho0 = initial_latent_state(SPEC_1_1, np.zeros(1))
    return QhmmModel(kraus=kraus, rho0=rho0, spec=SPEC_1_1, theta=np.zeros(8), theta_init=np.zeros(1))


def readout_channel():
    """Deterministic readout: latent qubit controls the observed qubit."""
    u = np.zeros((4, 4))
    for latent in range(2):
        for obs in range(2):
            u[2 * latent + (obs ^ latent), 2 * latent + obs] = 1.0
    kraus = kraus_from_unitary(u, SPEC_1_1)
    rho0 = initial_latent_state(SPEC_1_1, np.zeros(1))
    return QhmmModel(kraus=kraus, rho0=rho0, spec=SPEC_1_1, theta=np.zeros(8), theta_init=np.zeros(1))


class TestAnsatzSpec:
    def test_parameter_counts(self):
        assert AnsatzSpec(2, 2, reps=3).n_params == 32  # 2 * 4 qubits * 4 layers
        assert AnsatzSpec(1, 1, reps=3).n_params == 16

    def test_register_size_constraint(self):
        with pytest.raises(ValidationError):
            AnsatzSpec(latent_qubits=1, observed_qubits=3)


class TestBuildAnsatzUnitary:
    def test_zero_angles_give_entanglement_only_permutation(self):
        spec = AnsatzSpec(2, 2, reps=3)
        u = build_ansatz_unitary(spec, np.zeros(spec.n_params))
        mags = np.abs(u)
        assert np.all((mags < 1e-15) | (np.abs(mags - 1.0) < 1e-15))

    def test_unitary_for_random_angles(self, rng):
        spec = AnsatzSpec(2, 1, reps=2)
        eye = np.eye(8)
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0 * math.pi, spec.n_params)
            u = build_ansatz_unitary(spec, theta)
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12

    def test_wrong_parameter_count(self):
        spec = AnsatzSpec(1, 1, reps=1)
        with pytest.raises(ValidationError):
            build_ansatz_unitary(spec, np.zeros(spec.n_params + 1))


class TestInitialLatentState:
    def test_zero_angles_ground_state(self):
        rho = initial_latent_state(AnsatzSpec(2, 2), np.zeros(2))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_pi_rotation_excites_single_qubit(self):
        rho = initial_latent_state(SPEC_1_1, np.array([math.pi]))
        assert rho.matrix[1, 1].real == pytest.approx(1.0, abs=1e-15)

    def test_purity(self, rng):
        spec = AnsatzSpec(2, 2)
        for _ in range(20):
            rho = initial_latent_state(spec, rng.uniform(0.0, 2 * math.pi, 2)).matrix
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


class TestKrausFromUnitary:
    def test_hadamard_blocks(self):
        model = hadamard_channel()
        for op in model.kraus:
            assert np.max(np.abs(op - np.eye(2) / math.sqrt(2.0))) < 1e-15

    def test_readout_projectors(self):
        model = readout_channel()
        assert np.max(np.abs(model.kraus[0] - np.diag([1.0, 0.0]))) < 1e-15
        assert np.max(np.abs(model.kraus[1] - np.diag([0.0, 1.0]))) < 1e-15

    def test_completeness_for_random_models(self, rng):
        for trial in range(100):
            spec = AnsatzSpec(
                latent_qubits=int(rng.integers(1, 3)),
                observed_qubits=int(rng.integers(1, 3)),
                reps=int(rng.integers(1, 4)),
                entanglement="full" if trial % 2 == 0 else "linear",
            )
            model = random_qhmm(spec, int(rng.integers(0, 2**31)))
            d = spec.dim_latent
            acc = np.zeros((d, d), dtype=complex)
            for op in model.kraus:
                acc += op.conj().T @ op
            assert np.max(np.abs(acc - np.eye(d))) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rho_l = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho_o = np.diag([0.25, 0.75]).astype(complex)
        joint = np.kron(rho_l, rho_o)
        assert np.max(np.abs(partial_trace(joint, "latent", (2, 2)).matrix - rho_l)) < 1e-14
        assert np.max(np.abs(partial_trace(joint, "observed", (2, 2)).matrix - rho_o)) < 1e-14

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        joint = np.outer(bell, bell.conj())
        for keep in ("latent", "observed"):
            reduced = partial_trace(joint, keep, (2, 2)).matrix
            assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-14

    def test_trace_one(self, rng):
        model = random_qhmm(AnsatzSpec(1, 1, reps=2), 3)
        u = build_ansatz_unitary(model.spec, model.theta)
        joint = np.kron(model.rho0.matrix, np.diag([1.0, 0.0]).astype(complex))
        evolved = u @ joint @ u.conj().T
        reduced = partial_trace(evolved, "latent", (2, 2))
        assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-12


def filter_step(rho, model, symbol):
    """Condition the latent state on one symbol by ``operators.filtered``: (rho_next, prob)."""
    steps, x = operators.filtered(model.operators(), [symbol], rho.matrix.reshape(1, -1))
    sigma = x[0].reshape(rho.dim, rho.dim)
    return DensityMatrix(matrix=0.5 * (sigma + sigma.conj().T)), float(steps[0, 0])


class TestQhmmStep:
    def test_hadamard_step(self):
        model = hadamard_channel()
        for symbol in (0, 1):
            rho_next, prob = filter_step(model.rho0, model, symbol)
            assert prob == pytest.approx(0.5, abs=1e-14)
            assert np.max(np.abs(rho_next.matrix - model.rho0.matrix)) < 1e-14

    def test_readout_on_diagonal_state(self):
        model = readout_channel()
        rho = DensityMatrix(matrix=np.diag([0.3, 0.7]).astype(complex))
        rho_next, prob = filter_step(rho, model, 1)
        assert prob == pytest.approx(0.7, abs=1e-14)
        assert rho_next.matrix[1, 1].real == pytest.approx(1.0, abs=1e-14)

    def test_step_probabilities_sum_to_one(self, rng):
        model = random_qhmm(AnsatzSpec(2, 2, reps=2), 17)
        # random valid rho: normalized Wishart-style draw
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix(matrix=(x @ x.conj().T) / np.trace(x @ x.conj().T).real)
        total = sum(filter_step(rho, model, s)[1] for s in range(model.n_obs))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_raises(self):
        model = readout_channel()
        rho = DensityMatrix(matrix=np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ZeroLikelihoodError):
            filter_step(rho, model, 1)


class TestSequenceLogprob:
    def test_hadamard_uniform(self):
        model = hadamard_channel()
        for horizon in (1, 5, 11):
            seq = [0, 1] * horizon
            assert qhmm_sequence_logprob(model, seq) == pytest.approx(
                2 * horizon * math.log(0.5), rel=1e-13
            )

    def test_readout_deterministic(self):
        model = readout_channel()
        assert qhmm_sequence_logprob(model, [0, 0, 0]) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(ZeroLikelihoodError) as err:
            qhmm_sequence_logprob(model, [0, 1])
        assert err.value.step == 1

    def test_total_probability_exhaustive(self, rng):
        model = random_qhmm(AnsatzSpec(1, 1, reps=3), 23)
        for horizon in range(1, 11):
            total = sum(
                math.exp(qhmm_sequence_logprob(model, seq))
                for seq in itertools.product(range(2), repeat=horizon)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_unnormalized_route(self, rng):
        model = random_qhmm(AnsatzSpec(2, 1, reps=2), 29)
        seq = rng.integers(0, 2, 12)
        assert qhmm_sequence_probability(model, seq) == pytest.approx(
            math.exp(qhmm_sequence_logprob(model, seq)), rel=1e-12
        )

    def test_positivity_along_filtering(self, rng):
        model = random_qhmm(AnsatzSpec(2, 1, reps=3), 31)
        seq = qhmm_simulate(model, 1000, seed=8)
        rho = model.rho0
        for symbol in seq:
            rho, _ = filter_step(rho, model, int(symbol))
            assert np.linalg.eigvalsh(rho.matrix).min() > -1e-9


class TestSimulate:
    def test_hadamard_frequencies(self):
        model = hadamard_channel()
        seq = qhmm_simulate(model, 100_000, seed=4)
        freq = np.bincount(seq, minlength=2) / seq.size
        assert np.max(np.abs(freq - 0.5)) < 3.0 * 0.5 / math.sqrt(seq.size)

    def test_determinism(self):
        model = random_qhmm(AnsatzSpec(2, 2, reps=1), 5)
        assert np.array_equal(qhmm_simulate(model, 300, seed=7), qhmm_simulate(model, 300, seed=7))

    def test_pair_frequencies_match_exact_law(self):
        model = random_qhmm(AnsatzSpec(1, 1, reps=2), 13)
        # pairs within one long run are not iid draws of the length-2 law (the
        # latent state carries over), so simulate independent short runs
        counts = np.zeros(4)
        for trial in range(2000):
            s = qhmm_simulate(model, 2, seed=1000 + trial)
            counts[2 * s[0] + s[1]] += 1
        freqs = counts / 2000
        for idx, pair in enumerate(itertools.product(range(2), repeat=2)):
            p = math.exp(qhmm_sequence_logprob(model, pair))
            sigma = math.sqrt(p * (1 - p) / 2000)
            assert abs(freqs[idx] - p) < 3.5 * sigma + 1e-3


class TestCausalBreak:
    def test_identical_distributions_after_reset(self, rng):
        spec = AnsatzSpec(latent_qubits=2, observed_qubits=1, reps=3)
        model = random_qhmm(spec, 99)
        report = causal_break_test(model, (1, 1), (0, 0), horizon=3)
        assert report.markovian
        assert report.max_abs_diff < 1e-10
        assert np.sum(report.distribution_a) == pytest.approx(1.0, abs=1e-10)

    def test_equal_prefixes_trivially_markovian(self):
        model = random_qhmm(AnsatzSpec(1, 1, reps=2), 41)
        report = causal_break_test(model, (0, 1), (0, 1), horizon=2)
        assert report.markovian

    def test_horizon_one_readout_gives_diagonal(self):
        model = readout_channel()
        rho = DensityMatrix(matrix=np.diag([0.3, 0.7]).astype(complex))
        # filter a prefix that leaves rho0 unchanged is impossible for readout
        # from a pure start; check through the continuation law directly
        report = causal_break_test(model, (0,), (0,), horizon=1)
        assert report.distribution_a == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_zero_probability_prefix_rejected(self):
        model = readout_channel()
        with pytest.raises(ZeroLikelihoodError):
            causal_break_test(model, (1,), (0,), horizon=1)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.diag([1.5, -0.5]).astype(complex))


class TestNonFiniteAngles:
    """An infinite or NaN angle is rejected by the one-model builders with a ValidationError
    naming it; the batched builder names an infinite Ry angle, the one libm rejects."""

    SPEC = AnsatzSpec(1, 2, reps=3)  # angles 0-2 are layer 0's Ry, 3-5 its Rz

    def angles(self, at=None, value=None):
        theta = np.full(self.SPEC.n_params, 0.3)
        if at is not None:
            theta[at] = value
        return theta

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 4, 9])
    def test_circuit_angle(self, at, value):
        theta = self.angles(at, value)
        for build in (lambda: build_qhmm(self.SPEC, theta, [0.1]),
                      lambda: build_ansatz_unitary(self.SPEC, theta)):
            with pytest.raises(ValidationError, match=rf"theta\[{at}\] is {value}: angles"):
                build()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_initial_state_angle(self, value):
        for build in (lambda: build_qhmm(self.SPEC, self.angles(), [value]),
                      lambda: initial_latent_state(self.SPEC, [value])):
            with pytest.raises(ValidationError, match=rf"theta_init\[0\] is {value}: angles"):
                build()

    def test_stacked_angles_are_located(self):
        theta = np.stack([self.angles(), self.angles(9, math.nan)])
        with pytest.raises(ValidationError, match=r"theta\[1, 9\] is nan"):
            build_ansatz_unitary(self.SPEC, theta)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 4, 9])
    def test_batched_builder_names_an_angle_its_operators_fail_on(self, at, value):
        """A NaN angle, or an infinite Rz angle, gives NaN operators, which fail the
        completeness check: the angle is named there (an infinite Ry angle, at 0, is named
        where libm rejects it)."""
        theta = np.stack([self.angles(), self.angles(at, value)])
        with pytest.raises(ValidationError, match=rf"theta\[1, {at}\] is {value}: angles"):
            qhmm_operators(self.SPEC, theta, np.full((2, 1), 0.1))

    def test_batched_builder_rejects_operators_that_are_not_complete(self, monkeypatch):
        """Finite angles whose operators fail the check still raise the completeness error."""
        monkeypatch.setattr(qhmm, "_COMPLETENESS_TOL", -1.0)
        with pytest.raises(ValidationError, match="sum K\\^dagger K = I"):
            qhmm_operators(self.SPEC, self.angles()[None], np.full((1, 1), 0.1))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_batched_builder_names_an_infinite_ry_angle(self, value):
        theta = np.stack([self.angles(), self.angles(7, value)])
        with pytest.raises(ValidationError, match=rf"theta\[1, 7\] is {value}: angles"):
            qhmm_operators(self.SPEC, theta, np.full((2, 1), 0.1))
        with pytest.raises(ValidationError, match=rf"theta_init\[0, 0\] is {value}: angles"):
            qhmm_operators(self.SPEC, theta[:1], np.array([[value]]))
