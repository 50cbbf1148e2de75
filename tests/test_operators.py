"""The observable-operator kernel against references built here from the model definitions.

Classical references multiply diag(e_s) A (or A diag(e_s)) explicitly; quantum
references apply K rho K^dagger to density matrices. Neither goes through
``volhmm.operators``.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_classical_hmm
from volhmm import operators
from volhmm.analysis import build_hankel, hankel_of_model, kl_exact_small
from volhmm.errors import ValidationError, ZeroLikelihoodError
from volhmm.qhmm import AnsatzSpec, build_qhmm, random_qhmm


def classical_product(hmm, seq, propagate_first=False):
    """Row vector x0 M_{s1} ... M_{sL} from explicit matrix products."""
    a = hmm.a.probs
    v = hmm.x0.copy()
    for s in seq:
        d = np.diag(hmm.emission.probs[:, s])
        v = v @ (a @ d if propagate_first else d @ a)
    return v


def kraus_product(model, seq):
    """Unnormalised conditional state K_sL ... K_s1 rho0 K_s1^+ ... K_sL^+."""
    rho = model.rho0.matrix
    for s in seq:
        k = model.kraus[s]
        rho = k @ rho @ k.conj().T
    return rho


def classical_prob(hmm, seq):
    return float(classical_product(hmm, seq).sum())


def kraus_prob(model, seq):
    return float(np.trace(kraus_product(model, seq)).real)


def readout_qhmm():
    """All-zero angles: the symbol reads out the |0> latent state, so only 0 ever appears."""
    spec = AnsatzSpec(latent_qubits=1, observed_qubits=1, reps=1)
    return build_qhmm(spec, np.zeros(spec.n_params), np.zeros(1))


class TestClassicalOperators:
    @pytest.mark.parametrize("propagate_first", [False, True])
    def test_filtered_states_and_steps_match_products(self, rng, propagate_first):
        hmm = random_classical_hmm(rng, n_states=3, n_obs=3, k=2)
        ops = hmm.operators("propagate-first" if propagate_first else "weight-first")
        seq = rng.integers(0, 3, 12).tolist()
        steps, states = operators.forward(ops, seq, keep_states=True)
        for t in range(len(seq)):
            v = classical_product(hmm, seq[: t + 1], propagate_first)
            prev = classical_product(hmm, seq[:t], propagate_first)
            assert states[t, 0] == pytest.approx(v / v.sum(), rel=1e-12)
            assert steps[0, t] == pytest.approx(v.sum() / prev.sum(), rel=1e-12)

    def test_probability_and_loglik_match_products(self, rng):
        hmm = random_classical_hmm(rng, n_states=4, n_obs=2, k=1)
        ops = hmm.operators()
        for seq in itertools.product(range(2), repeat=5):
            p = classical_prob(hmm, seq)
            assert operators.probability(ops, seq) == pytest.approx(p, rel=1e-13)
            assert operators.log_likelihood(ops, seq) == pytest.approx(math.log(p), rel=1e-13)

    def test_rows_of_a_batch_match_single_passes(self, rng):
        hmm = random_classical_hmm(rng, n_states=3, n_obs=2, k=1)
        ops = hmm.operators()
        starts = rng.dirichlet(np.ones(3), size=4)
        seq = [1, 0, 0, 1, 1]
        steps, states = operators.forward(ops, seq, starts)
        for b in range(4):
            one_steps, one_state = operators.forward(ops, seq, starts[b : b + 1])
            assert steps[b] == pytest.approx(one_steps[0], rel=1e-14)
            assert states[b] == pytest.approx(one_state[0], rel=1e-14)


class TestQuantumOperators:
    def test_states_match_kraus_products(self):
        model = random_qhmm(AnsatzSpec(2, 1, reps=2), 7)
        ops = model.operators()
        seq = [1, 0, 1, 1, 0, 0, 1]
        steps, states = operators.forward(ops, seq, keep_states=True)
        d = model.rho0.dim
        for t in range(len(seq)):
            sigma = kraus_product(model, seq[: t + 1])
            prev = np.trace(kraus_product(model, seq[:t])).real
            assert np.max(np.abs(states[t, 0].reshape(d, d) - sigma / np.trace(sigma).real)) < 1e-13
            assert steps[0, t] == pytest.approx(np.trace(sigma).real / prev, rel=1e-12)

    def test_probability_matches_trace_of_products(self):
        model = random_qhmm(AnsatzSpec(1, 2, reps=3), 11)
        ops = model.operators()
        for seq in itertools.product(range(4), repeat=3):
            expected = kraus_prob(model, seq)
            assert operators.probability(ops, seq) == pytest.approx(expected, rel=1e-12)

    def test_backward_vectors_are_transposed_effects(self):
        model = random_qhmm(AnsatzSpec(1, 1, reps=2), 5)
        ops = model.operators()
        labels = [()] + [s for n in (1, 2, 3) for s in itertools.product(range(2), repeat=n)]
        backward = operators.vectors(ops, 3, backward=True)
        for row, w in zip(backward, labels):
            effect = np.eye(2, dtype=complex)
            for s in reversed(w):
                effect = model.kraus[s].conj().T @ effect @ model.kraus[s]
            assert np.max(np.abs(row - effect.T.reshape(-1))) < 1e-14


class TestModelBatch:
    """A stack of models runs row b through model b with the floats of its single pass."""

    def _check_rows(self, models, seq):
        batch = operators.stack(models)
        steps, states = operators.forward(batch, seq, keep_states=True)
        last_steps, last = operators.forward(batch, seq)
        assert np.array_equal(steps, last_steps)
        for b, model in enumerate(models):
            one_steps, one_states = operators.forward(model, seq, keep_states=True)
            assert np.array_equal(steps[b], one_steps[0])
            assert np.array_equal(states[:, b], one_states[:, 0])
            assert np.array_equal(last[b], one_states[-1, 0])
            assert operators.log_prob(steps)[b] == operators.log_prob(one_steps)[0]

    def test_classical_rows_match_single_models(self, rng):
        hmms = [random_classical_hmm(rng, n_states=4, n_obs=3, k=2) for _ in range(5)]
        seq = rng.integers(0, 3, 60)
        self._check_rows([h.operators() for h in hmms], seq)
        self._check_rows([hmms[0].operators()], seq)

    def test_quantum_rows_match_single_models_with_a_zero_row(self, rng):
        spec = AnsatzSpec(1, 1, reps=1)
        models = [random_qhmm(spec, seed).operators() for seed in range(3)]
        models.insert(1, readout_qhmm().operators())  # gives symbol 1 probability zero
        seq = [0, 0, 1, 0, 1, 1, 0]
        self._check_rows(models, seq)
        steps, states = operators.forward(operators.stack(models), seq)
        assert steps[1].tolist() == [1.0, 1.0] + [0.0] * 5
        assert not np.any(states[1])
        assert np.all(steps[[0, 2, 3]] > 0.0)

    def test_classical_zero_row(self, rng):
        hmms = [random_classical_hmm(rng, n_states=3, n_obs=2, k=1) for _ in range(3)]
        zero = hmms[1].operators()
        ops = zero.ops.copy()
        ops[1] = 0.0  # symbol 1 impossible
        models = [hmms[0].operators(), operators.OperatorModel(zero.x0, ops, zero.out),
                  hmms[2].operators()]
        seq = [0, 1, 0, 0]
        self._check_rows(models, seq)
        assert operators.forward(operators.stack(models), seq)[0][1].tolist() == [
            operators.forward(models[1], [0])[0][0, 0], 0.0, 0.0, 0.0]


class TestZeroProbability:
    def test_zero_step_zeroes_the_rest_of_the_row(self):
        ops = readout_qhmm().operators()
        steps, state = operators.forward(ops, [0, 1, 0])
        assert steps[0].tolist() == [1.0, 0.0, 0.0]
        assert not np.any(state)
        assert operators.probability(ops, [0, 1, 0]) == 0.0
        with pytest.raises(ZeroLikelihoodError) as err:
            operators.log_likelihood(ops, [0, 0, 1, 0])
        assert err.value.step == 2

    def test_symbols_out_of_range(self):
        ops = readout_qhmm().operators()
        for bad in ([2], [-1], [0, 5]):
            with pytest.raises(ValidationError):
                operators.forward(ops, bad)


class TestHankelAsProduct:
    def test_classical_equals_oracle_hankel(self, rng):
        for _ in range(3):
            hmm = random_classical_hmm(rng, n_states=3, n_obs=3, k=2)
            fast = hankel_of_model(hmm, 3)
            slow = build_hankel(lambda s: classical_prob(hmm, s), 3, 3)
            assert fast.labels == slow.labels
            assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-15

    def test_quantum_equals_oracle_hankel(self):
        for seed in range(3):
            model = random_qhmm(AnsatzSpec(2, 1, reps=2), seed)
            fast = hankel_of_model(model, 4)
            slow = build_hankel(lambda s: kraus_prob(model, s), 2, 4)
            assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-15

    def test_zero_probability_prefixes(self):
        model = readout_qhmm()
        fast = hankel_of_model(model, 2)
        slow = build_hankel(lambda s: max(0.0, kraus_prob(model, s)), 2, 2)
        assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-15

    def test_cap_still_applies(self, rng):
        with pytest.raises(ValidationError):
            hankel_of_model(random_classical_hmm(rng, n_obs=3), 9)


class TestExactKl:
    @staticmethod
    def enumerate_kl(p_of, q_of, n_obs, n_steps):
        total = 0.0
        for seq in itertools.product(range(n_obs), repeat=n_steps):
            p = p_of(seq)
            if p <= 0.0:
                continue
            q = q_of(seq)
            if q <= 0.0:
                return math.inf
            total += p * (math.log(p) - math.log(q))
        return total

    def test_classical_and_quantum_pairs_match_enumeration(self, rng):
        for _ in range(3):
            hmm = random_classical_hmm(rng, n_states=3, n_obs=2, k=2)
            model = random_qhmm(AnsatzSpec(2, 1, reps=2), int(rng.integers(0, 2**31)))
            p_hmm = lambda s: classical_prob(hmm, s)  # noqa: E731
            p_model = lambda s: kraus_prob(model, s)  # noqa: E731
            ref = self.enumerate_kl(p_hmm, p_model, 2, 6)
            assert kl_exact_small(hmm, model, 6) == pytest.approx(ref, rel=1e-12)
            ref = self.enumerate_kl(p_model, p_hmm, 2, 6)
            assert kl_exact_small(model, hmm, 6) == pytest.approx(ref, rel=1e-12)

    def test_unsupported_string_gives_infinity(self, rng):
        hmm = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        readout = readout_qhmm()
        assert kl_exact_small(hmm, readout, 3) == math.inf
        # the other way round the strings readout cannot emit carry no weight
        ref = self.enumerate_kl(
            lambda s: kraus_prob(readout, s), lambda s: classical_prob(hmm, s), 2, 3
        )
        assert kl_exact_small(readout, hmm, 3) == pytest.approx(ref, rel=1e-12)

    def test_zero_steps(self, rng):
        hmm = random_classical_hmm(rng, n_obs=2)
        assert kl_exact_small(hmm, readout_qhmm(), 0) == 0.0


class TestSampler:
    def test_path_probabilities_follow_the_exact_law(self):
        model = random_qhmm(AnsatzSpec(1, 1, reps=2), 3)
        ops = model.operators()
        uniforms = np.random.default_rng(4).random(6)
        symbols, states = operators.sample(ops, uniforms)
        d = model.rho0.dim
        for t in range(6):
            sigma = kraus_product(model, symbols[: t + 1])
            assert np.max(np.abs(states[t].reshape(d, d) - sigma / np.trace(sigma).real)) < 1e-13
            # the drawn symbol is the one whose cumulative conditional law brackets the uniform
            prev = kraus_prob(model, symbols[:t])
            cond = [kraus_prob(model, list(symbols[:t]) + [s]) / prev for s in range(2)]
            assert (uniforms[t] >= cond[0]) == (symbols[t] == 1)
