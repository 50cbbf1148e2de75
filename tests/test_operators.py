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


def classical_product(hmm, seq):
    """Row vector x0 M_{s1} ... M_{sL} from explicit matrix products."""
    a = hmm.a.probs
    v = hmm.x0.copy()
    for s in seq:
        v = v @ (np.diag(hmm.emission.probs[:, s]) @ a)
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
    def test_filtered_states_and_steps_match_products(self, rng):
        hmm = random_classical_hmm(rng, n_states=3, n_obs=3, k=2)
        ops = hmm.operators()
        seq = rng.integers(0, 3, 12).tolist()
        steps, states = operators.forward(ops, seq, keep_states=True)
        for t in range(len(seq)):
            v = classical_product(hmm, seq[: t + 1])
            prev = classical_product(hmm, seq[:t])
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


    # per-row strings: row b reads strings[b]; the gather block is set to a few steps so
    # that T is covered both as a multiple of it and not
    def _check_own_strings(self, models, strings):
        batch = operators.stack(models)
        steps, states = operators.forward(batch, strings, keep_states=True)
        last_steps, last = operators.forward(batch, strings)
        assert np.array_equal(steps, last_steps)
        for b, model in enumerate(models):
            one_steps, one_states = operators.forward(model, strings[b], keep_states=True)
            one_last_steps, one_last = operators.forward(model, strings[b])
            assert np.array_equal(steps[b], one_steps[0])
            assert np.array_equal(states[:, b], one_states[:, 0])
            assert np.array_equal(last_steps[b], one_last_steps[0])
            assert np.array_equal(last[b], one_last[0])
        return steps, last

    @staticmethod
    def _set_block(monkeypatch, models, block_steps):
        """Gather ``block_steps`` steps at a time for this batch."""
        ops = operators.stack(models).ops
        rows, _, dim, _ = ops.shape
        step_bytes = rows * dim * (dim + 1) * ops.itemsize  # one step's [M_s | M_s out] per row
        monkeypatch.setattr(operators, "GATHER_BYTES", block_steps * step_bytes)

    @pytest.mark.parametrize("block_steps, n_steps", [(3, 12), (3, 13), (1, 5), (64, 9)])
    def test_classical_rows_read_their_own_strings(self, rng, monkeypatch, block_steps, n_steps):
        models = [random_classical_hmm(rng, n_states=4, n_obs=3, k=2).operators()
                  for _ in range(5)]
        self._set_block(monkeypatch, models, block_steps)
        strings = rng.integers(0, 3, (5, n_steps))
        self._check_own_strings(models, strings)
        # rows reading one string match the shared-string pass
        shared = np.repeat(strings[:1], 5, axis=0)
        steps, last = operators.forward(operators.stack(models), strings[0])
        assert np.array_equal(self._check_own_strings(models, shared)[0], steps)

    @pytest.mark.parametrize("block_steps, n_steps", [(2, 8), (2, 7)])
    def test_quantum_row_that_hits_a_zero_step_dies_alone(self, monkeypatch, block_steps,
                                                          n_steps):
        spec = AnsatzSpec(1, 1, reps=1)
        models = [random_qhmm(spec, seed).operators() for seed in range(3)]
        models.insert(1, readout_qhmm().operators())  # gives symbol 1 probability zero
        models.append(readout_qhmm().operators())
        self._set_block(monkeypatch, models, block_steps)
        strings = np.random.default_rng(5).integers(0, 2, (5, n_steps))
        strings[1, :3] = [0, 0, 1]  # the readout row dies at step 2
        strings[4] = 0  # the other readout row never sees symbol 1
        steps, last = self._check_own_strings(models, strings)
        assert steps[1].tolist() == [1.0, 1.0] + [0.0] * (n_steps - 2)
        assert not np.any(last[1])
        assert steps[4].tolist() == [1.0] * n_steps
        assert np.all(steps[[0, 2, 3]] > 0.0)

    def test_own_strings_out_of_range(self, rng):
        batch = operators.stack([random_classical_hmm(rng, n_states=2, n_obs=2, k=1).operators()
                                 for _ in range(2)])
        for bad in ([[0, 1], [2, 0]], [[0, -1], [1, 1]]):
            with pytest.raises(ValidationError, match="out of range"):
                operators.forward(batch, np.array(bad))
        with pytest.raises(ValidationError, match="batch of B models"):
            operators.forward(batch, np.zeros((3, 2), dtype=int))


class TestSingleModelOwnStrings:
    """One model with (B, T) obs: row b reads string b with the floats of its one-string pass."""

    @staticmethod
    def _check(model, strings, starts=None):
        steps, states = operators.forward(model, strings, starts, keep_states=True)
        last_steps, last = operators.forward(model, strings, starts)
        assert np.array_equal(steps, last_steps)
        for b, string in enumerate(strings):
            x = starts if starts is None or len(starts) == 1 else starts[b : b + 1]
            one_steps, one_states = operators.forward(model, string, x, keep_states=True)
            assert np.array_equal(steps[b], one_steps[0])
            assert np.array_equal(states[:, b], one_states[:, 0])
            assert np.array_equal(last[b], one_states[-1, 0])
        return steps, last

    @staticmethod
    def _classical_with_a_dead_symbol(rng):
        ops = random_classical_hmm(rng, n_states=4, n_obs=3, k=2).operators()
        dead = ops.ops.copy()
        dead[2] = 0.0  # symbol 2 impossible
        return operators.OperatorModel(ops.x0, dead, ops.out)

    def test_real_rows_with_dead_rows(self, rng):
        model = self._classical_with_a_dead_symbol(rng)
        strings = rng.integers(0, 2, (9, 11))
        strings[[2, 6], [0, 7]] = 2
        steps, last = self._check(model, strings)
        assert np.all(steps[2] == 0.0) and steps[6, 6] > 0.0 and np.all(steps[6, 7:] == 0.0)
        assert not np.any(last[[2, 6]])
        assert np.all(steps[[0, 1, 3, 4, 5, 7, 8]] > 0.0)
        self._check(model, strings, rng.dirichlet(np.ones(4), size=9))  # a start row per string

    def test_complex_rows_with_dead_rows(self):
        model = readout_qhmm().operators()  # symbol 1 impossible
        strings = np.zeros((5, 6), dtype=np.int64)
        strings[1, 2] = strings[4, 5] = 1
        steps, last = self._check(model, strings)
        assert steps[1].tolist() == [1.0, 1.0] + [0.0] * 4 and steps[4, 4] == 1.0
        assert steps[4, 5] == 0.0 and not np.any(last[[1, 4]])
        quantum = random_qhmm(AnsatzSpec(1, 2, reps=2), 6).operators()
        self._check(quantum, np.random.default_rng(4).integers(0, 4, (7, 13)))

    @pytest.mark.parametrize("cap_ops", [1, 5, 12, 30, 60])
    def test_gathered_blocks_stay_within_the_cap(self, rng, monkeypatch, cap_ops):
        """12 strings of 7 steps; a block takes min(12, cap_ops) rows and as many steps as fit."""
        model = random_classical_hmm(rng, n_states=3, n_obs=3, k=1).operators()
        op_bytes = 3 * 4 * 8  # one [M_s | M_s out]
        monkeypatch.setattr(operators, "GATHER_BYTES", cap_ops * op_bytes)
        rows_per_block = min(12, cap_ops)
        blocks = []
        gathered = operators._gathered

        def recording(step_ops, obs, batched):
            for rows, per_step in gathered(step_ops, obs, batched):
                blocks.append((rows, []))

                def steps(per_step=per_step, bases=blocks[-1][1]):
                    for ops in per_step:
                        if not bases or ops.base is not bases[-1]:
                            bases.append(ops.base)
                        yield ops

                yield rows, steps()

        strings = rng.integers(0, 3, (12, 7))
        self._check(model, strings)
        monkeypatch.setattr(operators, "_gathered", recording)
        operators.forward(model, strings)
        assert [rows.start for rows, _ in blocks] == list(range(0, 12, rows_per_block))
        for rows, bases in blocks:
            assert sum(len(b) for b in bases) == 7  # every step gathered once
            assert all(b.nbytes <= operators.GATHER_BYTES for b in bases)
            assert all(b.shape[1] == len(range(12)[rows]) <= rows_per_block for b in bases)

    def test_strings_for_a_different_number_of_rows(self, rng):
        model = random_classical_hmm(rng, n_states=2, n_obs=2, k=1).operators()
        with pytest.raises(ValidationError, match="B start rows"):
            operators.forward(model, np.zeros((3, 2), dtype=int), np.full((2, 2), 0.5))
        with pytest.raises(ValidationError, match="out of range"):
            operators.forward(model, np.array([[0, 1], [2, 0]]))


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
        symbols = operators.sample(ops, uniforms)
        states = operators.forward(ops, symbols, keep_states=True)[1][:, 0]
        d = model.rho0.dim
        for t in range(6):
            sigma = kraus_product(model, symbols[: t + 1])
            assert np.max(np.abs(states[t].reshape(d, d) - sigma / np.trace(sigma).real)) < 1e-13
            # the drawn symbol is the one whose cumulative conditional law brackets the uniform
            prev = kraus_prob(model, symbols[:t])
            cond = [kraus_prob(model, list(symbols[:t]) + [s]) / prev for s in range(2)]
            assert (uniforms[t] >= cond[0]) == (symbols[t] == 1)
