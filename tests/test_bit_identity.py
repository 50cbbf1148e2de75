"""The vectorised model builders equal their scalar definitions bit for bit.

Each reference below is the straightforward scalar form of a builder: the
transition matrix as per-midpoint ``noncentral_chi2_cdf`` differences, the
emission matrix as stacked per-Vbar ``gaussian_cdf`` bin masses, the path
weights as a gather over the enumerated paths, the returns filter with the
Gaussian log-densities recomputed at every step, and the quantum ansatz as a
per-model chain of 2x2 gates and ``np.kron`` products. The batched classical
builder (``chmm.build_classical_batches``, behind ``ClassicalFitSpec.objective``)
is held to the one-model build row by row. The builders must reproduce the same
floats, not merely close ones, so fits and their output files do not move.
"""

import math

import numpy as np
import pytest

from volhmm import chmm
from volhmm.chmm import (
    INDEX_SUM,
    MULTISET,
    _path_layout,
    _path_probs,
    build_classical_batches,
    build_classical_hmm,
    build_emission_matrix,
    build_integrated_table,
    emission_given_vbar,
    filter_path,
    log_likelihood_binned,
    log_likelihood_continuous,
)
from volhmm.errors import NonConvergenceError, NumericalError, ValidationError
from volhmm.estimate import ClassicalFitSpec
from volhmm.qhmm import (
    AnsatzSpec,
    _bit_position,
    _cnot_permutation,
    _entanglement_pairs,
    build_ansatz_unitary,
    build_qhmm,
    initial_latent_state,
    kraus_from_unitary,
    qhmm_operators,
)
from volhmm.specfun import NoncentralChi2Law, gaussian_cdf, noncentral_chi2_cdf
from volhmm.volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    build_observation_scheme,
    cir_spot_grid,
    cir_transition_matrix,
)


def reference_transition(p, grid, dt):
    s2 = p.sigma * p.sigma
    decay = math.exp(-p.alpha * dt)
    c = 2.0 * p.alpha / ((1.0 - decay) * s2)
    dof = 4.0 * p.alpha * p.beta / s2
    values = grid.values
    n = values.size
    midpoints = 0.5 * (values[:-1] + values[1:])
    probs = np.empty((n, n))
    for i in range(n):
        law = NoncentralChi2Law(dof=dof, noncentrality=2.0 * c * values[i] * decay)
        cdf = np.array([noncentral_chi2_cdf(2.0 * c * m, law) for m in midpoints])
        probs[i, 0] = cdf[0]
        probs[i, 1:-1] = np.diff(cdf)
        probs[i, -1] = 1.0 - cdf[-1]
    return TransitionMatrix(probs=probs, dt=dt)


def reference_bin_masses(vbar, scheme):
    sd = math.sqrt(vbar)
    cdf = np.array([gaussian_cdf(e / sd) for e in scheme.edges])
    out = np.empty(scheme.n_bins)
    out[0] = cdf[0]
    out[1:-1] = np.diff(cdf)
    out[-1] = 1.0 - cdf[-1]
    return out


def reference_path_probs(a_hf, paths):
    chain = a_hf[paths[:, :-1], paths[:, 1:]].prod(axis=1) if paths.shape[1] > 1 else 1.0
    return a_hf[:, paths[:, 0]] * chain


def reference_loglik_continuous(hmm, returns):
    vbar = hmm.table.vbar_values
    x = hmm.x0
    total = 0.0
    for dy in returns:
        dy = float(dy)
        logphi = -0.5 * (math.log(2.0 * math.pi) + np.log(vbar)) - (dy * dy) / (2.0 * vbar)
        shift = logphi.max()
        w = x * (hmm.table.g @ np.exp(logphi - shift))
        s = w.sum()
        total += math.log(s) + shift
        x = (w / s) @ hmm.a.probs
    return total


def reference_ry(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def reference_rz(angle):
    return np.array([[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex)


def reference_rotation_layer(spec, ry_angles, rz_angles):
    order = list(range(spec.latent_qubits - 1, -1, -1)) + [
        spec.latent_qubits + q for q in range(spec.observed_qubits - 1, -1, -1)
    ]
    layer = np.array([[1.0]], dtype=complex)
    for q in order:
        layer = np.kron(layer, reference_rz(rz_angles[q]) @ reference_ry(ry_angles[q]))
    return layer


def reference_unitary(spec, theta):
    n = spec.n_qubits
    pairs = _entanglement_pairs(n, spec.entanglement)
    inv_perm = np.argsort(_cnot_permutation(n, pairs, lambda q: _bit_position(spec, q)))
    layers = theta.reshape(spec.reps + 1, 2, n)
    u = reference_rotation_layer(spec, layers[0, 0], layers[0, 1])
    for r in range(1, spec.reps + 1):
        u = reference_rotation_layer(spec, layers[r, 0], layers[r, 1]) @ u[inv_perm, :]
    return u


def reference_rho0(spec, theta_init):
    psi = np.array([1.0], dtype=complex)
    for q in range(spec.latent_qubits - 1, -1, -1):
        psi = np.kron(psi, reference_ry(theta_init[q])[:, 0])
    pairs = [(q, q + 1) for q in range(spec.latent_qubits - 1)]
    out = np.zeros_like(psi)
    out[_cnot_permutation(spec.latent_qubits, pairs, lambda q: q)] = psi
    return np.outer(out, out.conj())


def reference_kraus(spec, u):
    blocks = u.reshape(spec.dim_latent, spec.dim_observed, spec.dim_latent, spec.dim_observed)
    return blocks[:, :, :, 0].transpose(1, 0, 2)


def _cir_cases():
    rng = np.random.default_rng(3)
    cases = [((2.2, 0.077, 1.1), 16, 0.25)]  # the shipped preset
    for _ in range(12):
        params = (rng.uniform(0.3, 6.0), rng.uniform(0.02, 0.3), rng.uniform(0.1, 2.0))
        cases.append((params, int(rng.integers(2, 17)), float(rng.choice([0.25, 0.5, 1.0]))))
    cases += [
        ((1.0, 0.1, 0.05), 8, 0.25),  # small sigma: noncentrality in the hundreds
        ((0.5, 0.2, 0.05), 8, 1.0),
        ((2.0, 0.1, 0.03), 6, 0.25),  # noncentrality in the thousands
        ((0.3, 0.1, 0.3), 8, 2e-3),  # near-sticky rows: diagonal mass above 0.999
        ((0.3, 0.1, 0.5), 8, 3e-3),
        ((8.0, 0.05, 3.0), 16, 0.25),  # large sigma: noncentrality near zero
        ((3000.0, 0.1, 1.0), 8, 0.25),  # e^{-alpha dt} underflows: central rows
    ]
    return cases


CIR_CASES = _cir_cases()


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES)
def test_transition_matrix_equals_scalar_cdf_rows(params, n_states, dt):
    p = CirParams(*params)
    grid = cir_spot_grid(p, n_states)
    built = cir_transition_matrix(p, grid, dt)
    assert np.array_equal(built.probs, reference_transition(p, grid, dt).probs)


def test_transition_matrix_single_state_row():
    p = CirParams(2.2, 0.077, 1.1)
    assert np.array_equal(cir_transition_matrix(p, SpotGrid(np.array([0.07])), 0.25).probs, [[1.0]])


def test_incomplete_gamma_nonconvergence_propagates():
    # dof/2 ~ 2e6 with x/2 ~ a: the incomplete-gamma series needs far more than
    # its iteration cap, and the failure must surface, not be swallowed.
    p = CirParams(1.0, 1.0, 0.001)
    grid = SpotGrid(np.array([0.999, 1.0, 1.001]))
    with pytest.raises(NonConvergenceError, match="incomplete gamma"):
        cir_transition_matrix(p, grid, 1.0)


@pytest.mark.parametrize("params,n_states,dt", CIR_CASES[:8])
@pytest.mark.parametrize("n_obs", [2, 3, 4, 7])
def test_emission_matrix_equals_stacked_scalar_bins(params, n_states, dt, n_obs):
    p = CirParams(*params)
    grid = cir_spot_grid(p, n_states)
    table = build_integrated_table(cir_transition_matrix(p, grid, dt), grid, 3)
    scheme = build_observation_scheme(n_obs, 4.0 * math.sqrt(p.beta))
    per_vbar = np.stack([reference_bin_masses(v, scheme) for v in table.vbar_values])
    assert np.array_equal(build_emission_matrix(table, scheme).probs, table.g @ per_vbar)
    for v in table.vbar_values[:5]:
        assert np.array_equal(emission_given_vbar(v, scheme), reference_bin_masses(v, scheme))


def test_emission_uneven_edges_and_extreme_variances():
    scheme = ObservationScheme(edges=np.array([-0.9, -0.05, 0.0, 0.3, 2.0]))
    for v in (1e-12, 1e-4, 0.3, 7.0, 1e6):
        assert np.array_equal(emission_given_vbar(v, scheme), reference_bin_masses(v, scheme))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_path_probs_equal_gathered_products(k, mode, rng):
    n = 5
    a_hf = rng.dirichlet(np.ones(n), size=n)
    paths = _path_layout(n, k, mode)[0]
    assert np.array_equal(_path_probs(a_hf, k), reference_path_probs(a_hf, paths))


def test_path_probs_preset():
    p = CirParams(2.2, 0.077, 1.1)
    a_hf = cir_transition_matrix(p, cir_spot_grid(p, 16), 0.25).probs
    paths = _path_layout(16, 4, MULTISET)[0]
    assert np.array_equal(_path_probs(a_hf, 4), reference_path_probs(a_hf, paths))


@pytest.mark.parametrize("theta", [(2.2, 0.077, 1.1), (0.8, 0.15, 0.4), (5.0, 0.03, 1.6)])
def test_continuous_loglik_equals_per_step_reference_and_filter(theta):
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    model = ClassicalFitSpec("cir", 16, 4, scheme).model(np.array(theta))
    returns = chmm.simulate(model, 120, 5)[2]
    value = log_likelihood_continuous(model, returns)
    assert value == reference_loglik_continuous(model, returns)
    total = 0.0
    for inc in filter_path(model, returns=returns).loglik_increments:
        total += inc  # the filter's summation order: one step at a time
    assert value == total


ANSATZ_SPECS = [
    AnsatzSpec(1, 2, reps=3, entanglement="full"),  # the llr ansatz
    AnsatzSpec(1, 1, reps=0, entanglement="full"),
    AnsatzSpec(2, 2, reps=2, entanglement="linear"),
    AnsatzSpec(2, 1, reps=1, entanglement="full"),
    AnsatzSpec(2, 3, reps=0, entanglement="linear"),
]


@pytest.mark.parametrize("spec", ANSATZ_SPECS, ids=str)
def test_batched_ansatz_equals_kron_chain_per_model(spec):
    rng = np.random.default_rng(spec.n_params)
    theta = rng.uniform(0.0, 2.0 * math.pi, (60, spec.n_params))
    theta_init = rng.uniform(0.0, 2.0 * math.pi, (60, spec.latent_qubits))
    theta[0], theta_init[0] = 0.0, 0.0  # exact zeros and signed zeros
    theta[1], theta_init[1] = math.pi, -math.pi
    unitaries = build_ansatz_unitary(spec, theta)
    kraus = kraus_from_unitary(unitaries, spec)
    rho0 = initial_latent_state(spec, theta_init).matrix
    ops = qhmm_operators(spec, theta, theta_init)
    for b in range(len(theta)):
        u = reference_unitary(spec, theta[b])
        assert np.array_equal(unitaries[b], u)
        assert np.array_equal(kraus[b], reference_kraus(spec, u))
        assert np.array_equal(rho0[b], reference_rho0(spec, theta_init[b]))
        one = build_qhmm(spec, theta[b], theta_init[b])
        assert np.array_equal(one.kraus, kraus[b])
        assert np.array_equal(one.rho0.matrix, rho0[b])
        single = one.operators()
        assert np.array_equal(ops.ops[b], single.ops) and np.array_equal(ops.x0[b], single.x0)


def lone_objective(spec, theta, data):
    """One parameter row's fit objective from the one-model functions."""
    barrier = spec.barrier(theta)
    if barrier > 0.0:
        return barrier
    try:
        model = spec.model(theta)
        if spec.data_kind == "returns":
            return -log_likelihood_continuous(model, data)
        return -log_likelihood_binned(model, data)
    except (NumericalError, ValidationError):
        return 1e12


def assert_rows_equal_lone_models(blocks, models):
    """Each built row's arrays equal its lone ClassicalHmm's; ``models[b]`` is row b's."""
    for rows, batch in blocks:
        vbar = np.broadcast_to(batch.vbar, (len(rows), batch.vbar.shape[-1]))
        for j, b in enumerate(rows):
            model = models[b]
            assert np.array_equal(vbar[j], model.table.vbar_values)
            assert np.array_equal(batch.g[j], model.table.g)
            assert np.array_equal(batch.emission[j], model.emission.probs)
            assert np.array_equal(batch.a[j], model.a.probs)
            assert np.array_equal(batch.x0[j], model.x0)


@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_batched_build_leaves_out_a_non_primitive_chain(mode, rng):
    n, k = 3, 3
    grid = SpotGrid(np.sort(rng.uniform(0.01, 1.0, n)))
    scheme = build_observation_scheme(4, 1.0)
    a_hf = rng.dirichlet(np.ones(n), size=(5, n))
    a_hf[2] = np.roll(np.eye(n), 1, axis=1)  # a 3-cycle: A = a_hf^3 = I is reducible
    with pytest.raises(NonConvergenceError, match="reducible"):
        build_classical_hmm(grid, TransitionMatrix(a_hf[2], 1.0 / k), k, scheme, mode)
    blocks = list(build_classical_batches(a_hf, k, scheme, mode, grid.values))
    assert np.concatenate([rows for rows, _ in blocks]).tolist() == [0, 1, 3, 4]
    models = {b: build_classical_hmm(grid, TransitionMatrix(a_hf[b], 1.0 / k), k, scheme, mode)
              for b in (0, 1, 3, 4)}
    assert_rows_equal_lone_models(blocks, models)


def mixed_rows(kind, rng):
    """Feasible rows with barrier rows and rows whose build raises among them."""
    if kind == "cir":
        return np.array([
            [1.0, 0.1, 0.5],
            [-1.0, 0.1, 0.5],  # barrier
            [1.0, 1.0, 0.002],  # the build raises: the incomplete gamma does not converge
            [2.2, 0.077, 1.1],
            [0.0, 0.2, 0.3],  # barrier at the boundary
            [0.8, 0.15, 0.4],
            [5.0, 0.001, 0.001],  # the build raises: the spot grid's quantile does not converge
            [1.0, 1e-4, 0.01],
        ])
    rows = rng.uniform(0.02, 0.45, (12, 6))  # 3 states: two free entries per row
    rows[3, :2] = [0.7, 0.4]  # a row group summing past one: barrier
    rows[7, 4] = -0.1  # barrier
    rows[9, 1] = 1.0  # barrier at the boundary
    return rows


@pytest.mark.parametrize("kind, data_kind", [("nonparam", "symbols"), ("cir", "symbols"),
                                             ("cir", "returns")])
@pytest.mark.parametrize("mode", [MULTISET, INDEX_SUM])
def test_batched_objective_equals_lone_rows(kind, data_kind, mode, rng):
    scheme = build_observation_scheme(4, 1.2)
    grid = SpotGrid(np.array([0.05, 0.2, 0.6])) if kind == "nonparam" else None
    spec = ClassicalFitSpec(kind, 3, 3, scheme, mode=mode, grid=grid, data_kind=data_kind)
    rows = mixed_rows(kind, rng)
    if data_kind == "returns":
        data = rng.normal(0.0, 0.4, (3, 25))
    else:
        data = rng.integers(0, 4, (3, 25))
    sets = rng.integers(0, 3, len(rows))
    values = spec.objective(data)(rows, sets)
    for i, theta in enumerate(rows):
        alone = spec.objective(data[sets[i]])(theta[None, :])[0]
        assert values[i] == alone == lone_objective(spec, theta, data[sets[i]])
    assert np.sum(values >= 1e8) >= 3 and np.sum(values < 1e8) >= 3
    # the builder's arrays for the rows that build
    built, grids, a_hf = [], [], []
    for i, theta in enumerate(rows):
        try:
            if spec.barrier(theta) == 0.0:
                grid_i, tm = spec._substep(theta)
                grids.append(grid_i.values)
                a_hf.append(tm.probs)
                built.append(i)
        except NumericalError:
            continue
    values_of = np.array(grids) if kind == "cir" else grid.values
    blocks = build_classical_batches(np.array(a_hf), 3, scheme, mode, values_of)
    assert_rows_equal_lone_models(blocks, [spec.model(rows[i]) for i in built])


def test_batches_hold_path_arrays_within_the_block_cap(monkeypatch):
    shapes = []
    path_probs = chmm._path_probs

    def recording(a_hf, k):
        probs = path_probs(a_hf, k)
        shapes.append(probs.shape)
        return probs

    monkeypatch.setattr(chmm, "_path_probs", recording)
    scheme = build_observation_scheme(4, 4.0 * math.sqrt(0.077))
    data = np.random.default_rng(3).integers(0, 4, 30)
    # a preset cir row's path array (16 x 16^4 floats, 8.4 MB) is above the cap: one at a time
    cir = ClassicalFitSpec("cir", 16, 4, scheme)
    cir.objective(data)(np.array([[2.2, 0.077, 1.1], [2.0, 0.08, 1.0], [2.5, 0.07, 1.2]]))
    assert shapes == [(1, 16, 16**4)] * 3
    # nonparam-4 rows (4 x 4^4 floats, 8 KB) go 128 to a block
    shapes.clear()
    grid = cir_spot_grid(CirParams(2.2, 0.077, 1.1), 4)
    spec = ClassicalFitSpec("nonparam", 4, 4, scheme, grid=grid)
    spec.objective(data)(np.full((200, 12), 0.25))
    assert shapes == [(128, 4, 256), (72, 4, 256)]
    assert 128 * 4 * 256 * 8 == chmm.BLOCK_BYTES
