"""Derivative-free maximum likelihood fitting and penalized model selection.

Every model class (square-root-diffusion parametric, non-parametric transition
matrix, quantum channel) is fitted with the same machinery: a deterministic
Nelder-Mead simplex descent on the negative log-likelihood, with infeasible
parameter vectors rejected through a large finite barrier rather than a
reparameterization. A fit's restarts descend in lockstep: each round evaluates
every point they ask for in one call of a batched objective, and each descent
follows the path it would follow alone. Model order selection maximizes loglik/T - Lambda_T with
the complexity penalty

    Lambda_T = (C/eta) (ln T)^10 / T * { w + (ln T)^4 (m n_L + n_L^2 - 1)
                                         ((ln T)^3 ln ln T + ln C_aux) }

over candidate state counts restricted to perfect squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chmm import (
    MULTISET,
    ClassicalHmm,
    build_classical_hmm,
    log_likelihood_continuous,
)
from .errors import NumericalError, ValidationError, ZeroLikelihoodError
from .operators import OperatorModel, forward, log_prob, stack
from .qhmm import AnsatzSpec, build_qhmm, qhmm_operators
from .seeds import derive_seed
from .volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    cir_spot_grid,
    cir_transition_matrix,
    nonparam_transition_matrix,
)

KIND_CIR = "cir"
KIND_NONPARAM = "nonparam"
KIND_QHMM = "qhmm"

_BARRIER = 1e8
_OBJECTIVE_FAIL = 1e12


@dataclass(frozen=True)
class FitConfig:
    max_iter: int = 2000
    ftol: float = 1e-9
    xtol: float = 1e-9
    initial_simplex_scale: float = 0.1
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.ftol > 0.0 and self.xtol > 0.0 and self.initial_simplex_scale > 0.0):
            raise ValidationError("tolerances and simplex scale must be positive")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class RestartRecord:
    """One restart of a fit: where it started and how its simplex ended."""

    start: np.ndarray
    nll: float
    iterations: int
    converged: bool


@dataclass
class FitResult:
    """Best restart's point, value and trace, with counts over all restarts of the fit.

    ``barrier_hits`` counts values in [1e8, 1e12) (infeasible points) and ``sentinel_hits``
    values >= 1e12 (failed evaluations); ``restarts`` lists every restart in order.
    """

    theta_hat: np.ndarray
    nll: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)
    evaluations: int = 0
    barrier_hits: int = 0
    sentinel_hits: int = 0
    restarts: list = field(default_factory=list)


@dataclass(frozen=True)
class PenaltyConstants:
    """Constants of the complexity penalty and the deviation-term bound."""

    c_lambda: float = 1.0
    eta: float = 1.0
    w_m: float = 1.0
    c_aux: float = 1.0
    a_const: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if not (self.c_lambda > 0.0):
            raise ValidationError("c_lambda must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError("eta must lie in (0, 1]")
        if not (self.w_m >= 0.0):
            raise ValidationError("w_m must be nonnegative")
        if not (self.c_aux >= 1.0):
            raise ValidationError("c_aux must be >= 1")
        if not (self.a_const > 0.0):
            raise ValidationError("a_const must be positive")
        if not (self.tau >= 1.0):
            raise ValidationError("tau must be >= 1")


def _simplex_descent(x0, cfg: FitConfig):
    """Nelder-Mead with reflection/expansion/contraction/shrink = 1, 2, 0.5, 0.5, as a generator.

    It yields each (k, dim) array of points it needs (the dim + 1 start vertices, one
    reflect, expand or contract point, or the dim shrink points), is sent their k
    objective values, and returns the FitResult. Deterministic given x0 and cfg. Stops
    once the vertex objective spread is below ftol and the simplex diameter around the
    best vertex is below xtol (both, else a symmetric simplex straddling an optimum would
    stop early), or when max_iter iterations elapse.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    verts = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        step = cfg.initial_simplex_scale * (abs(v[i]) if v[i] != 0.0 else 1.0)
        v[i] += step
        verts.append(v)
    verts = np.array(verts)
    fvals = np.array((yield verts), dtype=float)
    if not math.isfinite(fvals[0]):
        raise NumericalError(f"objective is not finite at the starting point ({fvals[0]})")

    iterations = 0
    converged = False
    trace = []
    while iterations < cfg.max_iter:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        trace.append(float(fvals[0]))
        spread = fvals[-1] - fvals[0]
        diameter = np.max(np.abs(verts[1:] - verts[0])) if dim > 0 else 0.0
        if spread < cfg.ftol and diameter < cfg.xtol:
            converged = True
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        reflected = centroid + 1.0 * (centroid - verts[-1])
        (f_r,) = yield reflected[None, :]
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            (f_e,) = yield expanded[None, :]
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (verts[-1] - centroid)
            (f_c,) = yield contracted[None, :]
            if f_c < min(f_r, fvals[-1]):
                verts[-1], fvals[-1] = contracted, f_c
            else:
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + 0.5 * (verts[j] - verts[0])
                fvals[1:] = yield verts[1:]

    order = np.argsort(fvals, kind="stable")
    best = order[0]
    return FitResult(
        theta_hat=verts[best].copy(),
        nll=float(fvals[best]),
        iterations=iterations,
        converged=converged,
        trace=trace,
    )


def lockstep_nelder_mead(batch_objective, starts, cfg: FitConfig) -> FitResult:
    """One simplex descent per start, advanced together; the best result, first on ties.

    Each round stacks the points every unfinished descent asks for into one (B, dim)
    array and makes one ``batch_objective`` call, which returns their B values. A
    descent's path depends only on its own values, so it is the same as a descent run
    alone. The result counts the evaluations of all descents and lists each of them.
    """
    runs = [_simplex_descent(x0, cfg) for x0 in starts]
    pending = [next(run) for run in runs]
    results = [None] * len(runs)
    evaluations = barrier_hits = sentinel_hits = 0
    while any(points is not None for points in pending):
        live = [i for i, points in enumerate(pending) if points is not None]
        values = np.asarray(batch_objective(np.concatenate([pending[i] for i in live])), float)
        evaluations += values.size
        barrier_hits += int(np.count_nonzero((values >= _BARRIER) & (values < _OBJECTIVE_FAIL)))
        sentinel_hits += int(np.count_nonzero(values >= _OBJECTIVE_FAIL))
        offset = 0
        for i in live:
            n = len(pending[i])
            try:
                pending[i] = runs[i].send(values[offset : offset + n])
            except StopIteration as done:
                results[i], pending[i] = done.value, None
            offset += n
    best = None
    for result in results:
        if best is None or result.nll < best.nll:
            best = result
    best.evaluations, best.barrier_hits = evaluations, barrier_hits
    best.sentinel_hits = sentinel_hits
    best.restarts = [
        RestartRecord(np.asarray(x0, dtype=float), r.nll, r.iterations, r.converged)
        for x0, r in zip(starts, results)
    ]
    return best


def nelder_mead(objective, x0, cfg: FitConfig) -> FitResult:
    """Simplex descent from x0 on a scalar objective (see ``_simplex_descent``)."""
    return lockstep_nelder_mead(
        lambda points: [float(objective(x)) for x in points], [x0], cfg
    )


def constraint_penalty(theta, kind: str, n_states: int) -> float:
    """Zero inside the feasible region, a large finite barrier outside it."""
    theta = np.asarray(theta, dtype=float)
    violation = 0.0
    if kind == KIND_CIR:
        violation = float(np.clip(-theta, 0.0, None).sum())
        if np.any(theta <= 0.0):
            violation = max(violation, 1e-12)
    elif kind == KIND_NONPARAM:
        expected = n_states * (n_states - 1)
        if theta.shape != (expected,):
            raise ValidationError(
                f"expected {expected} parameters for {n_states} states, got shape {theta.shape}"
            )
        low = float(np.clip(-theta, 0.0, None).sum())
        high = float(np.clip(theta - 1.0, 0.0, None).sum())
        violation = low + high
        if np.any(theta <= 0.0) or np.any(theta >= 1.0):
            violation = max(violation, 1e-12)
        groups = theta.reshape(n_states, n_states - 1)
        row_excess = np.clip(groups.sum(axis=1) - 1.0, 0.0, None).sum()
        if np.any(groups.sum(axis=1) >= 1.0):
            violation = max(violation + float(row_excess), 1e-12)
    elif kind == KIND_QHMM:
        violation = 0.0  # angles are periodic, nothing to constrain
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    if violation == 0.0:
        return 0.0
    return _BARRIER * (1.0 + violation)


def _batch_nll(model: OperatorModel, data) -> np.ndarray:
    """Negative log-likelihood of ``data`` under each model of a batch; the failure
    sentinel where the data have probability zero."""
    nll = -log_prob(forward(model, data)[0])
    nll[nll == math.inf] = _OBJECTIVE_FAIL
    return nll


def _check_best(best: FitResult):
    """A fit whose best value is a barrier, a failure sentinel or NaN found no feasible model."""
    if not (best.nll < _BARRIER):
        raise NumericalError(
            f"no restart reached a feasible, evaluable point (best objective {best.nll})"
        )


def classical_model_from_theta(
    theta,
    kind: str,
    n_states: int,
    k: int,
    scheme: ObservationScheme,
    grid: SpotGrid | None = None,
    delta: float = 1.0,
    mode: str = MULTISET,
) -> ClassicalHmm:
    """Candidate model for a parameter vector; x0 is the stationary law of its chain."""
    if kind == KIND_CIR:
        params = CirParams(alpha=float(theta[0]), beta=float(theta[1]), sigma=float(theta[2]))
        grid = cir_spot_grid(params, n_states)
        a_hf = cir_transition_matrix(params, grid, delta / k)
    elif kind == KIND_NONPARAM:
        if grid is None:
            raise ValidationError("nonparam models need an externally supplied spot grid")
        a_hf = nonparam_transition_matrix(theta, n_states, dt=delta / k)
    else:
        raise ValidationError(f"unknown classical kind {kind!r}")
    return build_classical_hmm(grid, a_hf, k, scheme, mode=mode)


def default_classical_start(kind: str, n_states: int, data=None, data_kind: str = "symbols"):
    """Deterministic optimizer starting point.

    cir starts at (1, vhat, 0.5) with vhat the sample return variance when raw
    returns are available (0.1 otherwise); nonparam starts at uniform rows.
    """
    if kind == KIND_CIR:
        beta0 = 0.1
        if data is not None and data_kind == "returns":
            beta0 = float(max(np.var(np.asarray(data, dtype=float)), 1e-6))
        return np.array([1.0, beta0, 0.5])
    if kind == KIND_NONPARAM:
        return np.full(n_states * (n_states - 1), 1.0 / n_states)
    raise ValidationError(f"unknown classical kind {kind!r}")


def classical_batch_objective(
    data,
    kind: str,
    n_states: int,
    k: int,
    scheme: ObservationScheme,
    grid: SpotGrid | None = None,
    delta: float = 1.0,
    mode: str = MULTISET,
    data_kind: str = "symbols",
):
    """Fit objective on a (B, dim) batch of parameter rows: (B,) values, each the one its row
    gets alone.

    A row outside the feasible region gets its barrier value and is never built; a row
    whose model cannot be built or evaluated gets the failure sentinel. Symbol data run
    through one batched forward pass; raw returns through each row's returns filter.
    """

    def objective(thetas):
        values = np.empty(len(thetas))
        symbol_rows, symbol_models = [], []
        for i, theta in enumerate(thetas):
            values[i] = constraint_penalty(theta, kind, n_states)
            if values[i] > 0.0:
                continue
            try:
                model = classical_model_from_theta(
                    theta, kind, n_states, k, scheme, grid=grid, delta=delta, mode=mode
                )
                if data_kind == "returns":
                    values[i] = -log_likelihood_continuous(model, data)
                else:
                    symbol_rows.append(i)
                    symbol_models.append(model.operators())
            except (ZeroLikelihoodError, NumericalError, ValidationError):
                values[i] = _OBJECTIVE_FAIL
        if symbol_rows:
            values[symbol_rows] = _batch_nll(stack(symbol_models), data)
        return values

    return objective


def qhmm_batch_objective(data, spec: AnsatzSpec):
    """Fit objective on a (B, latent_qubits + n_params) batch of packed angles: (B,) values."""
    n_init = spec.latent_qubits

    def objective(packed):
        return _batch_nll(qhmm_operators(spec, packed[:, n_init:], packed[:, :n_init]), data)

    return objective


def fit_classical(
    data,
    kind: str,
    n_states: int,
    k: int,
    scheme: ObservationScheme,
    cfg: FitConfig,
    grid: SpotGrid | None = None,
    delta: float = 1.0,
    mode: str = MULTISET,
    data_kind: str = "symbols",
    theta0=None,
):
    """Maximum likelihood fit of a classical model; returns (FitResult, ClassicalHmm)."""
    if n_states < 2:
        raise ValidationError(f"need at least 2 hidden states, got {n_states}")
    data = np.asarray(data)
    if data.size == 0:
        raise ValidationError("data must be nonempty")
    if data_kind not in ("symbols", "returns"):
        raise ValidationError(f"data_kind must be 'symbols' or 'returns', got {data_kind!r}")
    if data_kind == "symbols" and (data.min() < 0 or data.max() >= scheme.n_bins):
        raise ValidationError("data symbols out of range for the observation scheme")

    start = (
        np.asarray(theta0, dtype=float)
        if theta0 is not None
        else default_classical_start(kind, n_states, data, data_kind)
    )
    starts = [start]
    for r in range(1, cfg.restarts):
        rng = np.random.default_rng(derive_seed(cfg.seed, "classical-restart", r))
        x0 = start * np.exp(0.5 * rng.standard_normal(start.size))
        if constraint_penalty(x0, kind, n_states) > 0.0:
            x0 = start  # perturbation left the feasible region; fall back
        starts.append(x0)
    objective = classical_batch_objective(
        data, kind, n_states, k, scheme, grid=grid, delta=delta, mode=mode, data_kind=data_kind
    )
    best = lockstep_nelder_mead(objective, starts, cfg)
    _check_best(best)
    model = classical_model_from_theta(
        best.theta_hat, kind, n_states, k, scheme, grid=grid, delta=delta, mode=mode
    )
    return best, model


def fit_qhmm(data, spec: AnsatzSpec, cfg: FitConfig, theta0=None):
    """Maximum likelihood fit of the quantum channel; returns (FitResult, QhmmModel).

    The parameter vector stacks the initial-state angles (first latent_qubits
    entries) and the circuit angles. Restart 0 uses theta0 when provided;
    remaining restarts draw all angles uniformly from [0, 2pi).
    """
    data = np.asarray(data, dtype=np.int64)
    if data.size == 0:
        raise ValidationError("data must be nonempty")
    if data.min() < 0 or data.max() >= spec.dim_observed:
        raise ValidationError("data symbols out of range for the observed register")
    n_init = spec.latent_qubits
    dim = n_init + spec.n_params

    starts = []
    for r in range(cfg.restarts):
        if r == 0 and theta0 is not None:
            x0 = np.asarray(theta0, dtype=float)
            if x0.shape != (dim,):
                raise ValidationError(f"theta0 must have {dim} entries, got shape {x0.shape}")
        else:
            rng = np.random.default_rng(derive_seed(cfg.seed, "qhmm-restart", r))
            x0 = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        starts.append(x0)
    best = lockstep_nelder_mead(qhmm_batch_objective(data, spec), starts, cfg)
    _check_best(best)
    model = build_qhmm(spec, best.theta_hat[n_init:], best.theta_hat[:n_init])
    return best, model


def penalty_lambda(n_periods: int, n_states: int, m_params: int, consts: PenaltyConstants) -> float:
    """Complexity penalty Lambda_T for a candidate with n_states states and m_params parameters."""
    if n_periods < 3:
        raise ValidationError(f"need n_periods >= 3 so ln ln T is positive, got {n_periods}")
    if n_states < 1:
        raise ValidationError(f"n_states must be >= 1, got {n_states}")
    log_t = math.log(n_periods)
    inner = (m_params * n_states + n_states * n_states - 1) * (
        log_t**3 * math.log(log_t) + math.log(consts.c_aux)
    )
    return (consts.c_lambda / consts.eta) * (log_t**10 / n_periods) * (
        consts.w_m + log_t**4 * inner
    )


def free_param_count(kind: str, n_states: int, spec: AnsatzSpec | None = None) -> int:
    """Free parameters of a candidate: cir 3, nonparam n(n-1), qhmm circuit + init angles."""
    if kind == KIND_CIR:
        return 3
    if kind == KIND_NONPARAM:
        return n_states * (n_states - 1)
    if kind == KIND_QHMM:
        if spec is None:
            raise ValidationError("qhmm parameter count needs the ansatz spec")
        return spec.n_params + spec.latent_qubits
    raise ValidationError(f"unknown model kind {kind!r}")


@dataclass
class CandidateReport:
    kind: str
    n_states: int
    nll: float
    loglik_per_step: float
    penalty: float
    penalized_objective: float
    converged: bool


def penalized_select(
    data,
    candidates,
    k: int,
    scheme: ObservationScheme,
    consts: PenaltyConstants,
    cfg: FitConfig,
    grids: dict | None = None,
    delta: float = 1.0,
    mode: str = MULTISET,
    data_kind: str = "symbols",
):
    """Fit each (kind, n_states) candidate and pick the best penalized likelihood.

    Candidate state counts must be perfect squares. ``grids`` maps n_states to
    the SpotGrid used by nonparam candidates. Returns (best index, best model,
    list of CandidateReport); ties break by candidate order, then lower
    n_states.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("need at least one candidate")
    n_periods = len(data)
    reports = []
    models = []
    for kind, n_states in candidates:
        root = math.isqrt(n_states)
        if root * root != n_states:
            raise ValidationError(f"candidate n_states={n_states} is not a perfect square")
        grid = (grids or {}).get(n_states)
        result, model = fit_classical(
            data, kind, n_states, k, scheme, cfg,
            grid=grid, delta=delta, mode=mode, data_kind=data_kind,
        )
        lam = penalty_lambda(n_periods, n_states, free_param_count(kind, n_states), consts)
        loglik_per_step = -result.nll / n_periods
        reports.append(
            CandidateReport(
                kind=kind,
                n_states=n_states,
                nll=result.nll,
                loglik_per_step=loglik_per_step,
                penalty=lam,
                penalized_objective=loglik_per_step - lam,
                converged=result.converged,
            )
        )
        models.append(model)
    objectives = [r.penalized_objective for r in reports]
    best_idx = min(
        range(len(reports)), key=lambda i: (-objectives[i], i, reports[i].n_states)
    )
    return best_idx, models[best_idx], reports
