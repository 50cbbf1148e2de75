"""Derivative-free maximum likelihood fitting and penalized model selection.

Every model class (square-root-diffusion parametric, non-parametric transition
matrix, quantum channel) is fitted with the same machinery: a deterministic
Nelder-Mead simplex descent on the negative log-likelihood, with infeasible
parameter vectors rejected through a large finite barrier rather than a
reparameterization. A fit's restarts descend in lockstep, and so do the fits of
several data sets: each round evaluates every point they ask for in one call of a
batched objective, and each descent follows the path it would follow alone. The
descents of such a call are held as arrays (vertices, values, trial points and a phase
per descent) and stepped with whole-array operations, so a round costs a fixed number
of array operations however many descents it advances. A fit
candidate (``ClassicalFitSpec`` or ``QhmmFitSpec``) holds a model kind and every
setting its fit needs, and owns its barrier, restart starts, batched objective and
model builder; one driver, ``spec.fit_all(datas, cfgs)``, checks the data and runs
them for either kind, and ``spec.fit(data, cfg)`` is its one-fit case. Model order
selection maximizes loglik/T - Lambda_T with the complexity penalty

    Lambda_T = (C/eta) (ln T)^10 / T * { w + (ln T)^4 (m n_L + n_L^2 - 1)
                                         ((ln T)^3 ln ln T + ln C_aux) }

over candidate state counts restricted to perfect squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chmm import (
    MULTISET,
    ClassicalHmm,
    build_classical_batches,
    build_classical_hmm,
    grid_emissions,
)
from .errors import NumericalError, ValidationError
from .operators import OperatorModel, forward, log_prob, stack
from .qhmm import AnsatzSpec, build_qhmm, qhmm_operators
from .seeds import derive_seed
from .volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    cir_spot_grid,
    cir_transition_matrix,
    nonparam_rows,
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

    ``evaluations`` counts the parameter rows the objective evaluated, ``barrier_hits``
    those valued in [1e8, 1e12) (infeasible points) and ``sentinel_hits`` those valued
    >= 1e12 (failed evaluations). A restart whose start repeats an earlier one bit for bit
    shares that restart's descent and adds nothing to the counts. ``restarts`` lists every
    restart in order, repeated ones included.
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


# What a descent asks for next in ``lockstep_nelder_mead``.
_START, _REFLECT, _EXPAND, _CONTRACT, _SHRINK, _DONE = range(6)
# What a round's values make a descent do: nothing (done); start its next iteration with
# its vertices as they are, with the reflected point or with the trial point as its new
# worst vertex; ask for the expanded point, for the point contracted toward its worst
# vertex or toward the reflected point; or shrink its simplex and ask for its vertices.
_NONE, _HEAD, _USE_R, _USE_T, _ASK_EXPAND, _ASK_CONTRACT, _ASK_INSIDE, _ASK_SHRINK = range(8)


@lru_cache(maxsize=1)
def _outcomes():
    """(table, next phase, starts a head, bit weights): the outcome of a round for each
    phase and each set of six comparisons, at entry 64 * phase + (32, 16, 8, 4, 2, 1) .
    (f_r < f_best, f_r < f_second_worst, f_r < f_worst, f_t < f_r, f_t < f_worst,
    f_worst < f_r), f_r and f_t being the values of the reflected and the trial point;
    then, per outcome, the phase it leaves (a head sets the phase of the descents it
    starts) and whether it starts the next iteration. A comparison with NaN is false, as
    in the branches of a lone descent."""
    table = np.empty(6 * 64, dtype=np.int64)
    for key in range(table.size):
        phase, bits = divmod(key, 64)
        better, accept, inside, te, tw, wr = ((bits >> j) & 1 for j in range(5, -1, -1))
        if phase in (_START, _SHRINK):
            table[key] = _HEAD
        elif phase == _REFLECT:
            table[key] = (_ASK_EXPAND if better else _USE_R if accept
                          else _ASK_INSIDE if inside else _ASK_CONTRACT)
        elif phase == _EXPAND:
            table[key] = _USE_T if te else _USE_R
        elif phase == _CONTRACT:  # the trial point must beat Python's min(f_r, f_worst)
            table[key] = _USE_T if (tw if wr else te) else _ASK_SHRINK
        else:
            table[key] = _NONE
    next_phase = np.array([_DONE, _REFLECT, _REFLECT, _REFLECT, _EXPAND, _CONTRACT, _CONTRACT,
                           _SHRINK])
    heads = np.array([False, True, True, True, False, False, False, False])
    tables = table, next_phase, heads, np.array([32, 16, 8, 4, 2, 1])
    for array in tables:
        array.setflags(write=False)
    return tables


class _Simplices:
    """Every descent of one ``lockstep_nelder_mead`` call as arrays, descent r at index r
    of the descent axis.

    ``buf`` (dim + 3, R, dim) holds each descent's dim + 1 vertices (sorted by value at the
    head of each iteration), its reflected point and its expanded or contracted point, and
    ``fbuf`` (dim + 3, R) their values, so one flat gather gives the points a round asks
    for and one flat scatter takes their values back. ``phase`` says what each descent asks
    for: its start vertices, one of its two trial points, or its dim vertices after a
    shrink. A round's steps run on whole arrays, each descent taking the branch its own
    values choose, so every descent sees the operations it sees alone; with the vertices on
    the leading axis, a centroid is the same vertex-by-vertex sum.
    """

    def __init__(self, x0, fit, cfgs):
        rows, dim = x0.shape
        self.dim, self.fit = dim, fit
        self.buf = np.zeros((dim + 3, rows, dim))
        self.fbuf = np.zeros((dim + 3, rows))
        self.verts, self.reflected, self.trial = self.buf[: dim + 1], self.buf[-2], self.buf[-1]
        self.fvals, self.freflected, self.ftrial = (
            self.fbuf[: dim + 1], self.fbuf[-2], self.fbuf[-1])
        # the worst vertex and the best, second-worst and worst values, once sorted
        self.worst = self.buf[dim]
        self.fbest, self.fsecond, self.fworst = (
            self.fbuf[0], self.fbuf[max(dim - 1, 0)], self.fbuf[dim])
        self.centroid = np.zeros((rows, dim))
        cfgs = [cfgs[f] for f in fit.tolist()]
        self.max_iter = np.array([cfg.max_iter for cfg in cfgs], dtype=np.int64)
        scale, self.ftol, self.xtol = (np.array([getattr(cfg, name) for cfg in cfgs], dtype=float)
                                       for name in ("initial_simplex_scale", "ftol", "xtol"))
        self.verts[:] = x0
        diag = np.arange(dim)
        self.verts[diag + 1, :, diag] += (scale[:, None] * np.where(x0 != 0.0, np.abs(x0), 1.0)).T
        self.phase = np.full(rows, _START)
        self.iterations = np.zeros(rows, dtype=np.int64)
        self.converged = np.zeros(rows, dtype=bool)
        # trace[i, r]: descent r's best value at the head of its iteration i; i is at most
        # the number of heads run before, and the array doubles when that reaches its length
        self.trace = np.empty((64, rows))
        self._heads = 0
        # value rows compared in ``tell``: each with the row below it, as in ``_outcomes``
        self._lhs = np.array([dim + 1, dim + 1, dim + 1, dim + 2, dim + 2, dim])
        self._rhs = np.array([0, max(dim - 1, 0), dim, dim + 1, dim, dim + 1])
        self._first = np.array([0, dim + 1, dim + 2, dim + 2, 1]) * rows  # slot asked first
        self._count = np.array([dim + 1, 1, 1, 1, dim])  # points asked, by phase
        self._multi = True  # some descent asks for more than one point
        self.live, self.live_fits = np.arange(rows), fit  # the unfinished descents, their fits

    def ask(self):
        """(points, fits): the points the unfinished descents ask for, descent by descent,
        and the fit of each point; None when every descent is done."""
        live, fits = self.live, self.live_fits
        if not live.size:
            return None
        phase = self.phase[live]
        at = self._first[phase] + live
        if self._multi:  # a descent's points are its slots first, first + 1, ...: R apart
            count = self._count[phase]
            offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            at = np.repeat(at, count) + offset * len(self.phase)
            fits = np.repeat(fits, count)
        self._at = at
        return self.buf.reshape(-1, self.dim)[at] if self.dim else np.empty((at.size, 0)), fits

    def tell(self, values) -> list:
        """Take the values of the points ``ask`` gave and move every descent that asked on
        to its next request. Returns the descents whose start value is not finite: their
        fits end, so every descent of those fits stops.

        Every decision is made on the values as they arrived, before any vertex moves: one
        comparison of six pairs of value rows per descent, looked up in ``_outcomes``.
        """
        self.fbuf.reshape(-1)[self._at] = values
        phase, f_r, f_t, worst = self.phase, self.freflected, self.ftrial, self.fworst
        bad = []  # only in the first round, which asks for several points
        if self._multi:
            bad = np.flatnonzero((phase == _START) & ~np.isfinite(self.fbest)).tolist()
        table, next_phase, starts_head, weights = _outcomes()
        bits = np.dot(weights, self.fbuf[self._lhs] < self.fbuf[self._rhs])
        outcome = table[64 * phase + bits]
        counts = np.bincount(outcome, minlength=8).tolist()
        c, w = self.centroid, self.worst
        if counts[_ASK_EXPAND]:
            np.copyto(self.trial, c + 2.0 * (c - w), where=(outcome == _ASK_EXPAND)[:, None])
        if counts[_ASK_CONTRACT] or counts[_ASK_INSIDE]:
            toward = np.where((outcome == _ASK_INSIDE)[:, None], self.reflected, w)
            inward = (outcome == _ASK_CONTRACT) | (outcome == _ASK_INSIDE)
            np.copyto(self.trial, c + 0.5 * (toward - c), where=inward[:, None])
        if counts[_USE_R]:
            use_r = outcome == _USE_R
            np.copyto(w, self.reflected, where=use_r[:, None])
            np.copyto(worst, f_r, where=use_r)
        if counts[_USE_T]:
            use_t = outcome == _USE_T
            np.copyto(w, self.trial, where=use_t[:, None])
            np.copyto(worst, f_t, where=use_t)
        self._multi = counts[_ASK_SHRINK] > 0
        if self._multi:
            rows = (outcome == _ASK_SHRINK).nonzero()[0]
            best = self.verts[0, rows]
            self.verts[1:, rows] = best + 0.5 * (self.verts[1:, rows] - best)
        heads = starts_head[outcome]
        next_phase.take(outcome, out=phase)
        if bad:
            ended = np.isin(self.fit, self.fit[bad])
            self._end(ended)
            heads &= ~ended
        self._head(heads.nonzero()[0])
        return bad

    def _head(self, rows):
        """The head of an iteration: stop after max_iter iterations; else sort the vertices
        by value (stable), trace the best value, stop once the value spread is below ftol
        and the diameter around the best vertex below xtol, else ask for the reflected
        point (the phase ``tell`` gave these rows)."""
        if not rows.size:
            return
        iterations = self.iterations[rows]
        over = iterations >= self.max_iter[rows]
        if over.any():
            self._end(rows[over])
            rows, iterations = rows[~over], iterations[~over]
        if self._heads == len(self.trace):
            self.trace = np.concatenate([self.trace, np.empty_like(self.trace)])
        self._heads += 1
        order = self.fvals[:, rows].argsort(axis=0, kind="stable")
        fvals = self.fvals[order, rows]
        verts = self.verts[order, rows]
        self.fvals[:, rows], self.verts[:, rows] = fvals, verts
        self.trace[iterations, rows] = fvals[0]
        done = fvals[-1] - fvals[0] < self.ftol[rows]
        if done.any():  # the spread is small: is the diameter too?
            diameter = np.maximum.reduce(np.abs(verts[1:, done] - verts[0, done]), axis=(0, 2),
                                         initial=0.0)
            done[done] = diameter < self.xtol[rows[done]]
            if done.any():
                self.converged[rows[done]] = True
                self._end(rows[done])
                rows, verts, iterations = rows[~done], verts[:, ~done], iterations[~done]
        self.iterations[rows] = iterations + 1
        centroid = np.add.reduce(verts[:-1], axis=0) / self.dim  # verts[:-1].mean(axis=0)
        self.centroid[rows] = centroid
        # centroid + 1.0 * (centroid - worst): a product with 1.0 is exact, so it is left out
        self.reflected[rows] = centroid + (centroid - verts[-1])

    def _end(self, rows):
        """Mark these descents done and drop them from the unfinished ones."""
        self.phase[rows] = _DONE
        going = self.phase[self.live] != _DONE
        self.live, self.live_fits = self.live[going], self.live_fits[going]

    def results(self) -> list:
        """Per descent, the FitResult of its best vertex (first on ties) and its trace."""
        rows = np.arange(len(self.phase))
        best = np.argsort(self.fvals, axis=0, kind="stable")[0]
        theta, nll = self.verts[best, rows], self.fvals[best, rows].tolist()
        iterations, converged = self.iterations.tolist(), self.converged.tolist()
        return [
            FitResult(theta_hat=theta[r].copy(), nll=nll[r], iterations=iterations[r],
                      converged=converged[r], trace=self.trace[: n + done, r].tolist())
            for r, (n, done) in enumerate(zip(iterations, converged))
        ]


def lockstep_nelder_mead(batch_objective, starts, cfgs) -> list:
    """Simplex descents of several fits, advanced together: per fit, its FitResult, or the
    NumericalError that ended it.

    Each descent is Nelder-Mead with reflection/expansion/contraction/shrink = 1, 2, 0.5,
    0.5 from the simplex of its start x0 and x0 + scale * (|x0_i|, or 1 where x0_i = 0) e_i,
    with ``cfgs[f]`` for fit f. It stops once the vertex value spread is below ftol and the
    simplex diameter around the best vertex is below xtol (both, else a symmetric simplex
    straddling an optimum would stop early), or after max_iter iterations; its result is
    its best vertex, first on ties, and ``trace`` the best value at the head of each
    iteration. Fit f runs one descent per distinct start of ``starts[f]``.

    The call holds the R descents as arrays (``_Simplices``): vertices (dim + 1, R, dim),
    their values, each descent's reflected and expanded or contracted point, and its phase
    (asking for its start vertices, one of those points, or its vertices after a shrink).
    A round steps them all at once: one table lookup of six value comparisons picks each
    descent's branch, masks apply the branches present, a stable argsort per descent orders
    its vertices, and a centroid is the same vertex-by-vertex sum a lone descent forms.
    Each round stacks the points every
    unfinished descent asks for, descent by descent, into one (B, dim) array and makes one
    ``batch_objective(points, fits)`` call, ``fits[b]`` being the fit that asked for row b,
    which returns their B values. A descent's path depends only on its own values, so it is
    the same as a descent run alone. A start equal bit for bit to an earlier one of its fit
    would repeat that descent, so it runs none and its record repeats the earlier result. A
    fit's result is its best descent, first on ties, with the evaluations of all its
    descents and one record per start. A descent whose start value is not finite ends its
    fit, and the fit's other descents stop.
    """
    starts = [[np.asarray(x0, dtype=float) for x0 in fit_starts] for fit_starts in starts]
    descent_of, x0s, fit_of = [], [], []  # per fit: start bytes -> its descent
    for f, fit_starts in enumerate(starts):
        descent_of.append({})
        for x0 in fit_starts:
            if descent_of[f].setdefault(x0.tobytes(), len(x0s)) == len(x0s):
                x0s.append(x0)
                fit_of.append(f)
    errors = [None] * len(starts)
    counts = np.zeros((len(starts), 3), dtype=np.int64)  # evaluations by kind
    if x0s:
        simplices = _Simplices(np.array(x0s), np.array(fit_of, dtype=np.int64), cfgs)
        asked_fits, asked_values = [], []  # counted by kind once the descents end
        while (asked := simplices.ask()) is not None:
            points, fits = asked
            values = np.asarray(batch_objective(points, fits), dtype=float)
            asked_fits.append(fits)
            asked_values.append(values)
            for r in simplices.tell(values):  # the first such descent of a fit reports
                if errors[fit_of[r]] is None:
                    errors[fit_of[r]] = NumericalError(
                        f"objective is not finite at the starting point ({simplices.fvals[0, r]})"
                    )
        results = simplices.results()
        values = np.concatenate(asked_values)
        kind = (values >= _BARRIER).astype(np.int64) + (values >= _OBJECTIVE_FAIL)
        counts += np.bincount(3 * np.concatenate(asked_fits) + kind,
                              minlength=counts.size).reshape(counts.shape)
    outcomes = []
    for f, fit_starts in enumerate(starts):
        if errors[f] is not None:
            outcomes.append(errors[f])
            continue
        runs = [results[r] for r in descent_of[f].values()]
        best = runs[0]
        for run in runs[1:]:
            if run.nll < best.nll:
                best = run
        best.evaluations, best.barrier_hits, best.sentinel_hits = (
            int(counts[f].sum()), int(counts[f, 1]), int(counts[f, 2]))
        best.restarts = [
            RestartRecord(x0, run.nll, run.iterations, run.converged)
            for x0, run in ((x0, results[descent_of[f][x0.tobytes()]]) for x0 in fit_starts)
        ]
        outcomes.append(best)
    return outcomes


def nelder_mead(objective, x0, cfg: FitConfig) -> FitResult:
    """Simplex descent from x0 on a scalar objective (see ``lockstep_nelder_mead``)."""
    (outcome,) = lockstep_nelder_mead(
        lambda points, fits: [float(objective(x)) for x in points], [[x0]], [cfg]
    )
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def _strings(data, sets):
    """What the rows of a batch read of a (F, T) data stack: the one data set they all
    read, or (B, T) with row b's own."""
    return data[sets[0]] if np.logical_and.reduce(sets == sets[0]) else data[sets]


def _nll(loglik: np.ndarray) -> np.ndarray:
    """Negative log-likelihoods of a batch; the failure sentinel where the data have
    probability zero."""
    nll = -loglik
    nll[nll == math.inf] = _OBJECTIVE_FAIL
    return nll


def _batch_nll(model: OperatorModel, data, slabs: dict) -> np.ndarray:
    """Negative log-likelihood of ``data`` (one string, or one per model) under each model
    of a batch (see ``_nll``); the symbols were checked once, by ``_symbol_stack``, and
    ``slabs`` keeps the forward pass's product slabs for the objective's next call."""
    return _nll(log_prob(forward(model, data, check=False, slabs=slabs)[0]))


def _symbol_stack(data, n_obs: int) -> np.ndarray:
    """Data sets as a (F, T) stack of symbol strings, checked once for every pass over them."""
    data = np.atleast_2d(data)
    if data.size and (data.min() < 0 or data.max() >= n_obs):
        raise ValidationError(f"data symbols out of range [0, {n_obs})")
    return data


def _check_best(best: FitResult):
    """A fit whose best value is a barrier, a failure sentinel or NaN found no feasible model."""
    if not (best.nll < _BARRIER):
        raise NumericalError(
            f"no restart reached a feasible, evaluable point (best objective {best.nll})"
        )


class _FitDriver:
    """The one fit both candidate kinds share.

    A candidate supplies ``data_kind``, ``n_obs``, ``free_params``, ``starts(data, cfg, theta0)``,
    ``objective(data)`` and ``model(theta)``. The objective of one data set, or of a (F, T)
    stack of F, is a function ``objective(thetas, sets=None)`` of a (B, dim) batch of
    parameter rows, row b valued on data set ``sets[b]`` (the first when sets is None);
    each row gets the value it gets alone.
    """

    def fit(self, data, cfg: FitConfig, theta0=None):
        """Maximum likelihood fit on ``data``: (FitResult, model), ``fit_all`` of one data set."""
        (outcome,) = self.fit_all([data], [cfg], theta0)
        if isinstance(outcome, NumericalError):
            raise outcome
        return outcome

    def fit_all(self, datas, cfgs, theta0=None) -> list:
        """Fits of data sets of one length, in lockstep: per data set, (FitResult, model) or
        the NumericalError that ended its fit.

        Data set f is fitted with ``cfgs[f]``, so its result is the one ``fit`` gives it
        alone. Every data set and theta0 are checked before any evaluation. Each round
        makes one objective call for the descents of all the fits.
        """
        datas = [self._checked(data) for data in datas]
        if len({data.shape for data in datas}) > 1:
            raise ValidationError("data sets fitted together must have one length")
        if theta0 is not None and np.shape(theta0) != (self.free_params,):
            raise ValidationError(
                f"theta0 must have {self.free_params} entries, got shape {np.shape(theta0)}"
            )
        if not datas:
            return []
        starts = [self.starts(data, cfg, theta0) for data, cfg in zip(datas, cfgs)]
        try:
            outcomes = lockstep_nelder_mead(self.objective(np.stack(datas)), starts, cfgs)
        except NumericalError as exc:  # the objective failed for every row at once
            outcomes = [exc] * len(datas)
        return [self._finished(outcome) for outcome in outcomes]

    def _checked(self, data) -> np.ndarray:
        data = np.asarray(data).reshape(-1)
        if data.size == 0:
            raise ValidationError("data must be nonempty")
        if self.data_kind == "returns":
            if not np.all(np.isfinite(data)):
                raise ValidationError("returns must be finite")
        elif data.min() < 0 or data.max() >= self.n_obs:
            raise ValidationError(f"data symbols out of range [0, {self.n_obs})")
        return data

    def _finished(self, outcome):
        if isinstance(outcome, NumericalError):
            return outcome
        try:
            _check_best(outcome)
            return outcome, self.model(outcome.theta_hat)
        except NumericalError as exc:
            return exc


@dataclass(frozen=True)
class ClassicalFitSpec(_FitDriver):
    """Fit candidate: a classical model of this kind and order on these bins and substeps.

    A nonparam candidate keeps ``grid`` fixed; a cir candidate builds its own grid.
    """

    kind: str
    n_states: int
    k: int
    scheme: ObservationScheme
    delta: float = 1.0
    mode: str = MULTISET
    grid: SpotGrid | None = None
    data_kind: str = "symbols"

    def __post_init__(self):
        if self.kind not in (KIND_CIR, KIND_NONPARAM):
            raise ValidationError(f"unknown classical kind {self.kind!r}")
        if self.n_states < 2:
            raise ValidationError(f"need at least 2 hidden states, got {self.n_states}")
        if self.kind == KIND_NONPARAM and self.grid is None:
            raise ValidationError("nonparam models need an externally supplied spot grid")
        if self.data_kind not in ("symbols", "returns"):
            raise ValidationError(
                f"data_kind must be 'symbols' or 'returns', got {self.data_kind!r}"
            )

    @property
    def label(self) -> str:
        return f"{self.kind}(n={self.n_states})"

    @property
    def n_obs(self) -> int:
        return self.scheme.n_bins

    @property
    def free_params(self) -> int:
        """cir: alpha, beta, sigma; nonparam: n - 1 free entries per transition row."""
        return 3 if self.kind == KIND_CIR else self.n_states * (self.n_states - 1)

    def barrier(self, theta):
        """Zero inside the feasible region, a large finite barrier outside it, per parameter
        row of a (..., dim) array.

        Rows strictly inside (every entry above zero; for nonparam also below one, with each
        row group summing below one) are zero: a few reductions over the batch find them,
        and only the other rows, NaN ones among them, are valued (``_violation``).
        """
        theta = np.asarray(theta, dtype=float)
        rows = theta.reshape(-1, theta.shape[-1])
        inside = rows.min(axis=-1) > 0.0
        sums = None
        if self.kind == KIND_NONPARAM:
            n = self.n_states
            if theta.shape[-1:] != (n * (n - 1),):
                raise ValidationError(
                    f"expected {n * (n - 1)} parameters for {n} states, got shape {theta.shape}"
                )
            sums = rows.reshape(len(rows), n, n - 1).sum(axis=-1)
            inside &= np.maximum(rows.max(axis=-1), sums.max(axis=-1)) < 1.0
        values = np.zeros(len(rows))
        if not inside.all():
            out = (~inside).nonzero()[0]
            violation = self._violation(rows[out], None if sums is None else sums[out])
            values[out] = np.where(violation == 0.0, 0.0, _BARRIER * (1.0 + violation))
        return values.reshape(theta.shape[:-1])[()]

    def _violation(self, theta, sums):
        """How far each (R, dim) row lies outside the feasible region, given its nonparam
        row-group sums: 0 inside it, at least 1e-12 on its boundary or outside it, NaN for
        a NaN row."""
        if self.kind == KIND_CIR:
            violation = np.clip(-theta, 0.0, None).sum(axis=-1)
            return np.where(np.any(theta <= 0.0, axis=-1), np.maximum(violation, 1e-12),
                            violation)
        low = np.clip(-theta, 0.0, None).sum(axis=-1)
        high = np.clip(theta - 1.0, 0.0, None).sum(axis=-1)
        violation = low + high
        outside = np.any(theta <= 0.0, axis=-1) | np.any(theta >= 1.0, axis=-1)
        violation = np.where(outside, np.maximum(violation, 1e-12), violation)
        row_excess = np.clip(sums - 1.0, 0.0, None).sum(axis=-1)
        return np.where(np.any(sums >= 1.0, axis=-1),
                        np.maximum(violation + row_excess, 1e-12), violation)

    def _substep(self, theta):
        """Spot grid and substep transition matrix at one parameter vector."""
        dt = self.delta / self.k
        if self.kind == KIND_CIR:
            params = CirParams(alpha=float(theta[0]), beta=float(theta[1]), sigma=float(theta[2]))
            grid = cir_spot_grid(params, self.n_states)
            return grid, cir_transition_matrix(params, grid, dt)
        return self.grid, nonparam_transition_matrix(theta, self.n_states, dt=dt)

    def model(self, theta) -> ClassicalHmm:
        """The model at a parameter vector; x0 is the stationary law of its chain."""
        grid, a_hf = self._substep(theta)
        return build_classical_hmm(grid, a_hf, self.k, self.scheme, mode=self.mode)

    def starts(self, data, cfg: FitConfig, theta0=None) -> list:
        """Restart 0 at theta0, else the default start; restart r multiplies each entry by
        exp(N(0, 1/4)) and falls back to restart 0's point where that leaves the feasible
        region.

        cir starts at (1, vhat, 0.5) with vhat the sample return variance on raw returns
        (0.1 on symbols); nonparam starts at uniform rows.
        """
        if theta0 is not None:
            start = np.asarray(theta0, dtype=float)
        elif self.kind == KIND_CIR:
            beta0 = 0.1
            if self.data_kind == "returns":
                beta0 = float(max(np.var(np.asarray(data, dtype=float)), 1e-6))
            start = np.array([1.0, beta0, 0.5])
        else:
            start = np.full(self.n_states * (self.n_states - 1), 1.0 / self.n_states)
        starts = [start]
        for r in range(1, cfg.restarts):
            rng = np.random.default_rng(derive_seed(cfg.seed, "classical-restart", r))
            x0 = start * np.exp(0.5 * rng.standard_normal(start.size))
            starts.append(x0 if self.barrier(x0) == 0.0 else start)
        return starts

    def objective(self, data):
        """Negative log-likelihood on a (B, dim) batch of parameter rows (see ``_FitDriver``).

        A row outside the feasible region gets its barrier value and is never built; a row
        whose model cannot be built or evaluated gets the failure sentinel. The feasible
        rows are built together (``chmm.build_classical_batches``; a nonparam spot grid's
        Vbar values, and on symbol data its bin masses, once per objective). Symbol data
        run through one batched forward pass, raw returns through each row's returns
        filter, which reads no bin masses; a row whose returns have zero likelihood gets
        the failure sentinel.
        """
        n, k, mode = self.n_states, self.k, self.mode
        if self.data_kind == "symbols":
            data, scheme = _symbol_stack(data, self.n_obs), self.scheme
        else:
            data, scheme = np.atleast_2d(data), None
        fixed = None if self.kind == KIND_CIR else grid_emissions(self.grid.values, k, scheme, mode)
        slabs = {}

        def objective(thetas, sets=None):
            thetas = np.asarray(thetas, dtype=float)
            sets = np.zeros(len(thetas), dtype=np.int64) if sets is None else np.asarray(sets)
            values = self.barrier(thetas)
            rows = (~(values > 0.0)).nonzero()[0]
            if self.kind == KIND_CIR:
                grids, a_hf = [], []
                for i in rows:
                    try:
                        grid, tm = self._substep(thetas[i])
                    except (NumericalError, ValidationError):
                        values[i] = _OBJECTIVE_FAIL
                        continue
                    grids.append(grid.values)
                    a_hf.append(tm.probs)
                rows = rows[~(values[rows] > 0.0)]
                grids, a_hf = np.array(grids).reshape(-1, n), np.array(a_hf).reshape(-1, n, n)
            else:
                grids, a_hf = self.grid.values, nonparam_rows(thetas[rows], n)
            values[rows] = _OBJECTIVE_FAIL  # a row the build leaves out keeps it
            symbol_rows, models = [], []
            for built, batch in build_classical_batches(a_hf, k, scheme, mode, grids, fixed):
                built = rows[built]
                if self.data_kind == "returns":
                    values[built] = _nll(batch.log_likelihood_continuous(data[sets[built]]))
                else:
                    symbol_rows.append(built)
                    models.append(batch.operators())
            if symbol_rows:
                symbol_rows = np.concatenate(symbol_rows)
                values[symbol_rows] = _batch_nll(stack(models), _strings(data, sets[symbol_rows]),
                                                 slabs)
            return values

        return objective


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
    """``ClassicalFitSpec(kind, ...).model(theta)``, for callers that hold the settings
    loose (the benchmark's output checks)."""
    return ClassicalFitSpec(kind, n_states, k, scheme, delta, mode, grid).model(theta)


@dataclass(frozen=True)
class QhmmFitSpec(_FitDriver):
    """Fit candidate: the quantum channel of this ansatz, on binned symbols.

    Its parameter vector stacks the initial-state angles (first latent_qubits entries)
    and the circuit angles.
    """

    ansatz: AnsatzSpec
    kind = KIND_QHMM
    data_kind = "symbols"

    @property
    def label(self) -> str:
        a = self.ansatz
        return f"qhmm(l={a.latent_qubits},o={a.observed_qubits},reps={a.reps},{a.entanglement})"

    @property
    def n_states(self) -> int:
        return self.ansatz.dim_latent

    @property
    def n_obs(self) -> int:
        return self.ansatz.dim_observed

    @property
    def free_params(self) -> int:
        """Circuit angles plus initial-state angles."""
        return self.ansatz.n_params + self.ansatz.latent_qubits

    def model(self, theta):
        n_init = self.ansatz.latent_qubits
        return build_qhmm(self.ansatz, theta[n_init:], theta[:n_init])

    def starts(self, data, cfg: FitConfig, theta0=None) -> list:
        """Restart 0 at theta0 when given; every other restart draws all angles uniformly
        from [0, 2pi)."""
        dim = self.free_params
        starts = []
        for r in range(cfg.restarts):
            if r == 0 and theta0 is not None:
                x0 = np.asarray(theta0, dtype=float)
            else:
                rng = np.random.default_rng(derive_seed(cfg.seed, "qhmm-restart", r))
                x0 = rng.uniform(0.0, 2.0 * math.pi, size=dim)
            starts.append(x0)
        return starts

    def objective(self, data):
        """Negative log-likelihood on a (B, dim) batch of packed angles (see ``_FitDriver``)."""
        data = _symbol_stack(data, self.n_obs)
        n_init, slabs = self.ansatz.latent_qubits, {}

        def objective(packed, sets=None):
            packed = np.asarray(packed, dtype=float)
            sets = np.zeros(len(packed), dtype=np.int64) if sets is None else np.asarray(sets)
            model = qhmm_operators(self.ansatz, packed[:, n_init:], packed[:, :n_init])
            return _batch_nll(model, _strings(data, sets), slabs)

        return objective


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


@dataclass
class CandidateReport:
    kind: str
    n_states: int
    nll: float
    loglik_per_step: float
    penalty: float
    penalized_objective: float
    converged: bool


def penalized_select(data, specs, consts: PenaltyConstants, cfg: FitConfig):
    """Fit each candidate spec and pick the best penalized likelihood.

    Candidate state counts must be perfect squares. Returns (best index, best model,
    list of CandidateReport); ties go to the earlier candidate.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("need at least one candidate")
    n_periods = len(data)
    reports = []
    models = []
    for spec in specs:
        root = math.isqrt(spec.n_states)
        if root * root != spec.n_states:
            raise ValidationError(f"candidate n_states={spec.n_states} is not a perfect square")
        result, model = spec.fit(data, cfg)
        lam = penalty_lambda(n_periods, spec.n_states, spec.free_params, consts)
        loglik_per_step = -result.nll / n_periods
        reports.append(
            CandidateReport(
                kind=spec.kind,
                n_states=spec.n_states,
                nll=result.nll,
                loglik_per_step=loglik_per_step,
                penalty=lam,
                penalized_objective=loglik_per_step - lam,
                converged=result.converged,
            )
        )
        models.append(model)
    best_idx = max(range(len(reports)), key=lambda i: reports[i].penalized_objective)
    return best_idx, models[best_idx], reports
