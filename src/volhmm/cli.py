"""Command-line front end.

Subcommands: simulate, fit, llr, markov-test, hankel, bounds. Configuration is
a JSON document with per-command sections, each a frozen dataclass read by
``_build``: its fields are the keys (unknown keys are rejected), and its own
checks and those of the domain objects it builds run on config values and
command-line overrides alike, before any computation starts. All randomness
flows from one root seed (--seed overrides the config) through the documented
splitting rule derive_seed(seed, purpose, trial, ...), so rerunning a command
with the same config and seed reproduces every output file byte for byte
regardless of the worker count.

Exit codes: 0 success, 2 validation error (arguments, config, input files, or
output paths, which fit and llr check before any computation), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis, chmm, estimate, qhmm, serialize
from .errors import NumericalError, ValidationError
from .seeds import derive_seed
from .volgrid import CirParams, ObservationScheme, build_observation_scheme, cir_spot_grid

_FIT_KINDS = (estimate.KIND_CIR, estimate.KIND_NONPARAM, estimate.KIND_QHMM)


# ---------------------------------------------------------------------------
# Config sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DgpSection:
    """The data-generating CIR model and its return bins."""

    alpha: float
    beta: float
    sigma: float
    n_states: int
    k: int
    n_obs: int
    half_width: float | None = None
    delta: float = 1.0
    mode: str = chmm.MULTISET

    def __post_init__(self):
        # CirParams checks alpha, beta and sigma; build_observation_scheme n_obs and half_width.
        self.scheme
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if not (self.delta > 0.0):
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.mode not in (chmm.MULTISET, chmm.INDEX_SUM):
            raise ValidationError(
                f"mode must be {chmm.MULTISET!r} or {chmm.INDEX_SUM!r}, got {self.mode!r}"
            )

    @property
    def params(self) -> CirParams:
        return CirParams(alpha=self.alpha, beta=self.beta, sigma=self.sigma)

    @property
    def scheme(self) -> ObservationScheme:
        """Return bins; ``half_width`` defaults to 4 sqrt(beta)."""
        params = self.params
        half_width = 4.0 * math.sqrt(params.beta) if self.half_width is None else self.half_width
        return build_observation_scheme(self.n_obs, half_width)


@dataclass(frozen=True)
class ExperimentSection:
    """Simulation length, LLR trial count, root seed and worker count."""

    trials: int
    n_periods: int
    seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.n_periods < 1:
            raise ValidationError(f"n_periods must be >= 1, got {self.n_periods}")
        if self.workers is not None and self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class FitSection:
    """One fit: the sections ``fit`` (for fit) and ``fit_i``, ``fit_j`` (for llr)."""

    kind: str
    n_states: int | None = None
    ansatz: qhmm.AnsatzSpec | None = None
    data_kind: str = "symbols"
    config: estimate.FitConfig = field(default_factory=estimate.FitConfig)

    def __post_init__(self):
        if self.kind not in _FIT_KINDS:
            raise ValidationError(f"kind must be one of {_FIT_KINDS}, got {self.kind!r}")
        if self.kind == estimate.KIND_QHMM:
            if self.ansatz is None:
                raise ValidationError("qhmm fits need an 'ansatz' object")
            if self.data_kind != "symbols":
                raise ValidationError("qhmm fits use binned symbols, set data_kind='symbols'")
        elif self.n_states is None or self.n_states < 2:
            raise ValidationError(f"classical fits need 'n_states' >= 2, got {self.n_states}")

    def spec(self, dgp: DgpSection):
        """The fit candidate with the DGP's bins, substeps, period length and grouping
        (a nonparam model also keeps its spot grid)."""
        if self.kind == estimate.KIND_QHMM:
            if self.ansatz.dim_observed != dgp.n_obs:
                raise ValidationError(
                    f"ansatz observed register has {self.ansatz.dim_observed} outcomes "
                    f"but dgp.n_obs is {dgp.n_obs}"
                )
            return estimate.QhmmFitSpec(self.ansatz)
        grid = None
        if self.kind == estimate.KIND_NONPARAM:
            grid = cir_spot_grid(dgp.params, self.n_states)
        return estimate.ClassicalFitSpec(
            self.kind, self.n_states, dgp.k, dgp.scheme, dgp.delta, dgp.mode, grid, self.data_kind
        )


@dataclass(frozen=True)
class BoundsSection:
    """Inputs of the non-asymptotic bound pair, and the penalty constants fit also reads."""

    kl_inf_estimate: float
    n_periods: int
    n_states: int
    m_classical: int
    m_quantum: int
    constants: estimate.PenaltyConstants = field(default_factory=estimate.PenaltyConstants)

    def __post_init__(self):
        if not (self.kl_inf_estimate >= 0.0):
            raise ValidationError(f"kl_inf_estimate must be >= 0, got {self.kl_inf_estimate}")
        if min(self.n_states, self.m_classical, self.m_quantum) < 1:
            raise ValidationError("n_states, m_classical and m_quantum must be >= 1")


_SECTIONS = {
    "dgp": DgpSection,
    "experiment": ExperimentSection,
    "fit": FitSection,
    "fit_i": FitSection,
    "fit_j": FitSection,
    "bounds": BoundsSection,
}


def _checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its validation errors prefixed with ``where``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# Field type -> (JSON value types it accepts, their name in messages).
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _coerce(value, hint, path: str):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    accepted, name = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"config: {path}: expected {name}, got {value!r}")
    return float(value) if hint is float else value


def _build(cls, doc, path: str):
    """The dataclass ``cls`` from the config object at ``path``: its fields are the keys."""
    if not isinstance(doc, dict):
        raise ValidationError(f"config: {path}: expected an object, got {doc!r}")
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ValidationError(f"config: {path}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in doc:
            values[f.name] = _coerce(doc[f.name], hints[f.name], f"{path}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"config: {path}: missing required key {f.name!r}")
    return _checked(f"config: {path}", cls, **values)


def _override(section, **flags):
    """``section`` with the command-line values given (not None), checked like config values."""
    given = {name: value for name, value in flags.items() if value is not None}
    return _checked(", ".join("--" + name for name in given), replace, section, **given)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config: {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ValidationError(f"config: {path}: top level must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ValidationError(f"config: {path}: unknown sections {sorted(unknown)}")
    return raw


def get_section(config: dict, name: str):
    """Section ``name`` of a loaded config, as its section dataclass."""
    if name not in config:
        raise ValidationError(f"config: missing required section {name!r}")
    return _build(_SECTIONS[name], config[name], name)


def build_dgp(dgp: DgpSection) -> chmm.ClassicalHmm:
    """The DGP's CIR model, built as a cir fit candidate builds it at (alpha, beta, sigma)."""
    spec = estimate.ClassicalFitSpec(
        estimate.KIND_CIR, dgp.n_states, dgp.k, dgp.scheme, dgp.delta, dgp.mode
    )
    return spec.model((dgp.alpha, dgp.beta, dgp.sigma))


def check_out_base(base: str):
    """Fail before any computation if the file ``base``, or files named ``base + suffix``,
    cannot be created."""
    parent = os.path.dirname(os.path.abspath(base))
    if not os.path.isdir(parent):
        raise ValidationError(f"--out: directory {parent} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValidationError(f"--out: directory {parent} is not writable")


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

_DATA_HEADER = ["t", "spot_state", "vbar", "return", "symbol"]


def write_data_csv(path, spot_states, vbars, rets, symbols):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_DATA_HEADER)
        for t in range(len(symbols)):
            writer.writerow(
                [t, int(spot_states[t]), repr(float(vbars[t])), repr(float(rets[t])), int(symbols[t])]
            )


def read_data_csv(path):
    """Returns (returns, symbols) arrays from a simulate-format CSV."""
    try:
        fh = open(path, "r", encoding="ascii", newline="")
    except OSError as exc:
        raise ValidationError(f"data: cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _DATA_HEADER:
            raise ValidationError(f"data: {path}: row 1: expected header {_DATA_HEADER}, got {header}")
        rets, symbols = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(_DATA_HEADER):
                raise ValidationError(f"data: {path}: row {row_no}: expected {len(_DATA_HEADER)} columns")
            try:
                rets.append(float(row[3]))
            except ValueError:
                raise ValidationError(f"data: {path}: row {row_no}: column 'return': not a number") from None
            try:
                symbols.append(int(row[4]))
            except ValueError:
                raise ValidationError(f"data: {path}: row {row_no}: column 'symbol': not an integer") from None
    return np.array(rets), np.array(symbols, dtype=np.int64)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    check_out_base(args.out)
    config = load_config(args.config)
    dgp = get_section(config, "dgp")
    exp = _override(get_section(config, "experiment"), seed=args.seed)
    spot, vbars, rets, symbols = chmm.simulate(
        build_dgp(dgp), exp.n_periods, derive_seed(exp.seed, "simulate")
    )
    write_data_csv(args.out, spot, vbars, rets, symbols)
    print(f"wrote {len(symbols)} periods to {args.out}")
    return 0


def cmd_fit(args) -> int:
    check_out_base(args.out)
    config = load_config(args.config)
    dgp = get_section(config, "dgp")
    fit = _override(get_section(config, "fit"), kind=args.kind)
    spec = _checked("config: fit", fit.spec, dgp)
    cfg = _override(fit.config, seed=args.seed)
    consts = estimate.PenaltyConstants()
    if "bounds" in config:
        consts = get_section(config, "bounds").constants
    rets, symbols = read_data_csv(args.data)
    result, model = spec.fit(rets if spec.data_kind == "returns" else symbols, cfg)

    model_path = args.out + ".model.json"
    report_path = args.out + ".report.json"
    serialize.save_model(model, model_path)
    n_data = int(symbols.size)
    lam = (
        estimate.penalty_lambda(n_data, spec.n_states, spec.free_params, consts)
        if n_data >= 3
        else None
    )
    report = {
        "kind": spec.kind,
        "theta_hat": [float(v) for v in result.theta_hat],
        "nll": result.nll,
        "penalty_lambda": lam,
        "penalized_objective": (-result.nll / n_data - lam) if lam is not None else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "n_data": n_data,
        "data_kind": spec.data_kind,
    }
    serialize.dump_json(report, report_path)
    print(f"fit {spec.kind}: nll={result.nll:.6f} (converged={result.converged}); "
          f"wrote {model_path} and {report_path}")
    return 0


def cmd_llr(args) -> int:
    check_out_base(args.out)
    config = load_config(args.config)
    dgp = get_section(config, "dgp")
    exp = _override(
        get_section(config, "experiment"), seed=args.seed, trials=args.trials, workers=args.workers
    )
    fits = {name: get_section(config, name) for name in ("fit_i", "fit_j")}
    for name, fit in fits.items():
        if fit.data_kind != "symbols":
            raise ValidationError(
                f"config: {name}: llr fits binned symbols, got data_kind {fit.data_kind!r}"
            )
    cfg = fits["fit_i"].config
    if fits["fit_j"].config != cfg:
        raise ValidationError("config: fit_j.config: llr fits both candidates with one "
                              "optimizer configuration, so it must equal fit_i.config")
    spec_i, spec_j = (_checked(f"config: {name}", fit.spec, dgp) for name, fit in fits.items())
    model = build_dgp(dgp)

    csv_path = args.out + ".csv"
    hist_path = args.out + ".hist.json"
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "loglik_model_i", "loglik_model_j", "llr_log10", "status", "message"])
        fh.flush()

        def flush_row(sample):
            writer.writerow([
                sample.trial,
                repr(sample.loglik_model_i),
                repr(sample.loglik_model_j),
                repr(sample.llr_log10),
                sample.status,
                sample.message,
            ])
            fh.flush()

        samples = analysis.llr_experiment(
            model, spec_i, spec_j, exp.trials, exp.n_periods, cfg, exp.seed,
            workers=exp.workers or os.cpu_count() or 1, progress=flush_row,
        )

    summary = analysis.llr_summary(samples)
    hist = analysis.llr_histogram(samples) if summary["n_ok"] > 0 else None
    doc = {
        "summary": {k: (None if isinstance(v, float) and math.isnan(v) else v)
                    for k, v in summary.items()},
        "histogram": hist,
    }
    serialize.dump_json(doc, hist_path)
    frac = summary["negative_fraction"]
    print(
        f"llr: {summary['n_ok']} ok, {summary['n_failed']} failed; "
        f"negative-LLR fraction = {frac if frac == frac else 'n/a'}"
    )
    return 0


def _parse_prefix(text: str, n_obs: int, name: str):
    try:
        prefix = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"{name}: expected comma-separated integers, got {text!r}") from None
    if not prefix:
        raise ValidationError(f"{name}: must contain at least one symbol")
    if any(p < 0 or p >= n_obs for p in prefix):
        raise ValidationError(f"{name}: symbols must lie in [0, {n_obs})")
    return prefix


def cmd_markov_test(args) -> int:
    if args.out:
        check_out_base(args.out)
    model = serialize.load_model(args.model)
    if not isinstance(model, qhmm.QhmmModel):
        raise ValidationError("markov-test only applies to qhmm models")
    if args.horizon < 1:
        raise ValidationError(f"--horizon must be >= 1, got {args.horizon}")
    prefix_a = _parse_prefix(args.prefix_a, model.n_obs, "--prefix-a")
    prefix_b = _parse_prefix(args.prefix_b, model.n_obs, "--prefix-b")
    report = qhmm.causal_break_test(model, prefix_a, prefix_b, args.horizon)
    print(f"continuations of length {args.horizon} after prefixes "
          f"{list(prefix_a)} (run A) and {list(prefix_b)} (run B, reset to A's state):")
    for seq, pa, pb in zip(report.sequences, report.distribution_a, report.distribution_b):
        print(f"  {''.join(map(str, seq))}  A={pa:.12f}  B={pb:.12f}")
    print(f"max abs difference: {report.max_abs_diff:.3e}")
    print(f"verdict: {'markovian' if report.markovian else 'non-markovian'}")
    if args.out:
        serialize.dump_json(
            {
                "prefix_a": list(prefix_a),
                "prefix_b": list(prefix_b),
                "horizon": args.horizon,
                "sequences": ["".join(map(str, s)) for s in report.sequences],
                "distribution_a": report.distribution_a.tolist(),
                "distribution_b": report.distribution_b.tolist(),
                "max_abs_diff": report.max_abs_diff,
                "markovian": report.markovian,
            },
            args.out,
        )
    return 0


def cmd_hankel(args) -> int:
    check_out_base(args.out)
    model = serialize.load_model(args.model)
    if args.depth < 1:
        raise ValidationError(f"--depth must be >= 1, got {args.depth}")
    hankel = analysis.hankel_of_model(model, args.depth)
    sv = np.linalg.svd(hankel.entries, compute_uv=False)
    rank = analysis.rank_of_singular_values(sv)
    doc = {
        "model_type": "classical" if isinstance(model, chmm.ClassicalHmm) else "qhmm",
        "depth": args.depth,
        "n_strings": len(hankel.labels),
        "numerical_rank": rank,
        "rel_tol": analysis.RANK_REL_TOL,
        "singular_values": sv.tolist(),
    }
    serialize.dump_json(doc, args.out)
    print(f"hankel: {len(hankel.labels)}x{len(hankel.labels)} matrix, numerical rank {rank}; wrote {args.out}")
    return 0


def cmd_bounds(args) -> int:
    check_out_base(args.out)
    bounds = get_section(load_config(args.config), "bounds")
    report = analysis.nab_bounds(
        kl_inf_estimate=bounds.kl_inf_estimate,
        n_periods=bounds.n_periods,
        n_states=bounds.n_states,
        m_classical=bounds.m_classical,
        m_quantum=bounds.m_quantum,
        consts=bounds.constants,
    )
    serialize.dump_json(asdict(report), args.out)
    print(f"bounds: nab_q={report.nab_q:.6e}, nab_p={report.nab_p:.6e}; wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volhmm",
        description="Stochastic-volatility HMMs: simulation, fitting, and model comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a data set from the configured DGP")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one model to a data file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output base path (.model.json / .report.json)")
    p.add_argument("--kind", choices=_FIT_KINDS, default=None, help="override fit.kind")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("llr", help="run the simulate/fit/compare likelihood-ratio experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output base path (.csv / .hist.json)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_llr)

    p = sub.add_parser("markov-test", help="causal-break Markovianity check of a qhmm model")
    p.add_argument("--model", required=True)
    p.add_argument("--prefix-a", required=True)
    p.add_argument("--prefix-b", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_markov_test)

    p = sub.add_parser("hankel", help="build a model's Hankel matrix and report its rank")
    p.add_argument("--model", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("bounds", help="evaluate the non-asymptotic bound pair")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)
    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters (malloc.h)


def _keep_block_temporaries_on_heap():
    """Have glibc's malloc serve allocations up to 2 MB from the heap and trim the heap
    only when 4 MB are free at its top.

    A model build, filter or draw allocates and frees temporaries of about 1 MB per block
    (``chmm.BLOCK_BYTES``, ``operators.GATHER_BYTES``). With glibc's defaults each is a
    fresh mmap, or the heap is trimmed under it, and its pages are faulted in again on
    every objective call (about 31,000 minor faults per round of the benchmark's cir_fit);
    glibc raises these thresholds by itself only after freeing a larger chunk, so the
    cost depended on what had run earlier in the process. A no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 2 * chmm.BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 4 * chmm.BLOCK_BYTES)


def main(argv=None) -> int:
    _keep_block_temporaries_on_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
