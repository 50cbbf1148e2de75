"""Command-line front end.

Subcommands: simulate, fit, llr, markov-test, hankel, bounds. Configuration is
a JSON document with per-command sections; unknown keys are rejected and every
value is checked before any computation starts. All randomness flows from one
root seed (--seed overrides the config) through the documented splitting rule
derive_seed(seed, purpose, trial, ...), so rerunning a command with the same
config and seed reproduces every output file byte for byte regardless of the
worker count.

Exit codes: 0 success, 2 validation error (arguments, config, input files, or
output paths, which fit and llr check before any computation), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import typing
from dataclasses import replace

import numpy as np

from . import analysis, chmm, estimate, qhmm, serialize
from .errors import NumericalError, ValidationError
from .seeds import derive_seed
from .volgrid import (
    CirParams,
    SpotGrid,
    build_observation_scheme,
    cir_spot_grid,
    cir_transition_matrix,
)

_FIT_KINDS = (estimate.KIND_CIR, estimate.KIND_NONPARAM, estimate.KIND_QHMM)


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _req(kind, check=None):
    return {"kind": kind, "required": True, "check": check}


def _opt(kind, default=None, check=None):
    return {"kind": kind, "required": False, "default": default, "check": check}


def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _dataclass_schema(cls) -> dict:
    """Schema of a section filling ``cls``: field types and defaults (``cls`` checks ranges)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING
        schema[f.name] = _req(hints[f.name]) if required else _opt(hints[f.name], f.default)
    return schema


_FIT_SCHEMA = {
    "kind": _req(str, lambda s: s in _FIT_KINDS),
    "n_states": _opt(int, None, lambda n: n >= 2),
    "ansatz": _opt(dict, None),
    "data_kind": _opt(str, "symbols", lambda s: s in ("symbols", "returns")),
    "config": _opt(dict, None),
}

_SCHEMAS = {
    "dgp": {
        "alpha": _req(float, _positive),
        "beta": _req(float, _positive),
        "sigma": _req(float, _positive),
        "n_states": _req(int, lambda n: n >= 2),
        "k": _req(int, _positive),
        "n_obs": _req(int, lambda n: n >= 2),
        "half_width": _opt(float, None, _positive),
        "delta": _opt(float, 1.0, _positive),
        "mode": _opt(str, chmm.MULTISET, lambda s: s in (chmm.MULTISET, chmm.INDEX_SUM)),
    },
    "experiment": {
        "trials": _req(int, _positive),
        "n_periods": _req(int, _positive),
        "seed": _opt(int, 0),
        "workers": _opt(int, None, _positive),
    },
    "fit": _FIT_SCHEMA,
    "fit_i": _FIT_SCHEMA,
    "fit_j": _FIT_SCHEMA,
    "bounds": {
        "kl_inf_estimate": _req(float, _nonneg),
        "n_periods": _req(int, lambda n: n >= 3),
        "n_states": _req(int, _positive),
        "m_classical": _req(int, _positive),
        "m_quantum": _req(int, _positive),
        "constants": _opt(dict, None),
    },
}


def _coerce(value, kind, path):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"config: {path}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"config: {path}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ValidationError(f"config: {path}: expected a string, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"config: {path}: expected an object, got {value!r}")
        return value
    raise AssertionError(kind)


def validate_section(doc: dict, schema: dict, path: str) -> dict:
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValidationError(f"config: {path}: unknown keys {sorted(unknown)}")
    out = {}
    for key, rule in schema.items():
        if key in doc:
            value = _coerce(doc[key], rule["kind"], f"{path}.{key}")
            if rule["check"] is not None and not rule["check"](value):
                raise ValidationError(f"config: {path}.{key}: invalid value {value!r}")
            out[key] = value
        elif rule["required"]:
            raise ValidationError(f"config: {path}: missing required key {key!r}")
        else:
            out[key] = rule["default"]
    return out


def _build(cls, doc, path: str):
    """The dataclass ``cls`` from an optional config section; its range errors name the section."""
    values = validate_section(doc or {}, _dataclass_schema(cls), path)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"config: {path}: {exc}") from None


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
    unknown = set(raw) - {"dgp", "experiment", "fit", "fit_i", "fit_j", "bounds"}
    if unknown:
        raise ValidationError(f"config: {path}: unknown sections {sorted(unknown)}")
    return raw


def get_section(config: dict, name: str, schema_name: str | None = None) -> dict:
    if name not in config:
        raise ValidationError(f"config: missing required section {name!r}")
    return validate_section(config[name], _SCHEMAS[schema_name or name], name)


def parse_fit_section(section: dict, path: str):
    """Returns (kind, n_states or None, AnsatzSpec or None, data_kind, FitConfig)."""
    kind = section["kind"]
    ansatz = None
    if kind == estimate.KIND_QHMM:
        if section["ansatz"] is None:
            raise ValidationError(f"config: {path}: qhmm fits need an 'ansatz' object")
        ansatz = _build(qhmm.AnsatzSpec, section["ansatz"], f"{path}.ansatz")
    else:
        if section["n_states"] is None:
            raise ValidationError(f"config: {path}: classical fits need 'n_states'")
    cfg = _build(estimate.FitConfig, section["config"], f"{path}.config")
    return kind, section["n_states"], ansatz, section["data_kind"], cfg


def dgp_scheme(dgp_cfg: dict):
    """Return bins of the DGP section; ``half_width`` defaults to 4 sqrt(beta)."""
    half_width = dgp_cfg["half_width"]
    if half_width is None:
        half_width = 4.0 * math.sqrt(dgp_cfg["beta"])
    return build_observation_scheme(dgp_cfg["n_obs"], half_width)


def build_dgp(dgp_cfg: dict) -> chmm.ClassicalHmm:
    params = CirParams(alpha=dgp_cfg["alpha"], beta=dgp_cfg["beta"], sigma=dgp_cfg["sigma"])
    grid = cir_spot_grid(params, dgp_cfg["n_states"])
    a_hf = cir_transition_matrix(params, grid, dgp_cfg["delta"] / dgp_cfg["k"])
    return chmm.build_classical_hmm(
        grid, a_hf, dgp_cfg["k"], dgp_scheme(dgp_cfg), mode=dgp_cfg["mode"]
    )


def check_out_base(base: str):
    """Fail before any computation if files named ``base + suffix`` cannot be created."""
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
    config = load_config(args.config)
    dgp_cfg = get_section(config, "dgp")
    exp = get_section(config, "experiment")
    seed = args.seed if args.seed is not None else exp["seed"]
    model = build_dgp(dgp_cfg)
    spot, vbars, rets, symbols = chmm.simulate(
        model, exp["n_periods"], derive_seed(seed, "simulate")
    )
    write_data_csv(args.out, spot, vbars, rets, symbols)
    print(f"wrote {len(symbols)} periods to {args.out}")
    return 0


def _grid_for_nonparam(config: dict, n_states: int) -> SpotGrid:
    dgp_cfg = get_section(config, "dgp")
    params = CirParams(alpha=dgp_cfg["alpha"], beta=dgp_cfg["beta"], sigma=dgp_cfg["sigma"])
    return cir_spot_grid(params, n_states)


def cmd_fit(args) -> int:
    check_out_base(args.out)
    config = load_config(args.config)
    dgp_cfg = get_section(config, "dgp")
    fit_section = get_section(config, "fit")
    if args.kind is not None:
        fit_section = dict(fit_section, kind=args.kind)
        if fit_section["kind"] not in _FIT_KINDS:
            raise ValidationError(f"--kind must be one of {_FIT_KINDS}")
    kind, n_states, ansatz, data_kind, cfg = parse_fit_section(fit_section, "fit")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rets, symbols = read_data_csv(args.data)
    scheme = dgp_scheme(dgp_cfg)
    if data_kind == "symbols" and symbols.size and (
        symbols.min() < 0 or symbols.max() >= scheme.n_bins
    ):
        raise ValidationError(f"data symbols out of range [0, {scheme.n_bins}) for config n_obs")

    if kind == estimate.KIND_QHMM:
        if data_kind != "symbols":
            raise ValidationError("qhmm fits use binned symbols, set fit.data_kind='symbols'")
        n_obs = dgp_cfg["n_obs"]
        if n_obs & (n_obs - 1) != 0:
            raise ValidationError(f"qhmm fits need n_obs to be a power of two, got {n_obs}")
        if ansatz.dim_observed != n_obs:
            raise ValidationError(
                f"ansatz observed register has {ansatz.dim_observed} outcomes, config n_obs is {n_obs}"
            )
        result, model = estimate.fit_qhmm(symbols, ansatz, cfg)
    else:
        data = symbols if data_kind == "symbols" else rets
        grid = _grid_for_nonparam(config, n_states) if kind == estimate.KIND_NONPARAM else None
        result, model = estimate.fit_classical(
            data, kind, n_states, dgp_cfg["k"], scheme, cfg,
            grid=grid, delta=dgp_cfg["delta"], mode=dgp_cfg["mode"], data_kind=data_kind,
        )

    model_path = args.out + ".model.json"
    report_path = args.out + ".report.json"
    serialize.save_model(model, model_path)
    consts = estimate.PenaltyConstants()
    if "bounds" in config:
        bounds_section = get_section(config, "bounds")
        consts = _build(estimate.PenaltyConstants, bounds_section["constants"], "bounds.constants")
    fitted_states = ansatz.dim_latent if kind == estimate.KIND_QHMM else n_states
    n_data = int(symbols.size)
    lam = (
        estimate.penalty_lambda(
            n_data, fitted_states, estimate.free_param_count(kind, fitted_states, ansatz), consts
        )
        if n_data >= 3
        else None
    )
    report = {
        "kind": kind,
        "theta_hat": [float(v) for v in result.theta_hat],
        "nll": result.nll,
        "penalty_lambda": lam,
        "penalized_objective": (-result.nll / n_data - lam) if lam is not None else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "n_data": n_data,
        "data_kind": data_kind,
    }
    serialize.dump_json(report, report_path)
    print(f"fit {kind}: nll={result.nll:.6f} (converged={result.converged}); "
          f"wrote {model_path} and {report_path}")
    return 0


def _fit_spec_from_section(config, section, path):
    kind, n_states, ansatz, _, _ = parse_fit_section(section, path)
    if kind == estimate.KIND_QHMM:
        return analysis.QhmmFitSpec(ansatz=ansatz)
    grid = _grid_for_nonparam(config, n_states) if kind == estimate.KIND_NONPARAM else None
    return analysis.ClassicalFitSpec(kind=kind, n_states=n_states, grid=grid)


def cmd_llr(args) -> int:
    check_out_base(args.out)
    config = load_config(args.config)
    dgp_cfg = get_section(config, "dgp")
    exp = get_section(config, "experiment")
    section_i = get_section(config, "fit_i")
    section_j = get_section(config, "fit_j")
    seed = args.seed if args.seed is not None else exp["seed"]
    trials = args.trials if args.trials is not None else exp["trials"]
    workers = args.workers if args.workers is not None else exp["workers"]
    if workers is None:
        workers = os.cpu_count() or 1

    dgp = build_dgp(dgp_cfg)
    spec_i = _fit_spec_from_section(config, section_i, "fit_i")
    spec_j = _fit_spec_from_section(config, section_j, "fit_j")
    for name, spec in (("fit_i", spec_i), ("fit_j", spec_j)):
        if isinstance(spec, analysis.QhmmFitSpec) and spec.ansatz.dim_observed != dgp.n_obs:
            raise ValidationError(
                f"config: {name}: ansatz observed register has {spec.ansatz.dim_observed} "
                f"outcomes but the DGP emits {dgp.n_obs} symbols"
            )
    # Both candidate fits share one optimizer configuration (fit_i's config).
    _, _, _, _, cfg = parse_fit_section(section_i, "fit_i")

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
            dgp, spec_i, spec_j, trials, exp["n_periods"], cfg, seed,
            workers=workers, progress=flush_row,
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
    model = serialize.load_model(args.model)
    if args.depth < 1:
        raise ValidationError(f"--depth must be >= 1, got {args.depth}")
    hankel = analysis.hankel_of_model(model, args.depth)
    sv = np.linalg.svd(hankel.entries, compute_uv=False)
    rank = analysis.numerical_rank(hankel.entries)
    doc = {
        "model_type": "classical" if isinstance(model, chmm.ClassicalHmm) else "qhmm",
        "depth": args.depth,
        "n_strings": len(hankel.labels),
        "numerical_rank": rank,
        "rel_tol": 1e-9,
        "singular_values": sv.tolist(),
    }
    serialize.dump_json(doc, args.out)
    print(f"hankel: {len(hankel.labels)}x{len(hankel.labels)} matrix, numerical rank {rank}; wrote {args.out}")
    return 0


def cmd_bounds(args) -> int:
    config = load_config(args.config)
    section = get_section(config, "bounds")
    consts = _build(estimate.PenaltyConstants, section["constants"], "bounds.constants")
    report = analysis.nab_bounds(
        kl_inf_estimate=section["kl_inf_estimate"],
        n_periods=section["n_periods"],
        n_states=section["n_states"],
        m_classical=section["m_classical"],
        m_quantum=section["m_quantum"],
        consts=consts,
    )
    doc = {
        "nab_q": report.nab_q,
        "classical_excess": report.classical_excess,
        "nab_p": report.nab_p,
        "inputs": report.inputs,
    }
    serialize.dump_json(doc, args.out)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
