"""Span tracing from outside the program, for the traced benchmark run only.

``Tracer.install`` replaces each traced volhmm function in every module that
holds it under a name, because the modules import these functions by name
(``from .chmm import log_likelihood_binned``): patching the defining module
alone would miss those calls. Each call records a span (name, start, end,
parent span); spans stay in memory until ``write``. Counters that are not
spans (objective values, filter steps, Hankel oracle calls) are recorded at
the same boundaries. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from time import perf_counter

import numpy as np

# Values the estimate layer returns for infeasible points and failed evaluations.
BARRIER_FLOOR = 1e8
SENTINEL = 1e12

# (span name, defining module, function). Span names start with the layer.
TRACED = [
    ("specfun.ncx2_cdf", "specfun", "noncentral_chi2_cdf"),
    ("volgrid.spot_grid", "volgrid", "cir_spot_grid"),
    ("volgrid.cir_transition", "volgrid", "cir_transition_matrix"),
    ("volgrid.nonparam_transition", "volgrid", "nonparam_transition_matrix"),
    ("volgrid.stationary", "volgrid", "stationary_distribution"),
    ("volgrid.matrix_power", "volgrid", "matrix_power"),
    ("chmm.build", "chmm", "build_classical_hmm"),
    ("chmm.table", "chmm", "build_integrated_table"),
    ("chmm.emission", "chmm", "build_emission_matrix"),
    ("chmm.filter_binned", "chmm", "log_likelihood_binned"),
    ("chmm.filter_returns", "chmm", "log_likelihood_continuous"),
    ("chmm.seqprob", "chmm", "sequence_probability"),
    ("chmm.simulate", "chmm", "simulate"),
    ("qhmm.build", "qhmm", "build_qhmm"),
    ("qhmm.filter", "qhmm", "qhmm_sequence_logprob"),
    ("qhmm.seqprob", "qhmm", "qhmm_sequence_probability"),
    ("qhmm.simulate", "qhmm", "qhmm_simulate"),
    ("qhmm.causal_break", "qhmm", "causal_break_test"),
    ("estimate.fit", "estimate", "fit_classical"),
    ("estimate.fit", "estimate", "fit_qhmm"),
    ("estimate.nelder_mead", "estimate", "nelder_mead"),
    ("analysis.llr_experiment", "analysis", "llr_experiment"),
    ("analysis.llr_trial", "analysis", "_llr_trial"),
    ("analysis.hankel", "analysis", "hankel_of_model"),
    ("analysis.build_hankel", "analysis", "build_hankel"),
    ("analysis.rank", "analysis", "numerical_rank"),
    ("analysis.kl_exact", "analysis", "kl_exact_small"),
    ("analysis.kl_mc", "analysis", "kl_monte_carlo"),
    ("cli.main", "cli", "main"),
    ("cli.config", "cli", "load_config"),
    ("cli.config", "cli", "get_section"),
    ("cli.config", "cli", "parse_fit_section"),
    ("cli.data_read", "cli", "read_data_csv"),
    ("serialize.save", "serialize", "save_model"),
    ("serialize.save", "serialize", "dump_json"),
    ("serialize.load", "serialize", "load_model"),
]

# The program's modules, which are also the layers.
MODULES = ["specfun", "volgrid", "chmm", "qhmm", "estimate", "analysis", "serialize", "cli"]


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.unpatched: list[str] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span; ``before`` may rewrite the arguments, ``after`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _count_steps(self, key, param):
        def after(result, args, kwargs):
            self.counts[key] += len(args[1] if len(args) > 1 else kwargs[param])
        return after

    def _wrap_objective(self, args, kwargs):
        objective = args[0]

        def counted(theta):
            value = traced_objective(theta)
            self.counts["estimate.objective_evals"] += 1
            if value >= SENTINEL:
                self.counts["estimate.sentinel_hits"] += 1
            elif value >= BARRIER_FLOOR:
                self.counts["estimate.barrier_hits"] += 1
            return value

        traced_objective = self.span("estimate.objective", objective)
        return (counted,) + tuple(args[1:]), kwargs

    def _count_iterations(self, result, args, kwargs):
        self.counts["estimate.nm_iterations"] += result.iterations

    def _wrap_oracle(self, args, kwargs):
        oracle = args[0]

        def counted(seq):
            self.counts["analysis.hankel_oracle_calls"] += 1
            return oracle(seq)

        return (counted,) + tuple(args[1:]), kwargs

    def _count_kl_strings(self, result, args, kwargs):
        dgp, n_steps = args[0], args[2]
        self.counts["analysis.kl_exact_strings"] += dgp.n_obs**n_steps

    def _hooks(self, span_name):
        return {
            "chmm.filter_binned": (None, self._count_steps("chmm.filter_steps", "obs")),
            "chmm.filter_returns": (None, self._count_steps("chmm.filter_steps", "returns")),
            "qhmm.filter": (None, self._count_steps("qhmm.filter_steps", "obs")),
            "estimate.nelder_mead": (self._wrap_objective, self._count_iterations),
            "analysis.build_hankel": (self._wrap_oracle, None),
            "analysis.kl_exact": (None, self._count_kl_strings),
        }.get(span_name, (None, None))

    # -- patching ----------------------------------------------------------

    def install(self):
        for span_name, module, attr in TRACED:
            original = getattr(self.modules[module], attr, None)
            if original is None:
                self.unpatched.append(f"{module}.{attr}")
                continue
            before, after = self._hooks(span_name)
            wrapper = self.span(span_name, original, before, after)
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def write(self, path, extra):
        doc = {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "counts": dict(self.counts),
            "unpatched": self.unpatched,
            **extra,
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per traced round, from the recorded spans and counts.

    A ``*_s`` metric sums the outermost spans of its group, so a span nested
    in another of the same group (``save_model`` calling ``dump_json``) is
    not counted twice. A layer's self time is its spans' durations minus the
    part covered by their direct children.
    """
    names = np.array(tracer.span_name, dtype=np.int64)
    parent = np.array(tracer.span_parent, dtype=np.int64)
    dur = np.array(tracer.span_end) - np.array(tracer.span_start)
    name_of = np.array(tracer.names + ["<root>"], dtype=object)
    span_names = name_of[names]
    parent_names = name_of[np.where(parent >= 0, names[np.maximum(parent, 0)], len(tracer.names))]

    def group(name):
        mask = span_names == name
        return mask & (parent_names != name)

    def total(name):
        return float(dur[group(name)].sum()) / rounds

    def calls(name):
        return int(np.count_nonzero(span_names == name)) / rounds

    counts = {k: v / rounds for k, v in tracer.counts.items()}

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    layers = np.array([n.split(".")[0] for n in span_names], dtype=object)

    chmm_filter_s = total("chmm.filter_binned") + total("chmm.filter_returns")
    evals = counts.get("estimate.objective_evals", 0)
    nm_mask = span_names == "estimate.nelder_mead"
    m = {
        "specfun.ncx2_cdf_calls": calls("specfun.ncx2_cdf"),
        "specfun.ncx2_cdf_s": total("specfun.ncx2_cdf"),
        "volgrid.cir_transition_calls": calls("volgrid.cir_transition"),
        "volgrid.cir_transition_s": total("volgrid.cir_transition"),
        "volgrid.spot_grid_s": total("volgrid.spot_grid"),
        "volgrid.nonparam_transition_s": total("volgrid.nonparam_transition"),
        "volgrid.stationary_s": total("volgrid.stationary"),
        "volgrid.matrix_power_s": total("volgrid.matrix_power"),
        "chmm.table_calls": calls("chmm.table"),
        "chmm.table_s": total("chmm.table"),
        "chmm.emission_s": total("chmm.emission"),
        "chmm.filter_steps": counts.get("chmm.filter_steps", 0),
        "chmm.filter_binned_s": total("chmm.filter_binned"),
        "chmm.filter_returns_s": total("chmm.filter_returns"),
        "chmm.filter_step_us": per(chmm_filter_s, counts.get("chmm.filter_steps", 0), 1e6),
        "chmm.seqprob_calls": calls("chmm.seqprob"),
        "chmm.seqprob_s": total("chmm.seqprob"),
        "chmm.simulate_s": total("chmm.simulate"),
        "qhmm.build_calls": calls("qhmm.build"),
        "qhmm.build_s": total("qhmm.build"),
        "qhmm.filter_steps": counts.get("qhmm.filter_steps", 0),
        "qhmm.filter_s": total("qhmm.filter"),
        "qhmm.filter_step_us": per(total("qhmm.filter"), counts.get("qhmm.filter_steps", 0), 1e6),
        "qhmm.seqprob_calls": calls("qhmm.seqprob"),
        "qhmm.seqprob_s": total("qhmm.seqprob"),
        "qhmm.causal_break_s": total("qhmm.causal_break"),
        "estimate.fit_s": total("estimate.fit"),
        "estimate.objective_evals": evals,
        "estimate.objective_ms": per(total("estimate.objective"), evals, 1e3),
        "estimate.nm_iterations": counts.get("estimate.nm_iterations", 0),
        "estimate.nm_self_s": float(self_time[nm_mask].sum()) / rounds,
        "estimate.barrier_hits": counts.get("estimate.barrier_hits", 0),
        "estimate.sentinel_hits": counts.get("estimate.sentinel_hits", 0),
        "estimate.feasible_eval_ratio": per(
            evals - counts.get("estimate.barrier_hits", 0) - counts.get("estimate.sentinel_hits", 0),
            evals,
        ),
        "analysis.llr_trial_s": total("analysis.llr_trial"),
        "analysis.hankel_s": total("analysis.hankel"),
        "analysis.hankel_oracle_calls": counts.get("analysis.hankel_oracle_calls", 0),
        "analysis.rank_s": total("analysis.rank"),
        "analysis.kl_exact_s": total("analysis.kl_exact"),
        "analysis.kl_exact_strings": counts.get("analysis.kl_exact_strings", 0),
        "analysis.kl_mc_s": total("analysis.kl_mc"),
        "cli.config_s": total("cli.config"),
        "cli.data_read_s": total("cli.data_read"),
        "serialize.save_s": total("serialize.save"),
        "serialize.load_s": total("serialize.load"),
    }
    for layer in MODULES:
        m[f"{layer}.self_s"] = float(self_time[layers == layer].sum()) / rounds
    m["trace.spans"] = dur.size / rounds
    m["trace.unpatched"] = len(tracer.unpatched)
    return m
