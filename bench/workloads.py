"""The benchmark's workloads: inputs from a seed, one timed round, output checks.

A round is a fixed list of operations (CLI commands called in-process through
``volhmm.cli.main``, LLR trials, library diagnostic calls). Every round of a
run repeats the same operations on the same inputs, so every round does the
same work and writes byte-identical deterministic files.

- ``cir_fit``: ``volhmm fit --kind cir`` on three sets of raw returns
  simulated from the preset DGP, with a fixed iteration budget. Each
  objective evaluation rebuilds the 16-state model, so this carries specfun,
  volgrid and the chmm builders; the continuous-returns filter takes about a
  sixth.
- ``llr``: ``volhmm llr`` with the acceptance criterion-8 candidates and
  optimiser settings, two trials, one worker. This carries the per-step
  filters and the fitting stack and barely touches specfun.
- ``diagnostics``: ``volhmm hankel`` on the preset DGP and on a seeded qhmm,
  ``volhmm markov-test`` on that qhmm, and exact and Monte-Carlo KL between
  the two models: the likelihood layers through many short sequences.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

PRESET_DGP = {"alpha": 2.2, "beta": 0.077, "sigma": 1.1, "n_states": 16, "k": 4, "n_obs": 4}
LLR_ANSATZ = {"latent_qubits": 1, "observed_qubits": 2, "reps": 3, "entanglement": "full"}
CRITERION_8_FIT = {"max_iter": 600, "restarts": 4}

CIR_PERIODS = 500
CIR_MAX_ITER = 10
CIR_DATASETS = 3  # fits per round: averages out how far each data set's simplex path runs
LLR_TRIALS = 2
LLR_PERIODS = 100
HANKEL_DEPTH = 4
MARKOV_PREFIX_A, MARKOV_PREFIX_B, MARKOV_HORIZON = "1,2", "3,0", 5
KL_STEPS = 6
KL_MC_TRIALS = 4000


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


class Outcome:
    """Operations attempted and failed in one round, and the files to hash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.files: dict[str, Path] = {}
        self.values: dict = {}

    def cli(self, volhmm, argv):
        """One CLI command, in-process; its standard output is captured like a pipe."""
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = volhmm.cli.main([str(a) for a in argv])
        if code != 0:
            self.failed += 1
        return code == 0

    def hashes(self) -> dict:
        out = {name: sha256(path) for name, path in sorted(self.files.items()) if path.exists()}
        if self.values:
            out["values"] = hashlib.sha256(json.dumps(self.values, sort_keys=True).encode()).hexdigest()
        return out


class Workload:
    name = ""

    def __init__(self, volhmm, workdir: Path, seed: int):
        self.volhmm = volhmm
        self.dir = workdir
        self.seed = seed
        self.config = self.dir / "config.json"

    def make_inputs(self):
        raise NotImplementedError

    def run_round(self, out: Path) -> Outcome:
        raise NotImplementedError

    def check(self, out: Path, outcome: Outcome) -> list:
        raise NotImplementedError


class CirFit(Workload):
    name = "cir_fit"

    def data(self, i):
        return self.dir / f"data{i}.csv"

    def make_inputs(self):
        write_json(self.config, {
            "dgp": PRESET_DGP,
            "experiment": {"trials": 1, "n_periods": CIR_PERIODS},
            "fit": {
                "kind": "cir", "n_states": PRESET_DGP["n_states"], "data_kind": "returns",
                "config": {"max_iter": CIR_MAX_ITER, "restarts": 1},
            },
        })
        outcome = Outcome()
        for i in range(CIR_DATASETS):
            data_seed = self.volhmm.seeds.derive_seed(self.seed, "bench-cir-data", i)
            if not outcome.cli(self.volhmm, ["simulate", "--config", self.config,
                                             "--out", self.data(i), "--seed", data_seed]):
                raise RuntimeError("volhmm simulate failed while making the cir_fit inputs")

    def run_round(self, out):
        outcome = Outcome()
        for i in range(CIR_DATASETS):
            outcome.cli(self.volhmm, ["fit", "--config", self.config, "--data", self.data(i),
                                      "--out", out / f"fit{i}", "--kind", "cir"])
            for suffix in ("model", "report"):
                outcome.files[f"fit{i}.{suffix}.json"] = out / f"fit{i}.{suffix}.json"
        return outcome

    def check(self, out, outcome):
        import checks

        failures = []
        for i in range(CIR_DATASETS):
            if not (out / f"fit{i}.report.json").exists():
                continue
            with open(self.data(i), newline="", encoding="ascii") as fh:
                returns = np.array([float(row["return"]) for row in csv.DictReader(fh)])
            failures += [f"fit {i}: {m}" for m in checks.check_cir_fit(
                read_json(out / f"fit{i}.report.json"), read_json(out / f"fit{i}.model.json"),
                returns, checks.cir_start_theta(returns), PRESET_DGP["n_states"], PRESET_DGP["k"], 1.0,
            )]
        return failures


class Llr(Workload):
    name = "llr"

    def make_inputs(self):
        write_json(self.config, {
            "dgp": PRESET_DGP,
            "experiment": {"trials": LLR_TRIALS, "n_periods": LLR_PERIODS, "seed": self.seed,
                           "workers": 1},
            "fit_i": {"kind": "qhmm", "ansatz": LLR_ANSATZ, "config": CRITERION_8_FIT},
            "fit_j": {"kind": "nonparam", "n_states": 4, "config": CRITERION_8_FIT},
        })

    def run_round(self, out):
        outcome = Outcome()
        ok = outcome.cli(self.volhmm, ["llr", "--config", self.config, "--out", out / "llr",
                                       "--workers", 1])
        outcome.attempted += LLR_TRIALS
        if ok:
            with open(out / "llr.csv", newline="", encoding="ascii") as fh:
                outcome.failed += sum(1 for row in csv.DictReader(fh) if row["status"] != "ok")
        else:
            outcome.failed += LLR_TRIALS
        outcome.files = {"llr.csv": out / "llr.csv", "llr.hist.json": out / "llr.hist.json"}
        return outcome

    def check(self, out, outcome):
        import checks

        if not (out / "llr.hist.json").exists():
            return []
        with open(out / "llr.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        return checks.check_llr(rows, read_json(out / "llr.hist.json"), LLR_TRIALS, LLR_PERIODS)


class Diagnostics(Workload):
    name = "diagnostics"

    def make_inputs(self):
        v = self.volhmm
        write_json(self.config, {"dgp": PRESET_DGP})
        dgp_cfg = v.cli.get_section(v.cli.load_config(str(self.config)), "dgp")
        v.serialize.save_model(v.cli.build_dgp(dgp_cfg), self.dir / "dgp.model.json")
        spec = v.qhmm.AnsatzSpec(**LLR_ANSATZ)
        v.serialize.save_model(v.qhmm.random_qhmm(spec, self.seed), self.dir / "qhmm.model.json")

    def run_round(self, out):
        v = self.volhmm
        outcome = Outcome()
        for name in ("dgp", "qhmm"):
            outcome.cli(v, ["hankel", "--model", self.dir / f"{name}.model.json",
                            "--depth", HANKEL_DEPTH, "--out", out / f"hankel_{name}.json"])
        outcome.cli(v, ["markov-test", "--model", self.dir / "qhmm.model.json",
                        "--prefix-a", MARKOV_PREFIX_A, "--prefix-b", MARKOV_PREFIX_B,
                        "--horizon", MARKOV_HORIZON, "--out", out / "markov.json"])
        outcome.files = {f: out / f for f in ("hankel_dgp.json", "hankel_qhmm.json", "markov.json")}
        outcome.attempted += 2
        try:
            dgp = v.serialize.load_model(str(self.dir / "dgp.model.json"))
            cand = v.serialize.load_model(str(self.dir / "qhmm.model.json"))
            outcome.values["kl_exact"] = v.analysis.kl_exact_small(dgp, cand, KL_STEPS)
            outcome.values["kl_mc"] = v.analysis.kl_monte_carlo(
                dgp, cand, KL_MC_TRIALS, KL_STEPS, v.seeds.derive_seed(self.seed, "bench-kl-mc")
            )
        except (v.errors.ValidationError, v.errors.NumericalError):
            outcome.failed += 2 - ("kl_exact" in outcome.values)
        return outcome

    def check(self, out, outcome):
        import checks

        v = self.volhmm
        failures = []
        docs = {name: read_json(self.dir / f"{name}.model.json") for name in ("dgp", "qhmm")}
        ops = {name: checks.operators_for(doc) for name, doc in docs.items()}
        d = 2 ** LLR_ANSATZ["latent_qubits"]
        bounds = {"dgp": PRESET_DGP["n_states"], "qhmm": d * d}
        if ops["qhmm"].completeness_error() > checks.PROB_TOL:
            failures.append("stored Kraus operators are not complete")
        for name in ("dgp", "qhmm"):
            path = out / f"hankel_{name}.json"
            if path.exists():
                ref_h = checks.ref_hankel(ops[name], checks.hankel_labels(ops[name].n_obs, HANKEL_DEPTH))
                failures += [f"hankel {name}: {m}" for m in
                             checks.check_hankel_report(read_json(path), ref_h, bounds[name])]
            model = v.serialize.load_model(str(self.dir / f"{name}.model.json"))
            small = v.analysis.hankel_of_model(model, 2)
            failures += [f"hankel entries {name}: {m}" for m in
                         checks.check_hankel_entries(small.labels, small.entries, ops[name])]
        if (out / "markov.json").exists():
            failures += [f"markov-test: {m}" for m in
                         checks.check_markov(read_json(out / "markov.json"), ops["qhmm"], MARKOV_HORIZON)]
        if "kl_mc" in outcome.values:
            ref = checks.ref_kl_exact(ops["dgp"], ops["qhmm"], KL_STEPS)
            mean, se = outcome.values["kl_mc"]
            failures += [f"kl: {m}" for m in checks.check_kl(outcome.values["kl_exact"], mean, se, ref)]
        return failures


WORKLOADS = {w.name: w for w in (CirFit, Llr, Diagnostics)}
