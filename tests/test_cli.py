import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import volhmm
from volhmm import serialize
from volhmm.chmm import log_likelihood_binned, simulate
from volhmm.cli import main
from volhmm.qhmm import AnsatzSpec, qhmm_sequence_logprob, random_qhmm


def write_config(path, **overrides):
    config = {
        "dgp": {
            "alpha": 2.2, "beta": 0.077, "sigma": 1.1,
            "n_states": 4, "k": 2, "n_obs": 4,
        },
        "experiment": {"trials": 2, "n_periods": 40, "seed": 11},
        "fit": {
            "kind": "cir", "n_states": 4,
            "config": {"max_iter": 25, "restarts": 1},
        },
    }
    for key, value in overrides.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    path.write_text(json.dumps(config, indent=2))
    return path


class TestSimulateCommand:
    def test_writes_rows_and_is_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        body = out1.read_bytes()
        assert body == out2.read_bytes()
        lines = body.decode().strip().splitlines()
        assert lines[0] == "t,spot_state,vbar,return,symbol"
        assert len(lines) == 41

    def test_sp500_preset_shape(self, tmp_path):
        out = tmp_path / "sp500.csv"
        code = main(["simulate", "--config", "configs/sp500_cir.json", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 501

    def test_zero_periods_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", experiment={"trials": 1, "n_periods": 0, "seed": 1})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("sigma, message",
                             [(1e-170, "sigma^2 = 0.0"), (1e200, "sigma^2 = inf")])
    def test_under_or_overflowing_sigma_exits_2(self, tmp_path, capsys, sigma, message):
        cfg = write_config(tmp_path / "c.json", dgp={
            "alpha": 2.2, "beta": 0.077, "sigma": sigma, "n_states": 4, "k": 2, "n_obs": 4})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "not finite and positive" in err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        doc = json.loads(cfg.read_text())
        doc["dgp"]["typo_key"] = 1
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


class TestFitCommand:
    def test_cir_fit_report_and_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["kind"] == "cir"
        assert len(report["theta_hat"]) == 3
        model = serialize.load_model(tmp_path / "run.model.json")
        from volhmm.cli import read_data_csv

        _, symbols = read_data_csv(str(data))
        assert log_likelihood_binned(model, symbols) == pytest.approx(-report["nll"], abs=1e-12)

    def test_nonparam_dimension(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            fit={"kind": "nonparam", "n_states": 4, "config": {"max_iter": 5, "restarts": 1}},
        )
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "np")]) == 0
        report = json.loads((tmp_path / "np.report.json").read_text())
        assert len(report["theta_hat"]) == 12

    def test_qhmm_requires_power_of_two_bins(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            dgp={"alpha": 2.2, "beta": 0.077, "sigma": 1.1, "n_states": 4, "k": 2, "n_obs": 3},
            fit={
                "kind": "qhmm",
                "ansatz": {"latent_qubits": 1, "observed_qubits": 2},
                "config": {"max_iter": 5, "restarts": 1},
            },
        )
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "q")]) == 2

    def test_qhmm_fit_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            fit={
                "kind": "qhmm",
                "ansatz": {"latent_qubits": 1, "observed_qubits": 2, "reps": 1},
                "config": {"max_iter": 30, "restarts": 1},
            },
        )
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "q")]) == 0
        model = serialize.load_model(tmp_path / "q.model.json")
        report = json.loads((tmp_path / "q.report.json").read_text())
        from volhmm.cli import read_data_csv

        _, symbols = read_data_csv(str(data))
        assert qhmm_sequence_logprob(model, symbols) == pytest.approx(-report["nll"], abs=1e-12)

    def test_negative_symbol_exits_2_for_classical_kinds(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        lines = data.read_text().splitlines()
        head, _, _ = lines[3].rpartition(",")
        lines[3] = head + ",-1"
        data.write_text("\n".join(lines) + "\n")
        for kind in ("cir", "nonparam"):
            out = tmp_path / kind
            code = main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out),
                         "--kind", kind])
            assert code == 2
            assert not (tmp_path / f"{kind}.report.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_return_exits_2(self, tmp_path, capsys, value):
        fit = {"kind": "cir", "n_states": 4, "data_kind": "returns",
               "config": {"max_iter": 25, "restarts": 1}}
        cfg = write_config(tmp_path / "c.json", fit=fit)
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        lines = data.read_text().splitlines()
        cols = lines[3].split(",")
        cols[3] = value
        lines[3] = ",".join(cols)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r"
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
        assert "returns must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.report.json").exists()

    def test_missing_out_directory_fails_before_fitting(self, tmp_path, monkeypatch, capsys):
        from volhmm import estimate

        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        calls = []
        monkeypatch.setattr(estimate.ClassicalFitSpec, "fit", lambda *a, **kw: calls.append(a))
        out = tmp_path / "missing_dir" / "x"
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
        assert calls == []
        assert "missing_dir" in capsys.readouterr().err

    def test_unwritable_output_maps_to_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "missing_dir" / "d.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_data_row_is_located(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "d.csv"
        data.write_text("t,spot_state,vbar,return,symbol\n0,1,0.01,not_a_number,2\n")
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "x")]) == 2

    def test_misspelled_data_kind_reported_before_data_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", fit={"kind": "cir", "n_states": 4, "data_kind": "retruns"})
        code = main(["fit", "--config", str(cfg), "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config: fit: data_kind must be 'symbols' or 'returns', got 'retruns'" in err

    @pytest.mark.parametrize("kind", ["cir", "qhmm"])
    def test_report_penalty_matches_lambda(self, tmp_path, kind):
        from volhmm.estimate import PenaltyConstants, penalty_lambda

        constants = {"c_lambda": 2.0, "eta": 0.5, "c_aux": 1.5}
        ansatz = AnsatzSpec(latent_qubits=1, observed_qubits=2, reps=1)
        fits = {
            "cir": ({"kind": "cir", "n_states": 16}, 16, 3),
            "qhmm": ({"kind": "qhmm", "ansatz": {"latent_qubits": 1, "observed_qubits": 2, "reps": 1}},
                     ansatz.dim_latent, ansatz.n_params + ansatz.latent_qubits),
        }
        fit, n, m = fits[kind]
        cfg = write_config(
            tmp_path / "c.json",
            fit=dict(fit, config={"max_iter": 3, "restarts": 1}),
            bounds={"kl_inf_estimate": 0.05, "n_periods": 40, "n_states": 16, "m_classical": 240,
                    "m_quantum": 33, "constants": constants},
        )
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        assert main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "f")]) == 0
        report = json.loads((tmp_path / "f.report.json").read_text())
        lam = penalty_lambda(report["n_data"], n, m, PenaltyConstants(**constants))
        assert report["n_data"] == 40
        assert report["penalty_lambda"] == lam
        assert report["penalized_objective"] == -report["nll"] / report["n_data"] - lam


NONPARAM_2 = {"kind": "nonparam", "n_states": 2, "config": {"max_iter": 25, "restarts": 1}}


class TestLlrCommand:
    def _llr_config(self, tmp_path, workers=None):
        experiment = {"trials": 3, "n_periods": 25, "seed": 5}
        if workers is not None:
            experiment["workers"] = workers
        return write_config(
            tmp_path / "c.json",
            dgp={"alpha": 2.2, "beta": 0.077, "sigma": 1.1, "n_states": 2, "k": 1, "n_obs": 2},
            experiment=experiment,
            fit_i={
                "kind": "qhmm",
                "ansatz": {"latent_qubits": 1, "observed_qubits": 1, "reps": 1},
                "config": {"max_iter": 25, "restarts": 1},
            },
            fit_j={"kind": "nonparam", "n_states": 2, "config": {"max_iter": 25, "restarts": 1}},
        )

    def test_outputs_and_worker_independence(self, tmp_path):
        cfg = self._llr_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["llr", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["llr", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "r1.hist.json").read_bytes() == (tmp_path / "r2.hist.json").read_bytes()
        rows = (tmp_path / "r1.csv").read_text().strip().splitlines()
        assert rows[0].startswith("trial,")
        assert len(rows) == 4
        hist = json.loads((tmp_path / "r1.hist.json").read_text())
        assert len(hist["histogram"]["counts"]) == 40
        assert "negative_fraction" in hist["summary"]

    def test_chunked_workers_write_identical_files(self, tmp_path):
        cfg = self._llr_config(tmp_path)
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            argv = ["llr", "--config", str(cfg), "--out", str(out), "--trials", "5"]
            assert main(argv + ["--workers", workers]) == 0
        for suffix in (".csv", ".hist.json"):
            files = [(tmp_path / f"w{w}{suffix}").read_bytes() for w in "123"]
            assert files[1:] == files[:1] * 2

    def test_missing_out_directory_fails_before_trials(self, tmp_path, monkeypatch):
        from volhmm import analysis

        cfg = self._llr_config(tmp_path)
        calls = []
        monkeypatch.setattr(analysis, "llr_experiment", lambda *a, **kw: calls.append(a))
        out = tmp_path / "missing_dir" / "r"
        assert main(["llr", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 2
        assert calls == []

    def test_single_trial(self, tmp_path):
        cfg = self._llr_config(tmp_path)
        out = tmp_path / "single"
        assert main(["llr", "--config", str(cfg), "--out", str(out), "--trials", "1"]) == 0
        assert len((tmp_path / "single.csv").read_text().strip().splitlines()) == 2

    def test_candidates_share_the_dgp_grouping(self, tmp_path):
        from volhmm.cli import build_dgp, get_section, load_config
        from volhmm.estimate import ClassicalFitSpec, FitConfig
        from volhmm.seeds import derive_seed
        from volhmm.volgrid import cir_spot_grid

        cfg = write_config(
            tmp_path / "c.json",
            dgp={"alpha": 2.2, "beta": 0.077, "sigma": 1.1, "n_states": 3, "k": 2, "n_obs": 3,
                 "half_width": 0.3, "mode": "index-sum"},
            experiment={"trials": 1, "n_periods": 25, "seed": 5},
            fit_i={"kind": "cir", "n_states": 3, "config": {"max_iter": 25, "restarts": 1}},
            fit_j={"kind": "nonparam", "n_states": 3, "config": {"max_iter": 25, "restarts": 1}},
        )
        assert main(["llr", "--config", str(cfg), "--out", str(tmp_path / "r"), "--workers", "1"]) == 0
        with open(tmp_path / "r.csv", newline="", encoding="ascii") as fh:
            (row,) = list(csv.DictReader(fh))
        dgp = get_section(load_config(str(cfg)), "dgp")
        data = simulate(build_dgp(dgp), 25, derive_seed(5, "llr-data", 0))[3]
        fit_cfg = FitConfig(max_iter=25, restarts=1, seed=derive_seed(5, "llr-fit", 0, "nonparam(n=3)"))
        grid = cir_spot_grid(dgp.params, 3)
        fits = {mode: ClassicalFitSpec("nonparam", 3, 2, dgp.scheme, mode=mode, grid=grid)
                .fit(data, fit_cfg)[0] for mode in ("index-sum", "multiset")}
        assert float(row["loglik_model_j"]) == -fits["index-sum"].nll
        assert fits["index-sum"].nll != fits["multiset"].nll

    @pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-2"], ["--trials", "0"]])
    def test_overrides_checked_before_any_output(self, tmp_path, capsys, flags):
        cfg = self._llr_config(tmp_path)
        out = tmp_path / "r"
        assert main(["llr", "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert f"{flags[0]}: {flags[0][2:]} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("sections,message", [
        ({"fit_j": dict(NONPARAM_2, config={"max_iter": 24, "restarts": 1})},
         "config: fit_j.config: llr fits both candidates with one optimizer configuration"),
        ({"fit_i": dict(NONPARAM_2, data_kind="returns")}, "config: fit_i: llr fits binned"),
        ({"fit_j": dict(NONPARAM_2, data_kind="returns")}, "config: fit_j: llr fits binned"),
    ], ids=["fit_j.config", "fit_i.data_kind", "fit_j.data_kind"])
    def test_rejects_settings_it_would_ignore(self, tmp_path, capsys, monkeypatch,
                                              sections, message):
        from volhmm import analysis

        cfg = self._llr_config(tmp_path)
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **sections)))
        calls = []
        monkeypatch.setattr(analysis, "llr_experiment", lambda *a, **kw: calls.append(a))
        assert main(["llr", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "r.csv").exists()


class TestMarkovTestCommand:
    def test_four_state_model_is_markovian(self, tmp_path, capsys):
        model = random_qhmm(AnsatzSpec(latent_qubits=2, observed_qubits=1, reps=3), 77)
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        out = tmp_path / "verdict.json"
        code = main([
            "markov-test", "--model", str(path),
            "--prefix-a", "1,1", "--prefix-b", "0,0", "--horizon", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "verdict: markovian" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["markovian"] is True
        assert report["max_abs_diff"] < 1e-10

    def test_zero_horizon_rejected(self, tmp_path):
        model = random_qhmm(AnsatzSpec(1, 1, reps=1), 3)
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        code = main(["markov-test", "--model", str(path),
                     "--prefix-a", "1", "--prefix-b", "0", "--horizon", "0"])
        assert code == 2

    def test_classical_model_unsupported(self, tmp_path, rng):
        from conftest import random_classical_hmm

        model = random_classical_hmm(rng)
        path = tmp_path / "c.json"
        serialize.save_model(model, path)
        code = main(["markov-test", "--model", str(path),
                     "--prefix-a", "1", "--prefix-b", "0", "--horizon", "1"])
        assert code == 2

    def test_impossible_prefix_exits_with_numerical_failure(self, tmp_path):
        # all-zero angles with one entanglement block make the channel a pure
        # readout of the |0> latent state, so a leading 1 has probability zero
        from volhmm.qhmm import build_qhmm

        spec = AnsatzSpec(latent_qubits=1, observed_qubits=1, reps=1)
        model = build_qhmm(spec, np.zeros(spec.n_params), np.zeros(1))
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        code = main(["markov-test", "--model", str(path),
                     "--prefix-a", "1", "--prefix-b", "0", "--horizon", "1"])
        assert code == 3


class TestHankelCommand:
    def test_two_state_rank_bound(self, tmp_path, rng):
        from conftest import random_classical_hmm

        model = random_classical_hmm(rng, n_states=2, n_obs=2, k=1)
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        out = tmp_path / "h.json"
        assert main(["hankel", "--model", str(path), "--depth", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["numerical_rank"] <= 2
        assert report["n_strings"] == 15


class TestMalformedModelFiles:
    """A model file that is not a model object, or lacks a required key or holds a value of
    the wrong type, exits 2 naming it."""

    def _hankel(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "h.json"
        return main(["hankel", "--model", str(path), "--depth", "2", "--out", str(out)])

    def test_classical_file_without_k(self, tmp_path, capsys, rng):
        from conftest import random_classical_hmm

        doc = serialize.model_to_dict(random_classical_hmm(rng, n_states=2, n_obs=2, k=1))
        del doc["k"]
        assert self._hankel(tmp_path, doc) == 2
        assert "classical model: missing required key 'k'" in capsys.readouterr().err

    def test_qhmm_spec_without_reps(self, tmp_path, capsys):
        doc = serialize.model_to_dict(random_qhmm(AnsatzSpec(1, 1, reps=1), 3))
        del doc["spec"]["reps"]
        assert self._hankel(tmp_path, doc) == 2
        assert "qhmm model: spec: missing required key 'reps'" in capsys.readouterr().err

    def test_file_holding_a_list(self, tmp_path, capsys):
        assert self._hankel(tmp_path, [1, 2]) == 2
        assert "model file: expected an object, got list" in capsys.readouterr().err

    def test_classical_file_with_null_k(self, tmp_path, capsys, rng):
        from conftest import random_classical_hmm

        doc = serialize.model_to_dict(random_classical_hmm(rng, n_states=2, n_obs=2, k=1))
        doc["k"] = None
        assert self._hankel(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "classical model: bad value for 'k': expected an integer, got None" in err

    def test_qhmm_file_with_flat_kraus_entries(self, tmp_path, capsys):
        doc = serialize.model_to_dict(random_qhmm(AnsatzSpec(1, 1, reps=1), 3))
        doc["kraus"] = [[[1]]]
        assert self._hankel(tmp_path, doc) == 2
        assert "qhmm model: bad value for 'kraus'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key,at", [("theta", 0), ("theta", 3), ("theta_init", 0)])
    def test_qhmm_file_with_a_non_finite_angle(self, tmp_path, capsys, key, at, value):
        doc = serialize.model_to_dict(random_qhmm(AnsatzSpec(1, 1, reps=1), 3))
        doc[key][at] = value
        assert self._hankel(tmp_path, doc) == 2
        assert f"{key}[{at}] is {value}: angles must be finite" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key,entry,message", [
        ("a_hf", (0, 1), "transition probabilities must be finite"),
        ("emission", (1, 0), "stored emission matrix does not match"),
        ("x0", (1,), "x0 must be a probability vector"),
    ])
    def test_classical_file_with_a_non_finite_entry(self, tmp_path, capsys, rng, key, entry,
                                                    message, value):
        from conftest import random_classical_hmm

        doc = serialize.model_to_dict(random_classical_hmm(rng, n_states=2, n_obs=2, k=1))
        row = doc[key]
        for i in entry[:-1]:
            row = row[i]
        row[entry[-1]] = value
        assert self._hankel(tmp_path, doc) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()


class TestBoundsCommand:
    def test_report_ordering(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            bounds={
                "kl_inf_estimate": 0.05, "n_periods": 500, "n_states": 16,
                "m_classical": 240, "m_quantum": 33,
            },
        )
        out = tmp_path / "b.json"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["nab_p"] >= report["nab_q"]

    def test_non_square_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            bounds={
                "kl_inf_estimate": 0.05, "n_periods": 500, "n_states": 15,
                "m_classical": 240, "m_quantum": 33,
            },
        )
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.json")]) == 2


class TestOutCheckedFirst:
    """Every command that writes --out checks its directory before computing: exit 2, the
    directory named, nothing on standard output."""

    @pytest.mark.parametrize("command", ["simulate", "hankel", "markov-test", "bounds"])
    def test_missing_out_directory(self, tmp_path, monkeypatch, capsys, command):
        from volhmm import analysis, chmm, qhmm

        cfg = write_config(tmp_path / "c.json", bounds={
            "kl_inf_estimate": 0.05, "n_periods": 500, "n_states": 16,
            "m_classical": 240, "m_quantum": 33,
        })
        model = tmp_path / "m.json"
        serialize.save_model(random_qhmm(AnsatzSpec(1, 1, reps=1), 3), model)
        calls = []
        for module, name in [(chmm, "simulate"), (analysis, "hankel_of_model"),
                             (qhmm, "causal_break_test"), (analysis, "nab_bounds")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
        out = tmp_path / "missing_dir" / "o.json"
        argv = {
            "simulate": ["--config", cfg],
            "hankel": ["--model", model, "--depth", "2"],
            "markov-test": ["--model", model, "--prefix-a", "1", "--prefix-b", "0",
                            "--horizon", "2"],
            "bounds": ["--config", cfg],
        }[command]
        assert main([command, *map(str, argv), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert calls == []
        assert captured.out == ""
        assert f"--out: directory {tmp_path / 'missing_dir'} does not exist" in captured.err


class TestConfigValues:
    """Out-of-range values in sections that fill a dataclass are rejected by its own checks."""

    def test_fit_config_range(self, tmp_path, capsys):
        fit = {"kind": "cir", "n_states": 4, "config": {"max_iter": 0}}
        cfg = write_config(tmp_path / "c.json", fit=fit)
        code = main(["fit", "--config", str(cfg), "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config: fit.config: max_iter must be >= 1" in capsys.readouterr().err

    def test_ansatz_register_bound(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            fit_i={"kind": "qhmm", "ansatz": {"latent_qubits": 1, "observed_qubits": 3}},
            fit_j={"kind": "nonparam", "n_states": 4},
        )
        assert main(["llr", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "config: fit_i.ansatz: n_obs must not exceed" in capsys.readouterr().err

    def test_penalty_constant_nan(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            bounds={
                "kl_inf_estimate": 0.05, "n_periods": 500, "n_states": 16,
                "m_classical": 240, "m_quantum": 33, "constants": {"w_m": float("nan")},
            },
        )
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.json")]) == 2
        assert "config: bounds.constants: w_m must be nonnegative" in capsys.readouterr().err


class TestConfigSections:
    """Every section is read the same way, and command-line overrides are checked like config."""

    @pytest.mark.parametrize("name,value", [("dgp", 5), ("experiment", [1]), ("fit", "cir")])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, name, value):
        cfg = write_config(tmp_path / "c.json", **{name: value})
        command = ["fit", "--data", str(tmp_path / "none.csv")] if name == "fit" else ["simulate"]
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config: {name}: expected an object" in capsys.readouterr().err

    def test_kind_override_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["fit", "--config", str(cfg), "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "x"), "--kind", "qhmm"])
        assert code == 2
        assert "--kind: qhmm fits need an 'ansatz' object" in capsys.readouterr().err

    def test_sp500_preset_sections_and_fit_specs(self):
        from volhmm.cli import get_section, load_config

        config = load_config("configs/sp500_cir.json")
        sections = {name: get_section(config, name) for name in
                    ("dgp", "experiment", "fit", "fit_i", "fit_j", "bounds")}
        dgp = sections["dgp"]
        assert dgp.scheme.n_bins == dgp.n_obs == 4
        assert sections["experiment"].workers is None
        specs = {name: sections[name].spec(dgp) for name in ("fit", "fit_i", "fit_j")}
        fit = specs["fit"]
        assert (fit.kind, fit.n_states, fit.k, fit.delta, fit.mode) == ("cir", 16, 4, 1.0, "multiset")
        assert fit.grid is None and fit.scheme.n_bins == 4 and fit.data_kind == "symbols"
        assert specs["fit_i"].ansatz.dim_observed == dgp.n_obs
        assert specs["fit_j"].grid.values.size == 4
        assert sections["fit_i"].config == sections["fit_j"].config
        assert sections["bounds"].constants.tau == 1.0


class TestBuildDgp:
    """``build_dgp`` is the explicit grid -> CIR transition -> classical model chain."""

    @pytest.mark.parametrize("dgp_doc", [
        None,  # the preset
        {"alpha": 1.3, "beta": 0.05, "sigma": 0.6, "n_states": 5, "k": 3, "n_obs": 3,
         "delta": 0.5, "mode": "index-sum"},
    ])
    def test_equals_the_explicit_chain(self, tmp_path, dgp_doc):
        from volhmm.chmm import build_classical_hmm
        from volhmm.cli import build_dgp, get_section, load_config
        from volhmm.volgrid import cir_spot_grid, cir_transition_matrix

        path = "configs/sp500_cir.json" if dgp_doc is None else str(
            write_config(tmp_path / "c.json", dgp=dgp_doc))
        dgp = get_section(load_config(path), "dgp")
        grid = cir_spot_grid(dgp.params, dgp.n_states)
        a_hf = cir_transition_matrix(dgp.params, grid, dgp.delta / dgp.k)
        explicit = build_classical_hmm(grid, a_hf, dgp.k, dgp.scheme, mode=dgp.mode)
        model = build_dgp(dgp)
        assert np.array_equal(model.grid.values, grid.values)
        assert np.array_equal(model.a_hf.probs, explicit.a_hf.probs)
        assert model.a_hf.dt == explicit.a_hf.dt
        for name in ("vbar_values", "g"):
            assert np.array_equal(getattr(model.table, name), getattr(explicit.table, name))
        assert (model.table.k, model.table.mode) == (explicit.table.k, explicit.table.mode)
        assert np.array_equal(model.emission.probs, explicit.emission.probs)
        assert np.array_equal(model.x0, explicit.x0)


class TestModelFiles:
    def test_classical_roundtrip_preserves_likelihood(self, tmp_path, rng):
        from conftest import random_classical_hmm

        model = random_classical_hmm(rng)
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        loaded = serialize.load_model(path)
        obs = simulate(model, 60, seed=1)[3]
        assert log_likelihood_binned(loaded, obs) == log_likelihood_binned(model, obs)

    def test_qhmm_roundtrip_preserves_likelihood(self, tmp_path):
        model = random_qhmm(AnsatzSpec(2, 2, reps=2), 13)
        path = tmp_path / "q.json"
        serialize.save_model(model, path)
        loaded = serialize.load_model(path)
        from volhmm.qhmm import qhmm_simulate

        obs = qhmm_simulate(model, 40, seed=2)
        assert qhmm_sequence_logprob(loaded, obs) == qhmm_sequence_logprob(model, obs)

    def test_tampered_audit_copy_rejected(self, tmp_path, rng):
        from conftest import random_classical_hmm
        from volhmm.errors import ValidationError

        model = random_classical_hmm(rng)
        path = tmp_path / "m.json"
        serialize.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["emission"][0][0] += 0.2
        doc["emission"][0][1] -= 0.2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            serialize.load_model(path)


POOL_MODULES_AFTER = textwrap.dedent("""
    import sys
    from volhmm.cli import main

    def pool_modules():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("concurrent", "multiprocessing"))

    print(pool_modules())
    assert main(sys.argv[1:]) == 0
    print(pool_modules())
""")


def test_one_worker_runs_never_import_the_process_pool(tmp_path):
    """A fresh ``import volhmm.cli``, and an llr run on one worker after it, leave
    concurrent.futures and multiprocessing unloaded (about 2 MB of a process's memory)."""
    cfg = TestLlrCommand()._llr_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(volhmm.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", POOL_MODULES_AFTER, "llr", "--config", str(cfg), "--out",
         str(tmp_path / "r"), "--trials", "1", "--workers", "1"],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


FAULTS_OF_TEN_OBJECTIVE_CALLS = textwrap.dedent("""
    import resource
    import numpy as np
    from volhmm import cli
    from volhmm.estimate import ClassicalFitSpec
    from volhmm.volgrid import build_observation_scheme

    cli.main(["bounds", "--config", "missing.json", "--out", "b.json"])  # exits 2, unread
    spec = ClassicalFitSpec("cir", 16, 4, build_observation_scheme(4, 0.5), data_kind="returns")
    objective = spec.objective(np.random.default_rng(0).normal(0.0, 0.3, 200))
    thetas = np.array([[2.2, 0.077, 1.1], [2.0, 0.08, 1.0]])
    objective(thetas)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        objective(thetas)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_main_keeps_block_temporaries_on_the_heap(tmp_path):
    """After main() in a fresh process, ten preset cir objective calls on two rows reuse
    their block temporaries' pages: with glibc's default thresholds they fault them in
    again on every call (about 7,700 minor faults)."""
    env = dict(os.environ, PYTHONPATH=str(Path(volhmm.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FAULTS_OF_TEN_OBJECTIVE_CALLS], env=env,
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    assert int(done.stdout.split()[-1]) < 500
