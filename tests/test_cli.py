import json

import numpy as np
import pytest

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

    def test_missing_out_directory_fails_before_fitting(self, tmp_path, monkeypatch, capsys):
        from volhmm import estimate

        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "d.csv"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        calls = []
        monkeypatch.setattr(estimate, "fit_classical", lambda *a, **kw: calls.append(a))
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
