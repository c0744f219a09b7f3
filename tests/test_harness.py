import json
import re

import numpy as np
import pytest
import yaml

from gridevade import harness
from gridevade.cli import main
from gridevade.harness import (
    AttackMetrics,
    cmd_report,
    cmd_simulate,
    compute_attack_metrics,
    config_hash,
    derive_seeds,
    load_config,
)


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    """Shipped defaults shrunk for test runtime."""
    raw = yaml.safe_load(
        (harness._default_config_path()).read_text())
    raw["detector"]["epochs"] = 25
    raw["detector"]["train_traces"] = 8
    raw["training"]["episodes"] = 4
    raw["training"]["restarts"] = 1
    raw["training"]["warmup"] = 64
    raw["evaluation"]["episodes"] = 2
    p = tmp_path_factory.mktemp("cfg") / "config.yaml"
    p.write_text(yaml.safe_dump(raw))
    return p


class TestConfig:
    def test_default_config_loads(self):
        cfg = load_config()
        assert cfg.case.bus_count == 9
        assert cfg.scenario.fault_start == 5.4
        assert cfg.attack_config.epsilon == 0.01

    def test_seed_override_changes_hash(self):
        a = load_config(seed_override=1)
        b = load_config(seed_override=2)
        assert a.hash != b.hash

    def test_hash_stable(self):
        raw = {"b": 2, "a": 1}
        assert config_hash(raw) == config_hash({"a": 1, "b": 2})

    def test_derived_seed_streams_disjoint(self):
        train = set(derive_seeds(0, harness._SEED_TRACE, 50))
        evals = set(derive_seeds(0, harness._SEED_EVAL, 50))
        assert not (train & evals)

    @staticmethod
    def load_text(tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return load_config(path)

    def test_partial_yaml_resolves_to_shipped(self, tmp_path):
        shipped = load_config()
        partial = self.load_text(tmp_path, "master_seed: 20240817\n")
        assert partial.train_restarts == 6
        assert partial.attack_config.field_seed_policy == "fixed"
        assert repr(partial) == repr(shipped)
        assert partial.hash == shipped.hash

    def test_int_for_float_resolves_to_float(self, tmp_path):
        as_int = self.load_text(tmp_path, "scenario: {horizon: 10}\n")
        as_float = self.load_text(tmp_path, "scenario: {horizon: 10.0}\n")
        assert as_int.scenario.horizon == 10.0
        assert isinstance(as_int.scenario.horizon, float)
        assert repr(as_int) == repr(as_float)
        assert as_int.hash == as_float.hash

    @pytest.mark.parametrize("text, message", [
        ("training: {restrats: 2}", "unknown config key 'training.restrats'"),
        ("attack: {reward: {lam: 0.9}}", "unknown config key 'attack.reward.lam'"),
        ("seed: 3", "unknown config key 'seed'"),
        ("scenario: 3", "config section 'scenario' must be a mapping"),
        ("- 1", "config section '<root>' must be a mapping"),
        ("training: {restarts: two}", "config key 'training.restarts' must be int"),
        ("attack: {reward: {penalty_abs: 1}}", "config key 'attack.reward.penalty_abs' must be bool"),
    ])
    def test_bad_key_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    def test_unknown_key_fails_via_cli(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("training:\n  restrats: 2\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: unknown config key 'training.restrats'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_writes_trace_and_manifest(self, fast_config, tmp_path):
        cfg = load_config(fast_config)
        paths = cmd_simulate(cfg, tmp_path)
        assert paths[0].exists()
        header = paths[0].read_text().splitlines()
        assert header[0] == "time,bus,value,label"
        # 9 bus rows per frame
        assert (len(header) - 1) % 9 == 0
        manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
        assert manifest["config_hash"] == cfg.hash

    def test_byte_identical_on_rerun(self, fast_config, tmp_path):
        cfg = load_config(fast_config)
        p1 = cmd_simulate(cfg, tmp_path / "a")[0]
        p2 = cmd_simulate(cfg, tmp_path / "b")[0]
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_fault_bus_fails_via_cli(self, fast_config, tmp_path):
        raw = yaml.safe_load(fast_config.read_text())
        raw["scenario"]["fault_bus"] = 12
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc != 0


@pytest.fixture(scope="module")
def run_dir(fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(fast_config)
    model, report, loss = harness.cmd_train_detector(cfg, out)
    assert report.frame_accuracy > 0.9
    harness.cmd_train_attacker(cfg, out)
    harness.cmd_evaluate(cfg, out)
    return out, cfg


class TestPipeline:
    """End-to-end: detector -> attacker -> evaluate -> report (fast settings)."""

    def test_detector_outputs(self, run_dir):
        out, _ = run_dir
        assert (out / "detector.json").exists()
        doc = json.loads((out / "detector_report.json").read_text())
        assert set(doc) >= {"frame_accuracy", "false_positive_rate", "detection_delay"}
        lines = (out / "clean_posterior.csv").read_text().splitlines()
        assert lines[0] == "time,posterior,label"

    def test_posterior_csv_row_count(self, run_dir):
        out, cfg = run_dir
        lines = (out / "clean_posterior.csv").read_text().splitlines()
        frames = int(round(cfg.scenario.horizon / cfg.scenario.dt))
        per_trace = frames - cfg.detector_config.window + 1
        assert len(lines) - 1 == per_trace * cfg.eval_episodes

    def test_attacker_outputs(self, run_dir):
        out, cfg = run_dir
        assert (out / "actor.json").exists() and (out / "critic.json").exists()
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "episode,return,discounted_return,critic_loss"
        assert len(lines) - 1 == cfg.train_episodes

    def test_metrics_files_schema(self, run_dir):
        out, cfg = run_dir
        for name in ("none", "random_hyperparams", "trained_agent"):
            doc = json.loads((out / f"metrics_{name}.json").read_text())
            assert set(doc) == {
                "clean_accuracy", "attacked_accuracy", "evasion_success_rate",
                "mean_posterior_drop", "max_abs_perturbation",
                "detection_delay_clean", "detection_delay_attacked",
                "config_hash", "seed"}
            assert doc["config_hash"] == cfg.hash
            assert doc["max_abs_perturbation"] <= cfg.attack_config.epsilon

    def test_baseline_none_attacked_equals_clean(self, run_dir):
        out, _ = run_dir
        doc = json.loads((out / "metrics_none.json").read_text())
        assert doc["attacked_accuracy"] == doc["clean_accuracy"]
        assert doc["mean_posterior_drop"] == 0.0
        assert doc["max_abs_perturbation"] == 0.0

    def test_figure_csvs_written(self, run_dir):
        out, _ = run_dir
        for name in ("fig_clean_voltages", "fig_clean_posterior", "fig_perturbation",
                     "fig_compromised_voltages", "fig_attacked_posterior"):
            assert (out / f"{name}.csv").exists(), name

    def test_episode_log_schema(self, run_dir):
        out, _ = run_dir
        lines = (out / "episode_log.csv").read_text().splitlines()
        assert lines[0] == "frame,time,reward,c,clean_posterior,attacked_posterior,max_abs_n"

    def test_report_includes_all_metric_fields(self, run_dir):
        out, _ = run_dir
        text = cmd_report(out)
        for f in ("clean_accuracy", "attacked_accuracy", "evasion_success_rate",
                  "mean_posterior_drop", "max_abs_perturbation",
                  "detection_delay_clean", "detection_delay_attacked"):
            assert f in text
        assert (out / "summary.md").exists()

    def test_rerun_evaluate_identical_metrics(self, run_dir, fast_config, tmp_path):
        out, cfg = run_dir
        before = (out / "metrics_trained_agent.json").read_bytes()
        harness.cmd_evaluate(cfg, out)
        assert (out / "metrics_trained_agent.json").read_bytes() == before


class TestEvaluateBaseline:
    def test_episode_count_is_taken_as_given(self, trained_detector):
        cfg = load_config()
        _, runs = harness.evaluate_baseline(cfg, trained_detector, "none", episodes=1)
        assert len(runs) == 1
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            harness.evaluate_baseline(cfg, trained_detector, "none", episodes=0)


class TestMissingArtifacts:
    def test_evaluate_without_detector(self, fast_config, tmp_path):
        cfg = load_config(fast_config)
        with pytest.raises(FileNotFoundError, match="detector"):
            harness.cmd_evaluate(cfg, tmp_path)

    def test_train_attacker_without_detector(self, fast_config, tmp_path):
        cfg = load_config(fast_config)
        with pytest.raises(FileNotFoundError, match="detector"):
            harness.cmd_train_attacker(cfg, tmp_path)

    def test_report_empty_dir_names_expected_files(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="metrics_"):
            cmd_report(tmp_path)

    def test_cli_exit_codes(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) != 0


class TestMetricsComputation:
    def run(self, attacked):
        n = 10
        labels = np.array([0] * 5 + [1] * 5)
        clean = np.array([0.1] * 5 + [0.9] * 5)
        return {
            "frame": np.arange(n), "time": np.arange(n) * 0.1,
            "label": labels, "reward": np.zeros(n), "c": np.zeros(n),
            "clean_posterior": clean, "attacked_posterior": attacked,
            "max_abs_n": np.full(n, 0.004),
            "perturbations": np.zeros((n, 2)), "compromised_frames": np.zeros((n, 2)),
        }

    def test_full_evasion(self):
        attacked = np.array([0.1] * 5 + [0.2] * 5)
        m = compute_attack_metrics([self.run(attacked)], threshold=0.5)
        assert m.evasion_success_rate == 1.0
        assert m.mean_posterior_drop == pytest.approx(0.7)
        assert m.detection_delay_attacked is None
        assert m.detection_delay_clean == 0.0

    def test_no_evasion(self):
        attacked = np.array([0.1] * 5 + [0.9] * 5)
        m = compute_attack_metrics([self.run(attacked)], threshold=0.5)
        assert m.evasion_success_rate == 0.0
        assert m.attacked_accuracy == 1.0

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            AttackMetrics(clean_accuracy=1.5, attacked_accuracy=1.0,
                          evasion_success_rate=0.0, mean_posterior_drop=0.0,
                          max_abs_perturbation=0.0, detection_delay_clean=None,
                          detection_delay_attacked=None)
