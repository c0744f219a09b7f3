import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridevade import ddpg, harness, neural
from gridevade.cli import main
from gridevade.grid_traces import generate_trace
from gridevade.harness import (
    AttackMetrics,
    cmd_report,
    cmd_simulate,
    compute_attack_metrics,
    config_hash,
    derive_seeds,
    load_config,
)


HORIZON_REFUSAL = ("config key 'attack.reward.horizon_frames' must be null or an int from 1 "
                   "to {steps}, the frames a trace has after its first detector window; "
                   "got {got}")


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

    @pytest.mark.parametrize("text, message", [
        ("training: {restarts: 0}", "config key 'training.restarts' must be >= 1, got 0"),
        ("training: {restarts: -2}", "config key 'training.restarts' must be >= 1, got -2"),
        ("training: {batch_size: 65, buffer_capacity: 64}",
         "config key 'training.batch_size' (65) must not exceed 'training.buffer_capacity' (64)"),
        ("training: {sigma_start: -1}", "config key 'training.sigma_start' must be >= 0, got -1.0"),
        ("training: {sigma_end: -0.01}", "config key 'training.sigma_end' must be >= 0, got -0.01"),
        ("training: {sigma_start: .nan}",
         "config key 'training.sigma_start' must be a finite number, got nan"),
        ("training: {sigma_end: .inf}",
         "config key 'training.sigma_end' must be a finite number, got inf"),
        ("training: {batch_size: 0}", "config key 'training.batch_size' must be >= 1, got 0"),
        ("training: {episodes: -1}", "config key 'training.episodes' must be >= 0, got -1"),
        ("training: {warmup: -1}", "config key 'training.warmup' must be >= 0, got -1"),
        # No update can run: train_step waits for max(batch_size, warmup)
        # transitions, and the buffer never holds that many.
        ("training: {episodes: 2}",
         "config key 'training.warmup' (256) must not exceed the 180 transitions"),
        ("training: {warmup: 300, buffer_capacity: 299}",
         "config key 'training.warmup' (300) must not exceed the 299 transitions"),
        ("training: {episodes: 1, warmup: 0, batch_size: 100}",
         "config key 'training.batch_size' (100) must not exceed the 90 transitions"),
        ("{attack: {reward: {horizon_frames: 40}}, training: {episodes: 6}}",
         "config key 'training.warmup' (256) must not exceed the 240 transitions"),
    ])
    def test_impossible_training_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text, steps, got", [
        ("attack: {reward: {horizon_frames: 91}}", 90, "91"),
        ("attack: {reward: {horizon_frames: 5000}}", 90, "5000"),
        ("{scenario: {horizon: 8.0}, attack: {reward: {horizon_frames: 71}}}", 70, "71"),
        ("attack: {reward: {horizon_frames: 0}}", 90, "0"),
        ("attack: {reward: {horizon_frames: 2.5}}", 90, "2.5"),
        ("attack: {reward: {horizon_frames: true}}", 90, "True"),
        ("attack: {reward: {horizon_frames: ten}}", 90, "'ten'"),
    ])
    def test_horizon_past_the_trace_names_its_path(self, tmp_path, text, steps, got):
        message = HORIZON_REFUSAL.format(steps=steps, got=got)
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text", [
        "attack: {reward: {horizon_frames: 90}}",
        "training: {episodes: 3, warmup: 270}",
        "{attack: {reward: {horizon_frames: 32}}, training: {episodes: 8}}",
        "training: {episodes: 0, warmup: 100000}",
    ])
    def test_run_length_limits_are_accepted(self, tmp_path, text):
        self.load_text(tmp_path, text + "\n")

    def test_training_value_limits_are_accepted(self, tmp_path):
        cfg = self.load_text(
            tmp_path, "training: {restarts: 1, batch_size: 64, buffer_capacity: 64, "
                      "warmup: 64, sigma_start: 0, sigma_end: 0}\n")
        assert cfg.train_restarts == 1
        assert cfg.train_config.batch_size == cfg.train_config.buffer_capacity == 64
        assert cfg.train_config.sigma_start == cfg.train_config.sigma_end == 0.0

    @pytest.mark.parametrize("text, message", [
        ("attack: {access_mask: 3}",
         "config key 'attack.access_mask' must be null or a list of 9 bools, got 3"),
        ("attack: {access_mask: [true, false, true]}",
         "config key 'attack.access_mask' must be null or a list of 9 bools, "
         "got [True, False, True]"),
        ("attack: {access_mask: [1, 1, 1, 1, 1, 1, 1, 1, 1]}",
         "config key 'attack.access_mask' must be null or a list of 9 bools, got [1, 1,"),
        ("attack: {impulse_density: abc}",
         "config key 'attack.impulse_density' must be null or a number > 0, got 'abc'"),
        ("attack: {impulse_density: 0}",
         "config key 'attack.impulse_density' must be null or a number > 0, got 0"),
        ("attack: {impulse_density: true}",
         "config key 'attack.impulse_density' must be null or a number > 0, got True"),
        ("case_file: 5", "config key 'case_file' must be null or a file name, got 5"),
        ("case_file: ''", "config key 'case_file' must be null or a file name, got ''"),
        ("evaluation: {episodes: 0}", "config key 'evaluation.episodes' must be >= 1, got 0"),
        ("attack: {field_seed: -1}", "config key 'attack.field_seed' must be >= 0, got -1"),
        ("master_seed: -1", "config key 'master_seed' must be >= 0, got -1"),
    ])
    def test_bad_value_of_null_default_key_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text, message", [
        ("detector: {window: 0}", "config key 'detector.window' must be from 1 to 99, one less "
                                  "than the frames of a trace; got 0"),
        ("detector: {window: 100}", "config key 'detector.window' must be from 1 to 99, one less "
                                    "than the frames of a trace; got 100"),
        ("{scenario: {horizon: 8.0}, detector: {window: 80}, training: {episodes: 0}}",
         "config key 'detector.window' must be from 1 to 79, one less than the frames of a "
         "trace; got 80"),
        ("detector: {epochs: 0}", "config key 'detector.epochs' must be >= 1, got 0"),
        ("detector: {batch_size: 0}", "config key 'detector.batch_size' must be >= 1, got 0"),
        ("detector: {train_traces: 0}", "config key 'detector.train_traces' must be >= 1, got 0"),
        ("detector: {hidden: [64, 0]}",
         "config key 'detector.hidden' must be a list of ints >= 1, got [64, 0]"),
        ("detector: {hidden: [64, 2.5]}",
         "config key 'detector.hidden' must be a list of ints >= 1, got [64, 2.5]"),
        ("detector: {learning_rate: 0}",
         "config key 'detector.learning_rate' must be > 0, got 0.0"),
        ("detector: {learning_rate: -0.001}",
         "config key 'detector.learning_rate' must be > 0, got -0.001"),
        ("detector: {learning_rate: .inf}",
         "config key 'detector.learning_rate' must be a finite number, got inf"),
        ("detector: {threshold: 1.5}", "config key 'detector.threshold' must lie in (0, 1), got 1.5"),
        ("detector: {threshold: 0}", "config key 'detector.threshold' must lie in (0, 1), got 0.0"),
        ("detector: {split_ratio: 1}",
         "config key 'detector.split_ratio' must lie in (0, 1), got 1.0"),
        ("detector: {split_ratio: -0.5}",
         "config key 'detector.split_ratio' must lie in (0, 1), got -0.5"),
    ])
    def test_bad_detector_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text, message", [
        ("agent: {tau: 0}", "config key 'agent.tau' must lie in (0, 1], got 0.0"),
        ("agent: {tau: 1.5}", "config key 'agent.tau' must lie in (0, 1], got 1.5"),
        ("agent: {hidden: [0]}", "config key 'agent.hidden' must be a list of ints >= 1, got [0]"),
        ("agent: {hidden: [64, 2.5]}",
         "config key 'agent.hidden' must be a list of ints >= 1, got [64, 2.5]"),
        ("agent: {actor_lr: -1}", "config key 'agent.actor_lr' must be > 0, got -1.0"),
        ("agent: {critic_lr: 0}", "config key 'agent.critic_lr' must be > 0, got 0.0"),
        ("agent: {actor_lr: .inf}", "config key 'agent.actor_lr' must be a finite number, got inf"),
        ("agent: {critic_lr: .inf}",
         "config key 'agent.critic_lr' must be a finite number, got inf"),
    ])
    def test_bad_agent_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text, message", [
        ("attack: {epsilon: 0}", "config key 'attack.epsilon' must be > 0, got 0.0"),
        ("attack: {epsilon: -0.01}", "config key 'attack.epsilon' must be > 0, got -0.01"),
        ("attack: {action_bounds: [[.nan, 2.0], [0.05, 5.0], [0.0, 3.0]]}",
         "config key 'attack.action_bounds' must be 3 [low, high] pairs of finite numbers, "
         "got [[nan, 2.0], [0.05, 5.0], [0.0, 3.0]]"),
        ("attack: {action_bounds: [[0.05, 2.0], [0.05, .inf], [0.0, 3.0]]}",
         "config key 'attack.action_bounds' must be 3 [low, high] pairs of finite numbers, "
         "got [[0.05, 2.0], [0.05, inf], [0.0, 3.0]]"),
        ("attack: {action_bounds: [[0.05, 2.0], [0.05, 5.0]]}",
         "config key 'attack.action_bounds' must be 3 [low, high] pairs of finite numbers, "
         "got [[0.05, 2.0], [0.05, 5.0]]"),
        ("attack: {action_bounds: [[0.05, 2.0], [0.05, five], [0.0, 3.0]]}",
         "config key 'attack.action_bounds' must be 3 [low, high] pairs of finite numbers, "
         "got [[0.05, 2.0], [0.05, 'five'], [0.0, 3.0]]"),
        ("attack: {field_seed_policy: bogus}",
         "config key 'attack.field_seed_policy' must be one of fixed, per-episode, per-step, "
         "got 'bogus'"),
        ("attack: {reward: {lambda: 1.5}}",
         "config key 'attack.reward.lambda' must lie in (0, 1], got 1.5"),
        ("attack: {reward: {lambda: 0}}",
         "config key 'attack.reward.lambda' must lie in (0, 1], got 0.0"),
    ])
    def test_bad_attack_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    def test_attack_value_limits_are_accepted(self, tmp_path):
        cfg = self.load_text(
            tmp_path, "attack: {epsilon: 1.0e-9, field_seed_policy: per-step, "
                      "action_bounds: [[0, 1], [0, 1], [0, 1]], reward: {lambda: 1}}\n")
        assert cfg.attack_config.epsilon == 1e-9
        assert cfg.attack_config.field_seed_policy == "per-step"
        assert cfg.attack_config.action_bounds == ((0, 1), (0, 1), (0, 1))
        assert cfg.agent_gamma == 1.0

    def test_agent_value_limits_are_accepted(self, tmp_path):
        cfg = self.load_text(
            tmp_path, "agent: {tau: 1, hidden: [1], actor_lr: 1.0e-9, critic_lr: 1.0e-9}\n")
        assert cfg.agent_tau == 1.0
        assert cfg.agent_hidden == (1,)
        assert cfg.actor_lr == cfg.critic_lr == 1e-9

    def test_detector_value_limits_are_accepted(self, tmp_path):
        cfg = self.load_text(
            tmp_path, "detector: {window: 1, epochs: 1, batch_size: 1, hidden: [1], "
                      "learning_rate: 1.0e-9, threshold: 0.001, split_ratio: 0.999}\n")
        assert cfg.detector_config.window == 1
        assert cfg.detector_config.hidden == (1,)
        assert cfg.detector_split_ratio == 0.999

    def test_bad_detector_value_fails_via_cli_before_training(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("detector: {epochs: 0}\n")
        rc = main(["train-detector", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: config key 'detector.epochs' must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_default_key_values_are_accepted(self, tmp_path):
        mask = [True, False] + [True] * 7
        cfg = self.load_text(
            tmp_path, f"attack: {{access_mask: {json.dumps(mask)}, impulse_density: 20}}\n")
        assert cfg.attack_config.access_mask.tolist() == mask
        assert cfg.attack_config.impulse_density == 20.0
        assert cfg.eval_episodes == 10

    def test_readme_names_every_refused_key(self):
        """Every config key that a value-refusal case above names is in the README."""
        def dotted(section, prefix=""):
            for key, value in section.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from dotted(value, prefix + key + ".")

        known = set(dotted(yaml.safe_load(harness._default_config_path().read_text())))
        messages = [HORIZON_REFUSAL] + [
            case[1] for name, test in vars(TestConfig).items()
            if name != "test_bad_key_names_its_path"
            for mark in getattr(test, "pytestmark", [])
            if mark.name == "parametrize" and "message" in mark.args[0]
            for case in mark.args[1]]
        named = {key for m in messages for key in re.findall(r"'([^']*)'", m)} & known
        assert {"master_seed", "detector.window", "training.buffer_capacity",
                "attack.reward.horizon_frames"} <= named
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert sorted(key for key in named if f"`{key}`" not in readme) == []

    def test_unknown_key_fails_via_cli(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("training:\n  restrats: 2\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: unknown config key 'training.restrats'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCsvWriter:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        harness._write_csv(path, {"time": np.array([0.1, 1 / 3]), "bus": [0, 7],
                                  "value": [1.0, -2.5e-13]})
        assert path.read_bytes() == (b"time,bus,value\r\n"
                                     b"0.1,0,1\r\n"
                                     b"0.333333333333,7,-2.5e-13\r\n")

    def test_columns_of_unequal_length_raise(self, tmp_path):
        with pytest.raises(ValueError, match="shorter"):
            harness._write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})

    def test_per_bus_rows_run_by_time_then_bus(self):
        cols = harness._per_bus(np.array([0.0, 0.1]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                                label=np.array([0, 1]))
        assert list(cols) == ["time", "bus", "value", "label"]
        assert cols["time"].tolist() == [0.0, 0.0, 0.1, 0.1]
        assert cols["bus"].tolist() == [0, 1, 0, 1]
        assert cols["value"].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert cols["label"].tolist() == [0, 0, 1, 1]


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

    def test_trace_csv_reads_back_as_the_trace(self, fast_config, tmp_path):
        cfg = load_config(fast_config)
        trace = generate_trace(cfg.scenario)
        with open(cmd_simulate(cfg, tmp_path)[0], newline="") as fh:
            _, *rows = csv.reader(fh)
        shape = trace.frames.shape
        time, bus, value = (np.array([float(r[k]) for r in rows]).reshape(shape)
                            for k in range(3))
        label = np.array([int(r[3]) for r in rows]).reshape(shape)
        assert np.array_equal(bus, np.broadcast_to(np.arange(shape[1]), shape))
        assert np.allclose(time, trace.times[:, None], rtol=1e-9, atol=0)
        assert np.allclose(value, trace.frames, rtol=1e-9, atol=0)
        assert np.array_equal(label, np.broadcast_to(trace.labels[:, None], shape))

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
    cmd_simulate(cfg, out)
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

    def test_rerun_evaluate_identical_metrics(self, run_dir, tmp_path):
        """The four commands rerun into a fresh directory write the same bytes."""
        out, cfg = run_dir
        cmd_report(out)
        fresh = tmp_path / "rerun"
        cmd_simulate(cfg, fresh)
        harness.cmd_train_detector(cfg, fresh)
        harness.cmd_train_attacker(cfg, fresh)
        harness.cmd_evaluate(cfg, fresh)
        cmd_report(fresh)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        assert len(names) == 21
        for name in names:
            assert (fresh / name).read_bytes() == (out / name).read_bytes(), name


def copy_run(run_dir, dest, names=("detector.json", "actor.json")):
    """A fresh directory holding only the named files of a trained run."""
    dest.mkdir()
    for name in names:
        shutil.copy(run_dir / name, dest / name)
    return dest


class TestEvaluateInputs:
    """What `evaluate` reads and what it refuses before it writes anything."""

    def test_outputs_do_not_depend_on_the_critic(self, run_dir, tmp_path):
        out, cfg = run_dir
        fresh = copy_run(out, tmp_path / "actor-only")
        assert not (fresh / "critic.json").exists()
        harness.cmd_evaluate(cfg, fresh)
        manifest = json.loads((out / "manifest_evaluate.json").read_text())
        names = ["manifest_evaluate.json", *manifest["outputs"]]
        assert len(names) == 10
        assert sorted(p.name for p in fresh.iterdir()) == sorted(
            names + ["detector.json", "actor.json"])
        for name in names:
            assert (fresh / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("arg, shown", [("none,bogus", "['none', 'bogus']"), ("", "[]"),
                                            ("none,none", "['none', 'none']")])
    def test_bad_baselines_are_refused_before_any_run(self, run_dir, tmp_path, capsys,
                                                      arg, shown):
        fresh = copy_run(run_dir[0], tmp_path / "run")
        rc = main(["evaluate", "--out", str(fresh), "--baselines", arg])
        assert rc == 1
        err = capsys.readouterr().err
        assert "none, random_hyperparams, trained_agent" in err
        assert f"got {shown}" in err
        assert sorted(p.name for p in fresh.iterdir()) == ["actor.json", "detector.json"]

    def test_actor_of_other_action_bounds_is_refused(self, run_dir, fast_config, tmp_path):
        names = ["actor.json", "critic.json", "detector.json"]
        fresh = copy_run(run_dir[0], tmp_path / "run", names)
        raw = yaml.safe_load(fast_config.read_text())
        raw["attack"]["action_bounds"][2] = [0.0, 1.5]
        path = tmp_path / "bounds.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ValueError, match=re.escape(
                "config key 'attack.action_bounds' is [[0.05, 2.0], [0.05, 5.0], [0.0, 1.5]]")):
            harness.cmd_evaluate(load_config(path), fresh)
        assert sorted(p.name for p in fresh.iterdir()) == names

    def test_actor_of_other_state_size_is_refused(self, run_dir, tmp_path):
        out, cfg = run_dir
        fresh = copy_run(out, tmp_path / "run", names=("detector.json",))
        _, meta = neural.load_checkpoint(out / "actor.json")
        actor = neural.init_mlp([5, 8, 3], ["relu", "tanh"], seed=0)
        neural.save_checkpoint(actor, fresh / "actor.json", extra=meta)
        with pytest.raises(ValueError, match="takes 5 inputs, but the 9-bus case gives "
                                             "states of 19"):
            harness.cmd_evaluate(cfg, fresh)
        assert sorted(p.name for p in fresh.iterdir()) == ["actor.json", "detector.json"]

    def test_missing_actor_is_refused(self, run_dir, tmp_path):
        out, cfg = run_dir
        fresh = copy_run(out, tmp_path / "run", names=("detector.json",))
        with pytest.raises(FileNotFoundError, match="actor.json"):
            harness.cmd_evaluate(cfg, fresh)
        harness.cmd_evaluate(cfg, fresh, baselines=("none",))
        assert (fresh / "metrics_none.json").exists()


class TestEvaluateBaseline:
    def test_episode_count_is_taken_as_given(self, trained_detector):
        cfg = load_config()
        _, runs = harness.evaluate_baseline(cfg, trained_detector, "none", episodes=1)
        assert len(runs) == 1
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            harness.evaluate_baseline(cfg, trained_detector, "none", episodes=0)

    def test_baselines_share_the_horizon(self, trained_detector, tmp_path):
        p = tmp_path / "horizon.yaml"
        p.write_text(yaml.safe_dump({"attack": {"reward": {"horizon_frames": 40}}}))
        cfg = load_config(p)
        agent = ddpg.make_agent(2 * cfg.case.bus_count + 1,
                                cfg.attack_config.action_bounds, seed=0)
        runs = []
        for baseline in harness.BASELINES:
            _, (run,) = harness.evaluate_baseline(cfg, trained_detector, baseline,
                                                  agent=agent, episodes=1)
            assert {len(v) for v in run.values()} == {40}
            runs.append(run)
        assert np.array_equal(runs[0]["frame"], np.arange(10, 50))
        schema = {k: (v.dtype, v.shape) for k, v in runs[0].items()}
        assert len(schema) == 10
        for run in runs:
            assert np.array_equal(run["frame"], runs[0]["frame"])
            assert {k: (v.dtype, v.shape) for k, v in run.items()} == schema


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
