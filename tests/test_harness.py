import csv
import inspect
import json
import re
import shutil
from dataclasses import MISSING, fields, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridevade import ddpg, detector as det, harness, neural
from gridevade.attack_env import DEFAULT_IMPULSE_DENSITY, AttackConfig, RewardParams
from gridevade.cli import main
from gridevade.grid_traces import TraceScenario, generate_trace, split_dataset
from gridevade.harness import (
    AttackMetrics,
    cmd_report,
    cmd_simulate,
    compute_attack_metrics,
    config_hash,
    derive_seeds,
    load_config,
)

from conftest import DELAY_CASES


FAULT_REFUSAL = ("config key 'scenario.fault_start' ({got}) must lie after the first detector "
                 "window ({first} s) and at or before the last frame (9.9 s), so that windows "
                 "of both labels exist")
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
        ("attack: {access_mask: [false, false, false, false, false, false, false, false, false]}",
         "config key 'attack.access_mask' must allow at least one bus, got [False, False,"),
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
        ("detector: {train_traces: 2, split_ratio: 0.2}",
         "config keys 'detector.split_ratio' * 'detector.train_traces' (0.2 * 2) must round to "
         "at least one training trace"),
        ("detector: {train_traces: 1, split_ratio: 0.5}",
         "config keys 'detector.split_ratio' * 'detector.train_traces' (0.5 * 1) must round to "
         "at least one training trace"),
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
        ("attack: {reward: {k0: .inf}}",
         "config key 'attack.reward.k0' must be a finite number, got inf"),
        ("attack: {reward: {k0: .nan}}",
         "config key 'attack.reward.k0' must be a finite number, got nan"),
        ("attack: {reward: {x_hat: 0}}", "config key 'attack.reward.x_hat' must be > 0, got 0.0"),
        ("attack: {reward: {x_hat: -1}}",
         "config key 'attack.reward.x_hat' must be > 0, got -1.0"),
        ("attack: {action_bounds: [[2.0, 0.05], [0.05, 5.0], [0.0, 3.0]]}",
         "config key 'attack.action_bounds' must have low < high in each pair and omega0 bounds "
         "inside [0, pi), got [[2.0, 0.05], [0.05, 5.0], [0.0, 3.0]]"),
        ("attack: {action_bounds: [[0.05, 2.0], [0.05, 5.0], [0.0, 3.5]]}",
         "config key 'attack.action_bounds' must have low < high in each pair and omega0 bounds "
         "inside [0, pi), got [[0.05, 2.0], [0.05, 5.0], [0.0, 3.5]]"),
        ("attack: {action_bounds: [[0.05, 2.0], [0.05, 5.0], [-0.1, 3.0]]}",
         "config key 'attack.action_bounds' must have low < high in each pair and omega0 bounds "
         "inside [0, pi), got [[0.05, 2.0], [0.05, 5.0], [-0.1, 3.0]]"),
    ])
    def test_bad_attack_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    @pytest.mark.parametrize("text, message", [
        ("scenario: {dt: 0}", "config key 'scenario.dt' must be > 0, got 0.0"),
        ("scenario: {dt: 20}",
         "config key 'scenario.dt' (20.0) must be less than 'scenario.horizon' (10.0)"),
        ("scenario: {dt: 10}",
         "config key 'scenario.dt' (10.0) must be less than 'scenario.horizon' (10.0)"),
        ("scenario: {fault_start: 10}",
         "config key 'scenario.fault_start' (10.0) must be less than 'scenario.horizon' (10.0)"),
        ("scenario: {horizon: 0.5}",
         "config key 'scenario.fault_start' (5.4) must be less than 'scenario.horizon' (0.5)"),
        ("scenario: {fault_start: -1}", "config key 'scenario.fault_start' must be >= 0, got -1.0"),
        ("scenario: {fault_start: 0.85}", FAULT_REFUSAL.format(got=0.85, first=0.9)),
        ("scenario: {fault_start: 9.95}", FAULT_REFUSAL.format(got=9.95, first=0.9)),
        ("{scenario: {fault_start: 0}, detector: {window: 1}}",
         FAULT_REFUSAL.format(got=0.0, first=0)),
        ("scenario: {fault_bus: 12}",
         "config key 'scenario.fault_bus' (12) must be less than the case's bus count (9)"),
        ("scenario: {fault_bus: -1}", "config key 'scenario.fault_bus' must be >= 0, got -1"),
        ("scenario: {fault_depth: -0.1}",
         "config key 'scenario.fault_depth' must be >= 0, got -0.1"),
        ("scenario: {fault_freq: -1.5}", "config key 'scenario.fault_freq' must be >= 0, got -1.5"),
        ("scenario: {fault_damping: -3}",
         "config key 'scenario.fault_damping' must be >= 0, got -3.0"),
        ("scenario: {sensor_noise_std: -0.001}",
         "config key 'scenario.sensor_noise_std' must be >= 0, got -0.001"),
    ])
    def test_bad_scenario_value_names_its_path(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_text(tmp_path, text + "\n")

    def test_scenario_value_limits_are_accepted(self, tmp_path):
        cfg = self.load_text(
            tmp_path, "{scenario: {fault_start: 1.0e-9, fault_bus: 8, fault_depth: 0, "
                      "fault_freq: 0, fault_damping: 0, sensor_noise_std: 0}, "
                      "detector: {window: 1}}\n")
        assert cfg.scenario.fault_start == 1e-9
        assert cfg.scenario.fault_damping == 0.0
        assert cfg.scenario.fault_bus == 8

    @pytest.mark.parametrize("fault_start", [0.85, 0.9, 0.95, 5.4, 9.85, 9.9, 9.95])
    def test_fault_start_is_refused_when_one_label_has_no_window(self, tmp_path,
                                                                 fault_start):
        """load_config refuses a fault start exactly when split_dataset's windows
        of a generated trace would all carry one label."""
        cfg = load_config()
        trace = generate_trace(replace(cfg.scenario, fault_start=fault_start))
        train, _ = split_dataset([trace, trace], cfg.detector_config.window, 0.5)
        one_label = len({label for _, label in train}) < 2
        text = f"scenario: {{fault_start: {fault_start}}}\n"
        if one_label:
            with pytest.raises(ValueError, match="config key 'scenario.fault_start'"):
                self.load_text(tmp_path, text)
        else:
            assert self.load_text(tmp_path, text).scenario.fault_start == fault_start
        assert one_label == (fault_start not in (0.95, 5.4, 9.85, 9.9))

    @pytest.mark.parametrize("traces, ratio", [(1, 0.5), (1, 0.51), (2, 0.2), (2, 0.25),
                                               (2, 0.3), (3, 0.1), (12, 0.04), (12, 0.05)])
    def test_split_is_refused_when_it_leaves_no_training_trace(self, tmp_path, traces, ratio):
        """load_config refuses a split exactly when split_dataset's training set
        would be empty."""
        cfg = load_config()
        trace = generate_trace(cfg.scenario)
        train, _ = split_dataset([trace] * traces, cfg.detector_config.window, ratio)
        text = f"detector: {{train_traces: {traces}, split_ratio: {ratio}}}\n"
        if not train:
            with pytest.raises(ValueError, match="must round to at least one training trace"):
                self.load_text(tmp_path, text)
        else:
            assert self.load_text(tmp_path, text).detector_train_traces == traces

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

    @pytest.mark.parametrize("text, message", [
        ("detector: {epochs: 0}", "error: config key 'detector.epochs' must be >= 1"),
        ("detector: {train_traces: 2, split_ratio: 0.2}",
         "error: config keys 'detector.split_ratio' * 'detector.train_traces' (0.2 * 2)"),
        ("scenario: {fault_start: 9.95}", "error: config key 'scenario.fault_start' (9.95)"),
    ])
    def test_bad_detector_value_fails_via_cli_before_training(self, tmp_path, capsys, text,
                                                              message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        rc = main(["train-detector", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
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

    def test_every_shipped_key_has_a_rule(self):
        """Each leaf key of the shipped config is checked by a `_RULES` row or a
        rule of several keys in `_check_values`, or takes any value of its type;
        the README names each `_RULES` key."""
        several = {"scenario.dt", "scenario.horizon", "scenario.fault_start",
                   "scenario.fault_bus", "detector.window", "detector.train_traces",
                   "detector.split_ratio", "attack.access_mask",
                   "attack.reward.horizon_frames", "training.episodes", "training.batch_size",
                   "training.buffer_capacity", "training.warmup"}
        any_value = {"attack.reward.k0", "attack.reward.penalty_abs"}
        def dotted_leaves(section, prefix=""):
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from dotted_leaves(value, prefix + key + ".")
                else:
                    yield prefix + key

        leaves = set(dotted_leaves(yaml.safe_load(harness._default_config_path().read_text())))
        ruled = {key for key, _, _ in harness._RULES}
        assert ruled | several | any_value <= leaves
        assert not any_value & (ruled | several)
        assert sorted(leaves - ruled - several - any_value) == []
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert sorted(key for key in ruled if f"`{key}`" not in readme) == []

    def test_every_init_field_is_set_from_a_shipped_key(self):
        """A settable field of a config dataclass is a shipped YAML key of its
        section, or one of the values load_config derives; no knob lives
        outside the YAML. Nor does a default: no field or make_agent keyword
        that a shipped key sets has one, but for RewardParams' lam and
        horizon_frames, which equal their shipped values."""
        shipped = yaml.safe_load(harness._default_config_path().read_text())
        derived = {"seed", "case", "reward_params"}
        kept = {"lambda", "horizon_frames"}
        for cls, section in ((AttackConfig, "attack"), (RewardParams, "attack.reward"),
                             (det.DetectorConfig, "detector"), (ddpg.TrainConfig, "training"),
                             (TraceScenario, "scenario")):
            keys = reduce(dict.__getitem__, section.split("."), shipped)
            names = {"lambda" if f.name == "lam" else f.name: f for f in fields(cls) if f.init}
            assert sorted(names.keys() - derived - set(keys)) == [], cls.__name__
            defaulted = {name for name, f in names.items() if name not in derived
                         and (f.default is not MISSING or f.default_factory is not MISSING)}
            assert defaulted == (kept if cls is RewardParams else set()), cls.__name__
        reward = shipped["attack"]["reward"]
        defaults = {f.name: f.default for f in fields(RewardParams)}
        assert (defaults["lam"], defaults["horizon_frames"]) == (
            reward["lambda"], reward["horizon_frames"])
        agent_keys = {"gamma", "tau", "hidden", "actor_lr", "critic_lr"}
        for cls in (ddpg.make_agent, ddpg.DdpgAgent):
            params = inspect.signature(cls).parameters
            assert {name for name in agent_keys if name in params
                    and params[name].default is not inspect.Parameter.empty} == set()
        assert agent_keys <= inspect.signature(ddpg.make_agent).parameters.keys()

    @pytest.mark.parametrize("attr, section", [
        ("scenario", "scenario"), ("detector_config", "detector"),
        ("attack_config", "attack"), ("attack_config.reward_params", "attack.reward"),
        ("train_config", "training")])
    def test_every_field_holds_its_shipped_value(self, attr, section):
        """load_config hands each field the value of its shipped key; a null
        `attack.impulse_density` becomes the default density."""
        cfg = load_config()
        config = reduce(getattr, attr.split("."), cfg)
        keys = reduce(dict.__getitem__, section.split("."), cfg.raw)
        for f in fields(config):
            key = "lambda" if f.name == "lam" else f.name
            if key in ("seed", "case", "reward_params"):
                continue
            want = keys[key]
            if key == "impulse_density" and want is None:
                want = DEFAULT_IMPULSE_DENSITY
            got = getattr(config, f.name)
            assert json.loads(json.dumps(got)) == want, key

    def test_benchmark_reward_params_match_the_shipped_config(self):
        """gridbench builds a RewardParams by hand from k0, x_hat and
        penalty_abs; it still builds, and matches what load_config gives."""
        assert RewardParams(k0=10.0, x_hat=1.0, penalty_abs=True) == \
            load_config().attack_config.reward_params

    def test_benchmark_agent_matches_the_shipped_config(self):
        """gridbench's workloads build an agent with exactly these keywords;
        it still builds, under the shipped `agent` section."""
        cfg = load_config()
        state_dim = 2 * cfg.case.bus_count + 1
        agent = ddpg.make_agent(
            state_dim=state_dim, action_bounds=cfg.attack_config.action_bounds, seed=5,
            hidden=cfg.agent_hidden, gamma=cfg.agent_gamma, tau=cfg.agent_tau,
            actor_lr=cfg.actor_lr, critic_lr=cfg.critic_lr)
        assert agent.actor.layer_sizes == [state_dim, *cfg.agent_hidden, 3]
        assert (agent.gamma, agent.tau) == (cfg.raw["attack"]["reward"]["lambda"],
                                            cfg.raw["agent"]["tau"])
        assert (agent.actor_opt.lr, agent.critic_opt.lr) == (cfg.raw["agent"]["actor_lr"],
                                                             cfg.raw["agent"]["critic_lr"])

    def test_kernel_magnitude_is_not_a_setting(self):
        attack_config = load_config().attack_config
        with pytest.raises(TypeError, match="kernel_magnitude"):
            replace(attack_config, kernel_magnitude=2.0)
        assert attack_config.kernel_magnitude == 1.0

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

    def test_holdout_report_and_none_baseline_share_the_delay(self, fast_config, tmp_path):
        """Both score the clean posteriors of the evaluation seeds. A detector
        trained for 5 epochs reaches a 0.9 threshold frames late, so the mean
        delay is not 0."""
        raw = yaml.safe_load(fast_config.read_text())
        raw["detector"].update(epochs=5, threshold=0.9)
        raw["evaluation"]["episodes"] = 4
        path = tmp_path / "late.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        harness.cmd_train_detector(cfg, tmp_path)
        harness.cmd_evaluate(cfg, tmp_path, baselines=("none",))
        delay = json.loads((tmp_path / "detector_report.json").read_text())["detection_delay"]
        metrics = json.loads((tmp_path / "metrics_none.json").read_text())
        assert delay > 0
        assert metrics["detection_delay_clean"] == delay

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


class TestBenchmarkHooks:
    """gridbench counts DDPG updates and detector mini-batches by wrapping the
    module attributes `ddpg.train_step`, `neural.adam_step` and
    `detector.train_detector`, and reads the train set from the latter's
    first positional argument. An update inlined or renamed loses its count."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_train_attacker_runs_one_train_step_per_update(self, run_dir, tmp_path,
                                                          monkeypatch):
        out, cfg = run_dir
        cfg = replace(cfg, train_restarts=2, train_episodes=2)
        calls = self.count_calls(monkeypatch, ddpg, "train_step")
        harness.cmd_train_attacker(cfg, copy_run(out, tmp_path / "run", ("detector.json",)))
        t_f = (cfg.attack_config.reward_params.horizon_frames
               or cfg.scenario.n_frames - cfg.detector_config.window)
        start = max(cfg.train_config.batch_size, cfg.train_config.warmup)
        assert len(calls) == cfg.train_restarts * (cfg.train_episodes * t_f - start + 1) > 0

    def test_train_detector_runs_one_adam_step_per_minibatch(self, fast_config, tmp_path,
                                                             monkeypatch):
        cfg = load_config(fast_config)
        trainings = self.count_calls(monkeypatch, det, "train_detector")
        steps = self.count_calls(monkeypatch, neural, "adam_step")
        harness.cmd_train_detector(cfg, tmp_path)
        assert len(trainings) == 1
        train_set = trainings[0][0]
        assert all(np.shape(w) == (cfg.detector_config.window, cfg.case.bus_count)
                   and label in (0, 1) for w, label in train_set)
        batches = -(-len(train_set) // cfg.detector_config.batch_size)
        assert len(steps) == cfg.detector_config.epochs * batches > 0


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
                                cfg.attack_config.action_bounds, seed=0,
                                hidden=cfg.agent_hidden, gamma=cfg.agent_gamma,
                                tau=cfg.agent_tau, actor_lr=cfg.actor_lr,
                                critic_lr=cfg.critic_lr)
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


class TestRunAttackEpisode:
    def test_policy_is_called_on_each_flattened_state(self, trained_detector):
        cfg = load_config()
        action = np.array([0.5, 1.0, 0.5])
        want = []
        env = harness._make_env(cfg, trained_detector, seed=3)
        state, done = env.reset(), False
        while not done:
            want.append(state.flatten())
            out = env.step(action)
            state, done = out.next_state, out.done
        seen = []

        def policy(state):
            seen.append(state)
            return action

        harness.run_attack_episode(harness._make_env(cfg, trained_detector, seed=3), policy)
        assert len(seen) == len(want) == 90
        for got, expected in zip(seen, want):
            assert type(got) is np.ndarray and got.tobytes() == expected.tobytes()


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


class TestDetectorCheckpoint:
    """`train-attacker` and `evaluate` refuse, before writing anything, a
    detector.json trained under another window, threshold or bus count."""

    @pytest.mark.parametrize("command", ["cmd_train_attacker", "cmd_evaluate"])
    @pytest.mark.parametrize("key, value, message", [
        ("detector.window", 5, "has window 10, but config key 'detector.window' gives 5"),
        ("detector.threshold", 0.9,
         "has threshold 0.5, but config key 'detector.threshold' gives 0.9"),
        ("case_file", "case5.txt", "has bus_count 9, but config key 'case_file' gives 5"),
    ], ids=["window", "threshold", "bus_count"])
    def test_mismatched_checkpoint_is_refused(self, run_dir, fast_config, tmp_path,
                                              command, key, value, message):
        names = ["actor.json", "detector.json"]
        fresh = copy_run(run_dir[0], tmp_path / "run", names)
        if key == "case_file":
            value = str(tmp_path / value)
            Path(value).write_text("bus_count = 5\nnominal_voltage = 1.0, 1.0, 1.0, 1.0, 1.0\n"
                                   "fault_coupling = 0.5, 0.5, 0.5, 0.5, 1.0\n")
        raw = yaml.safe_load(fast_config.read_text())
        *section, leaf = key.split(".")
        reduce(dict.__getitem__, section, raw)[leaf] = value
        path = tmp_path / "changed.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(harness, command)(load_config(path), fresh)
        assert sorted(p.name for p in fresh.iterdir()) == names


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

    @pytest.mark.parametrize("labels, flagged, delay", DELAY_CASES)
    def test_delays_follow_detection_delay(self, labels, flagged, delay):
        run = self.run(np.where(flagged, 0.8, 0.3))
        run["label"] = np.array(labels)
        m = compute_attack_metrics([run], threshold=0.5)
        assert m.detection_delay_attacked == delay
        assert m.detection_delay_clean == (0.0 if 1 in labels else None)

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
