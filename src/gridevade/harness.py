"""Pipeline orchestration: config loading, commands, metrics, exports.

All randomness is derived from a single master seed through fixed-purpose
seed sequences, so every command is idempotent given identical config and
seed. Evaluation seeds live in a different purpose stream than training
seeds and never collide.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from . import ddpg, detector as det, neural
from .attack_env import (
    ACTION_DIM,
    DEFAULT_IMPULSE_DENSITY,
    FIELD_SEED_POLICIES,
    AttackConfig,
    AttackEnv,
    RewardParams,
)
from .grid_traces import (
    BusCase,
    TraceScenario,
    default_case,
    generate_trace,
    load_case,
    split_dataset,
)

__all__ = [
    "RunConfig",
    "AttackMetrics",
    "load_config",
    "config_hash",
    "cmd_simulate",
    "cmd_train_detector",
    "cmd_train_attacker",
    "cmd_evaluate",
    "cmd_report",
    "run_attack_episode",
    "compute_attack_metrics",
    "random_policy",
    "trained_policy",
]

# Purpose codes for seed derivation; keeps training and evaluation
# randomness in provably disjoint streams.
_SEED_TRACE = 1
_SEED_DETECTOR = 2
_SEED_AGENT = 3
_SEED_ATTACK_TRAIN = 4
_SEED_EVAL = 5
_SEED_VALIDATE = 6


def derive_seeds(master_seed: int, purpose: int, n: int) -> list[int]:
    ss = np.random.SeedSequence([master_seed, purpose])
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class RunConfig:
    raw: dict
    master_seed: int
    case: BusCase
    scenario: TraceScenario
    detector_config: det.DetectorConfig
    detector_train_traces: int
    detector_split_ratio: float
    attack_config: AttackConfig
    agent_hidden: tuple
    agent_gamma: float
    agent_tau: float
    actor_lr: float
    critic_lr: float
    train_config: ddpg.TrainConfig
    train_episodes: int
    train_restarts: int
    eval_episodes: int

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _default_config_path() -> Path:
    from importlib import resources
    with resources.as_file(resources.files("gridevade.data") / "default_config.yaml") as p:
        return Path(p)


def _resolve(shipped: dict, user, path: str = "") -> dict:
    """Lay `user` over `shipped` key by key; keys `shipped` lacks are errors.

    A value takes the type of the shipped value it replaces (an int given
    for a float becomes that float); null-valued shipped keys take any value
    here, and `load_config` checks their values.
    """
    if not isinstance(user, dict):
        raise ValueError(f"config section '{path or '<root>'}' must be a mapping, got {user!r}")
    resolved = dict(shipped)
    for key, value in user.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in shipped:
            raise ValueError(f"unknown config key '{where}'")
        default = shipped[key]
        if isinstance(default, dict):
            value = _resolve(default, value, where)
        elif isinstance(default, float) and type(value) is int:
            value = float(value)
        elif default is not None and type(value) is not type(default):
            raise ValueError(
                f"config key '{where}' must be {type(default).__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key '{where}' must be a finite number, got {value!r}")
        resolved[key] = value
    return resolved


def _at_least(bound):
    return (lambda value: value >= bound), f"be >= {bound}"


_POSITIVE = (lambda value: value > 0), "be > 0"
_LAYER_SIZES = (lambda sizes: all(type(h) is int and h >= 1 for h in sizes),
                "be a list of ints >= 1")

# Rules on one key each, as (dotted key, test, requirement): a value the test
# rejects is refused as "config key '<key>' must <requirement>, got <value>".
_RULES = (
    ("master_seed", *_at_least(0)),
    ("case_file", lambda name: name is None or (type(name) is str and name != ""),
     "be null or a file name"),
    ("scenario.dt", *_POSITIVE),
    ("scenario.fault_start", *_at_least(0)),
    ("scenario.fault_depth", *_at_least(0)),
    ("scenario.fault_freq", *_at_least(0)),
    ("scenario.fault_damping", *_at_least(0)),
    ("scenario.sensor_noise_std", *_at_least(0)),
    ("detector.hidden", *_LAYER_SIZES),
    ("detector.threshold", lambda p: 0 < p < 1, "lie in (0, 1)"),
    ("detector.epochs", *_at_least(1)),
    ("detector.batch_size", *_at_least(1)),
    ("detector.learning_rate", *_POSITIVE),
    ("detector.train_traces", *_at_least(1)),
    ("detector.split_ratio", lambda p: 0 < p < 1, "lie in (0, 1)"),
    ("attack.epsilon", *_POSITIVE),
    ("attack.action_bounds", lambda bounds: len(bounds) == ACTION_DIM and all(
        type(pair) is list and len(pair) == 2
        and all(type(b) in (int, float) and math.isfinite(b) for b in pair) for pair in bounds),
     f"be {ACTION_DIM} [low, high] pairs of finite numbers"),
    # Tested only once the first row has passed, so they may unpack and index the pairs.
    ("attack.action_bounds", lambda bounds: all(low < high for low, high in bounds)
     and 0 <= bounds[2][0] and bounds[2][1] < math.pi,
     "have low < high in each pair and omega0 bounds inside [0, pi)"),
    ("attack.action_bounds", lambda bounds: bounds[0][0] >= 0 and bounds[1][0] >= 0,
     "have sigma and F0 lows >= 0"),
    ("attack.impulse_density",
     lambda density: density is None or (type(density) in (int, float) and density > 0),
     "be null or a number > 0"),
    ("attack.field_seed_policy", lambda policy: policy in FIELD_SEED_POLICIES,
     f"be one of {', '.join(FIELD_SEED_POLICIES)}"),
    ("attack.field_seed", *_at_least(0)),
    ("attack.reward.x_hat", *_POSITIVE),
    ("attack.reward.lambda", lambda lam: 0 < lam <= 1, "lie in (0, 1]"),
    ("agent.hidden", *_LAYER_SIZES),
    ("agent.tau", lambda tau: 0 < tau <= 1, "lie in (0, 1]"),
    ("agent.actor_lr", *_POSITIVE),
    ("agent.critic_lr", *_POSITIVE),
    ("training.episodes", *_at_least(0)),
    ("training.restarts", *_at_least(1)),
    ("training.batch_size", *_at_least(1)),
    ("training.warmup", *_at_least(0)),
    ("training.sigma_start", *_at_least(0)),
    ("training.sigma_end", *_at_least(0)),
    ("evaluation.episodes", *_at_least(1)),
)


def _check_values(raw: dict, case: BusCase) -> TraceScenario:
    """Reject values that only the case or several keys together rule out, and
    return the scenario of the checked values."""
    sc = raw["scenario"]
    for key in ("dt", "fault_start"):
        if not sc[key] < sc["horizon"]:
            raise ValueError(f"config key 'scenario.{key}' ({sc[key]}) must be less than "
                             f"'scenario.horizon' ({sc['horizon']})")
    scenario = TraceScenario(case=case, seed=raw["master_seed"], **sc)
    dc = raw["detector"]
    if not 1 <= dc["window"] < scenario.n_frames:
        raise ValueError(
            f"config key 'detector.window' must be from 1 to {scenario.n_frames - 1}, one less "
            f"than the frames of a trace; got {dc['window']}")
    # generate_trace labels frames by times >= fault_start, and a detector
    # window by its last frame; training needs windows of both labels.
    times = np.arange(scenario.n_frames) * scenario.dt
    first, last = times[dc["window"] - 1], times[-1]
    if not first < scenario.fault_start <= last:
        raise ValueError(
            f"config key 'scenario.fault_start' ({sc['fault_start']}) must lie after the first "
            f"detector window ({first:g} s) and at or before the last frame ({last:g} s), so "
            f"that windows of both labels exist")
    if int(round(dc["split_ratio"] * dc["train_traces"])) == 0:  # split_dataset's count
        raise ValueError(
            f"config keys 'detector.split_ratio' * 'detector.train_traces' ({dc['split_ratio']} "
            f"* {dc['train_traces']}) must round to at least one training trace")
    ac = raw["attack"]
    mask, buses = ac["access_mask"], case.bus_count
    if mask is not None and not (type(mask) is list and len(mask) == buses
                                 and all(type(b) is bool for b in mask)):
        raise ValueError(
            f"config key 'attack.access_mask' must be null or a list of {buses} bools, "
            f"got {mask!r}")
    if mask is not None and not any(mask):
        raise ValueError(
            f"config key 'attack.access_mask' must allow at least one bus, got {mask!r}")
    tr = raw["training"]
    if tr["batch_size"] > tr["buffer_capacity"]:
        raise ValueError(
            f"config key 'training.batch_size' ({tr['batch_size']}) must not exceed "
            f"'training.buffer_capacity' ({tr['buffer_capacity']}): no update could run")
    steps = scenario.n_frames - dc["window"]
    horizon = ac["reward"]["horizon_frames"]
    if horizon is not None and (type(horizon) is not int or not 1 <= horizon <= steps):
        raise ValueError(
            f"config key 'attack.reward.horizon_frames' must be null or an int from 1 to "
            f"{steps}, the frames a trace has after its first detector window; got {horizon!r}")
    # train_step runs once the buffer holds max(batch_size, warmup) transitions.
    held = min(tr["buffer_capacity"], tr["episodes"] * (steps if horizon is None else horizon))
    key = "warmup" if tr["warmup"] >= tr["batch_size"] else "batch_size"
    if tr["episodes"] >= 1 and tr[key] > held:
        raise ValueError(
            f"config key 'training.{key}' ({tr[key]}) must not exceed the {held} transitions "
            f"the replay buffer holds by the end of training: no update could run")
    return scenario


def load_config(path=None, seed_override: int | None = None) -> RunConfig:
    """Load a YAML run config laid over the shipped one; None loads the shipped one.

    The user's YAML lists only the keys it changes; `RunConfig.raw` (and so
    the hash) is the resolved config.
    """
    raw = yaml.safe_load(_default_config_path().read_text())
    if path is not None:
        try:
            user = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from None
        raw = _resolve(raw, user or {})
    if seed_override is not None:
        raw["master_seed"] = int(seed_override)
    for key, test, requirement in _RULES:
        value = reduce(dict.__getitem__, key.split("."), raw)
        if not test(value):
            raise ValueError(f"config key '{key}' must {requirement}, got {value!r}")
    master_seed, case_file = raw["master_seed"], raw["case_file"]
    case = default_case() if case_file is None else load_case(case_file)
    scenario = _check_values(raw, case)

    dc = dict(raw["detector"])
    train_traces, split_ratio = dc.pop("train_traces"), dc.pop("split_ratio")
    dc["hidden"] = tuple(dc["hidden"])
    detector_config = det.DetectorConfig(
        **dc, seed=derive_seeds(master_seed, _SEED_DETECTOR, 1)[0])

    ac = dict(raw["attack"])
    rw = dict(ac.pop("reward"))
    rw["lam"] = rw.pop("lambda")
    reward_params = RewardParams(**rw)
    ac["action_bounds"] = tuple(tuple(b) for b in ac["action_bounds"])
    density = ac["impulse_density"]
    ac["impulse_density"] = DEFAULT_IMPULSE_DENSITY if density is None else float(density)
    attack_config = AttackConfig(**ac, reward_params=reward_params)

    ag = raw["agent"]
    tr = dict(raw["training"])
    train_episodes, train_restarts = tr.pop("episodes"), tr.pop("restarts")
    train_config = ddpg.TrainConfig(
        **tr, seed=derive_seeds(master_seed, _SEED_ATTACK_TRAIN, 1)[0])
    return RunConfig(
        raw=raw,
        master_seed=master_seed,
        case=case,
        scenario=scenario,
        detector_config=detector_config,
        detector_train_traces=train_traces,
        detector_split_ratio=split_ratio,
        attack_config=attack_config,
        agent_hidden=tuple(ag["hidden"]),
        agent_gamma=reward_params.lam,
        agent_tau=ag["tau"],
        actor_lr=ag["actor_lr"],
        critic_lr=ag["critic_lr"],
        train_config=train_config,
        train_episodes=train_episodes,
        train_restarts=train_restarts,
        eval_episodes=raw["evaluation"]["episodes"],
    )


@dataclass
class AttackMetrics:
    clean_accuracy: float
    attacked_accuracy: float
    clean_false_alarm_rate: float | None
    attacked_false_alarm_rate: float | None
    evasion_success_rate: float
    mean_posterior_drop: float
    max_abs_perturbation: float
    detection_delay_clean: float | None
    detection_delay_attacked: float | None

    def __post_init__(self):
        for name in ("clean_accuracy", "attacked_accuracy", "clean_false_alarm_rate",
                     "attacked_false_alarm_rate", "evasion_success_rate"):
            v = getattr(self, name)
            if v is not None and not (0 <= v <= 1):
                raise ValueError(f"{name} out of [0,1]: {v}")


def _write_csv(path: Path, columns: dict) -> None:
    """Write equal-length 1-D columns as CSV: a header of their names, then
    one row per element; floats as `%.12g`, everything else as ints."""
    # `map` formats each row only as it is written, so no string column is built.
    cells = [map("{:.12g}".format if a.dtype.kind == "f" else int, a.tolist())
             for a in map(np.asarray, columns.values())]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(zip(*cells, strict=True))


def _per_bus(times, matrix, **extra) -> dict:
    """Columns of the long layout: a `time,bus,value` row per element of the
    (time, bus) `matrix`, by time then bus, plus per-time `extra` columns."""
    frames, buses = np.shape(matrix)
    columns = {"time": np.repeat(times, buses), "bus": np.tile(np.arange(buses), frames),
               "value": np.ravel(matrix)}
    columns.update((name, np.repeat(col, buses)) for name, col in extra.items())
    return columns


def _write_manifest(out: Path, cfg: RunConfig, command: str, outputs: list[str]) -> None:
    doc = {
        "config_hash": cfg.hash,
        "master_seed": cfg.master_seed,
        "command": command,
        "outputs": sorted(outputs),
    }
    (out / f"manifest_{command}.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir) -> list[Path]:
    """Write the default-scenario trace CSV plus a scenario manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = generate_trace(cfg.scenario)
    trace_path = out / "trace_clean.csv"
    _write_csv(trace_path, _per_bus(trace.times, trace.frames, label=trace.labels))
    _write_manifest(out, cfg, "simulate", [trace_path.name])
    return [trace_path]


def _training_traces(cfg: RunConfig):
    seeds = derive_seeds(cfg.master_seed, _SEED_TRACE, cfg.detector_train_traces)
    return [generate_trace(cfg.scenario.with_seed(s)) for s in seeds]


def cmd_train_detector(cfg: RunConfig, out_dir):
    """Train the detector; write checkpoint, report JSON, posterior CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = _training_traces(cfg)
    window = cfg.detector_config.window
    train_set, _ = split_dataset(traces, window, cfg.detector_split_ratio,
                                 seed=cfg.detector_config.seed)
    model, loss = det.train_detector(train_set, cfg.detector_config, cfg.case.bus_count)

    holdout_seeds = derive_seeds(cfg.master_seed, _SEED_EVAL, cfg.eval_episodes)
    holdout = [generate_trace(cfg.scenario.with_seed(s)) for s in holdout_seeds]
    report = det.evaluate_detector(model, holdout)

    ckpt = out / "detector.json"
    det.save_detector(model, ckpt)
    report_json = out / "detector_report.json"
    report_json.write_text(json.dumps({
        "frame_accuracy": report.frame_accuracy,
        "false_positive_rate": report.false_positive_rate,
        "detection_delay": report.detection_delay,
        "delays": report.delays,
    }, sort_keys=True, indent=2))
    posterior_csv = out / "clean_posterior.csv"
    times, post, labels = (np.concatenate(c) for c in zip(*report.posterior_series))
    _write_csv(posterior_csv, {"time": times, "posterior": post, "label": labels})
    _write_manifest(out, cfg, "train-detector",
                    [ckpt.name, report_json.name, posterior_csv.name])
    return model, report, loss


def _make_env(cfg: RunConfig, model: det.DetectorModel, seed: int) -> AttackEnv:
    """The env of the episode whose trace (and field seeds) derive from `seed`."""
    return AttackEnv(cfg.scenario.with_seed(seed), model, cfg.attack_config, seed=seed)


def _validation_drop(cfg: RunConfig, model: det.DetectorModel,
                     policy: ddpg.Policy, episodes: int = 3) -> float:
    """Mean post-fault posterior drop on held-back validation seeds."""
    seeds = derive_seeds(cfg.master_seed, _SEED_VALIDATE, episodes)
    runs = [run_attack_episode(_make_env(cfg, model, seed), trained_policy(policy))
            for seed in seeds]
    return compute_attack_metrics(runs, model.threshold).mean_posterior_drop


def cmd_train_attacker(cfg: RunConfig, out_dir):
    """Train the DDPG agent against the attack environment.

    No restart learns to do nothing: the epsilon bound saturates about
    99.8 % of the perturbed values. But the reward's misdirection
    |label - p| pays a pre-fault false alarm as much as a post-fault miss,
    and most restarts learn a pre-fault false-alarm attack, which the
    post-fault posterior drop scores at or below 0. So we train
    `train_restarts` independent agents and keep the one with the best
    posterior drop on validation seeds disjoint from the evaluation stream.
    """
    out = Path(out_dir)
    model = _load_detector(cfg, out)
    agent_seeds = derive_seeds(cfg.master_seed, _SEED_AGENT, cfg.train_restarts)
    train_seeds = derive_seeds(cfg.master_seed, _SEED_ATTACK_TRAIN, cfg.train_restarts)
    best = None
    for r in range(cfg.train_restarts):
        candidate = ddpg.make_agent(
            state_dim=2 * cfg.case.bus_count + 1,
            action_bounds=cfg.attack_config.action_bounds,
            seed=agent_seeds[r],
            hidden=cfg.agent_hidden,
            gamma=cfg.agent_gamma,
            tau=cfg.agent_tau,
            actor_lr=cfg.actor_lr,
            critic_lr=cfg.critic_lr,
        )
        train_config = replace(cfg.train_config, seed=train_seeds[r])
        candidate, cand_curve = ddpg.train(
            candidate, lambda episode, seed: _make_env(cfg, model, seed),
            cfg.train_episodes, train_config)
        score = _validation_drop(cfg, model, candidate) if cfg.train_episodes else 0.0
        if best is None or score > best[0]:
            best = (score, r, candidate, cand_curve)
    _, chosen, agent, curve = best

    actor_path = out / "actor.json"
    critic_path = out / "critic.json"
    meta = {
        "action_bounds": np.asarray(cfg.attack_config.action_bounds).tolist(),
        "seed": cfg.master_seed,
        "episodes": cfg.train_episodes,
        "restarts": cfg.train_restarts,
        "selected_restart": chosen,
    }
    neural.save_checkpoint(agent.actor, actor_path, extra=meta)
    neural.save_checkpoint(agent.critic, critic_path, extra=meta)
    curve_path = out / "learning_curve.csv"
    _write_csv(curve_path, {key: [row[key] for row in curve] for key in
                            ("episode", "return", "discounted_return", "critic_loss")})
    _write_manifest(out, cfg, "train-attacker",
                    [actor_path.name, critic_path.name, curve_path.name])
    return agent, curve


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def random_policy(bounds, seed: int):
    """Uniform hyper-parameter baseline; isolates the value of DDPG."""
    rng = np.random.default_rng(seed)
    bounds = np.asarray(bounds, dtype=float)

    def policy(state):
        return rng.uniform(bounds[:, 0], bounds[:, 1])

    return policy


def trained_policy(policy: ddpg.Policy):
    """`policy`'s noise-free action for each state."""
    return lambda state: ddpg.act(policy, state)


def run_attack_episode(env: AttackEnv, policy) -> dict:
    """Roll one episode of `policy`, called on each flattened state, and
    return the env's episode record."""
    state = env.reset()
    done = False
    while not done:
        outcome = env.step(policy(state.flatten()))
        state, done = outcome.next_state, outcome.done
    return env.record()


def compute_attack_metrics(episodes: list[dict], threshold: float) -> AttackMetrics:
    """Aggregate AttackMetrics over evaluated episodes; each side's accuracy,
    false-alarm rate and delay are `detector.score_series` of its posteriors."""
    clean, attacked = (
        det.score_series([(e["time"], e[key], e["label"]) for e in episodes], threshold)
        for key in ("clean_posterior", "attacked_posterior"))
    labels, p_clean, p_attacked = (np.concatenate([e[key] for e in episodes])
                                   for key in ("label", "clean_posterior", "attacked_posterior"))
    post = labels == 1
    return AttackMetrics(
        clean_accuracy=clean.frame_accuracy,
        attacked_accuracy=attacked.frame_accuracy,
        clean_false_alarm_rate=clean.false_positive_rate,
        attacked_false_alarm_rate=attacked.false_positive_rate,
        evasion_success_rate=float(np.mean(p_attacked[post] < threshold)) if post.any() else 0.0,
        mean_posterior_drop=(float(np.mean(p_clean[post] - p_attacked[post]))
                             if post.any() else 0.0),
        max_abs_perturbation=float(max(np.max(e["max_abs_n"]) for e in episodes)),
        detection_delay_clean=clean.detection_delay,
        detection_delay_attacked=attacked.detection_delay,
    )


BASELINES = ("none", "random_hyperparams", "trained_agent")


def evaluate_baseline(cfg: RunConfig, model: det.DetectorModel, baseline: str,
                      agent: ddpg.Policy | None = None,
                      episodes: int | None = None):
    """Run E held-out evaluation episodes for one baseline."""
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline '{baseline}'")
    n_ep = cfg.eval_episodes if episodes is None else episodes
    if n_ep < 1:
        raise ValueError(f"episodes must be >= 1, got {n_ep}")
    seeds = derive_seeds(cfg.master_seed, _SEED_EVAL, n_ep)
    runs = []
    for i, seed in enumerate(seeds):
        env = _make_env(cfg, model, seed)
        if baseline == "none":
            # An episode that is never stepped is the clean replay.
            env.reset()
            runs.append(env.record())
            continue
        if baseline == "random_hyperparams":
            policy = random_policy(cfg.attack_config.action_bounds, seed=seed ^ 0xA5A5)
        else:
            if agent is None:
                raise ValueError("trained_agent baseline requires a trained policy")
            policy = trained_policy(agent)
        runs.append(run_attack_episode(env, policy))
    metrics = compute_attack_metrics(runs, model.threshold)
    return metrics, runs


def _load_detector(cfg: RunConfig, out: Path) -> det.DetectorModel:
    """The detector in `out`, checked against `cfg`."""
    ckpt = out / "detector.json"
    if not ckpt.exists():
        raise FileNotFoundError(f"missing detector checkpoint {ckpt}; run train-detector first")
    model = det.load_detector(ckpt)
    for attr, want, key in (("window", cfg.detector_config.window, "detector.window"),
                            ("threshold", cfg.detector_config.threshold, "detector.threshold"),
                            ("bus_count", cfg.case.bus_count, "case_file")):
        if getattr(model, attr) != want:
            raise ValueError(f"{ckpt} has {attr} {getattr(model, attr)}, but config key "
                             f"'{key}' gives {want}")
    return model


def _load_policy(cfg: RunConfig, out: Path) -> ddpg.Policy:
    """The trained actor in `out` and its action bounds, checked against `cfg`."""
    actor_path = out / "actor.json"
    if not actor_path.exists():
        raise FileNotFoundError(f"missing actor checkpoint {actor_path}; run train-attacker first")
    actor, meta = neural.load_checkpoint(actor_path, ("action_bounds",))
    bounds = np.asarray(cfg.attack_config.action_bounds, dtype=float)
    if not np.array_equal(np.asarray(meta["action_bounds"], dtype=float), bounds):
        raise ValueError(
            f"{actor_path} was trained under action bounds {meta['action_bounds']}, but "
            f"config key 'attack.action_bounds' is {bounds.tolist()}")
    state_dim = 2 * cfg.case.bus_count + 1
    if actor.layer_sizes[0] != state_dim:
        raise ValueError(
            f"{actor_path} takes {actor.layer_sizes[0]} inputs, but the "
            f"{cfg.case.bus_count}-bus case gives states of {state_dim}")
    return ddpg.Policy(actor, bounds)


def cmd_evaluate(cfg: RunConfig, out_dir, baselines=BASELINES) -> dict:
    """Evaluate requested baselines; write metrics JSON and figure CSVs."""
    names = set(baselines)
    if not names <= set(BASELINES) or len(names) != len(baselines) or not names:
        raise ValueError(f"baselines must be a non-empty list of distinct names from "
                         f"{', '.join(BASELINES)}; got {list(baselines)}")
    out = Path(out_dir)
    model = _load_detector(cfg, out)
    policy = _load_policy(cfg, out) if "trained_agent" in baselines else None
    results = {}
    outputs = []
    for baseline in baselines:
        metrics, runs = evaluate_baseline(cfg, model, baseline, agent=policy)
        doc = asdict(metrics)
        doc["config_hash"] = cfg.hash
        doc["seed"] = cfg.master_seed
        path = out / f"metrics_{baseline}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2))
        outputs.append(path.name)
        results[baseline] = metrics
        if baseline == "trained_agent":
            run = runs[0]
            clean_trace = generate_trace(
                cfg.scenario.with_seed(derive_seeds(cfg.master_seed, _SEED_EVAL, 1)[0]))

            def posteriors(key):
                return {"time": run["time"], "posterior": run[key], "label": run["label"]}

            files = {
                "fig_clean_voltages.csv": _per_bus(clean_trace.times, clean_trace.frames),
                "fig_clean_posterior.csv": posteriors("clean_posterior"),
                "fig_perturbation.csv": _per_bus(run["time"], run["perturbations"]),
                "fig_compromised_voltages.csv": _per_bus(run["time"], run["compromised_frames"]),
                "fig_attacked_posterior.csv": posteriors("attacked_posterior"),
                "episode_log.csv": {key: run[key] for key in (
                    "frame", "time", "reward", "c", "clean_posterior",
                    "attacked_posterior", "max_abs_n")},
            }
            for name, columns in files.items():
                _write_csv(out / name, columns)
            outputs += files
    _write_manifest(out, cfg, "evaluate", outputs)
    return results


def cmd_report(run_dir) -> str:
    """Aggregate metrics files into one markdown summary."""
    out = Path(run_dir)
    metric_files = sorted(out.glob("metrics_*.json"))
    if not metric_files:
        expected = [f"metrics_{b}.json" for b in BASELINES]
        raise FileNotFoundError(
            f"no metrics files in {out}; expected one of: {', '.join(expected)}"
        )
    lines = ["# Evasion-attack run summary", ""]
    manifests = sorted(out.glob("manifest_*.json"))
    if manifests:
        doc = json.loads(manifests[0].read_text())
        lines += [f"- config hash: `{doc['config_hash']}`",
                  f"- master seed: {doc['master_seed']}", ""]
    columns = [f.name for f in fields(AttackMetrics)]
    lines.append("| baseline | " + " | ".join(columns) + " |")
    lines.append("|" + "---|" * (len(columns) + 1))
    for mf in metric_files:
        doc = json.loads(mf.read_text())
        missing = [c for c in columns if c not in doc]
        if missing:
            raise ValueError(f"{mf} has no {', '.join(missing)}; run evaluate again")
        name = mf.stem.removeprefix("metrics_")
        vals = [("n/a" if doc[c] is None else f"{doc[c]:.4g}") for c in columns]
        lines.append(f"| {name} | " + " | ".join(vals) + " |")
    text = "\n".join(lines) + "\n"
    (out / "summary.md").write_text(text)
    return text
