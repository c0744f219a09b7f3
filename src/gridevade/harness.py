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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import ddpg, detector as det, neural
from .attack_env import AttackConfig, AttackEnv, RewardParams
from .grid_traces import (
    BusCase,
    TraceScenario,
    default_case,
    generate_trace,
    load_case,
    split_dataset,
    write_trace_csv,
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
    for a float becomes that float); null-valued shipped keys take any value.
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
        resolved[key] = value
    return resolved


def load_config(path=None, seed_override: int | None = None) -> RunConfig:
    """Load a YAML run config laid over the shipped one; None loads the shipped one.

    The user's YAML lists only the keys it changes; `RunConfig.raw` (and so
    the hash) is the resolved config.
    """
    raw = yaml.safe_load(_default_config_path().read_text())
    if path is not None:
        raw = _resolve(raw, yaml.safe_load(Path(path).read_text()) or {})
    if seed_override is not None:
        raw["master_seed"] = int(seed_override)
    master_seed = raw["master_seed"]

    case = load_case(raw["case_file"]) if raw["case_file"] else default_case()
    scenario = TraceScenario(case=case, seed=master_seed, **raw["scenario"])

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
    if ac["impulse_density"] is None:
        del ac["impulse_density"]  # AttackConfig's default: 64 expected impulses
    else:
        ac["impulse_density"] = float(ac["impulse_density"])
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
    evasion_success_rate: float
    mean_posterior_drop: float
    max_abs_perturbation: float
    detection_delay_clean: float | None
    detection_delay_attacked: float | None

    def __post_init__(self):
        for name in ("clean_accuracy", "attacked_accuracy", "evasion_success_rate"):
            v = getattr(self, name)
            if not (0 <= v <= 1):
                raise ValueError(f"{name} out of [0,1]: {v}")


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
    write_trace_csv(trace, trace_path)
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
    posterior_csv = out / "clean_posterior.csv"
    det.write_report(report, report_json, posterior_csv)
    _write_manifest(out, cfg, "train-detector",
                    [ckpt.name, report_json.name, posterior_csv.name])
    return model, report, loss


def _env_factory(cfg: RunConfig, model: det.DetectorModel):
    def factory(episode: int, episode_seed: int) -> AttackEnv:
        scenario = cfg.scenario.with_seed(episode_seed)
        return AttackEnv(scenario, model, cfg.attack_config, seed=episode_seed)
    return factory


def _validation_drop(cfg: RunConfig, model: det.DetectorModel,
                     agent: ddpg.DdpgAgent, episodes: int = 3) -> float:
    """Mean post-fault posterior drop on held-back validation seeds."""
    seeds = derive_seeds(cfg.master_seed, _SEED_VALIDATE, episodes)
    drops = []
    for seed in seeds:
        env = AttackEnv(cfg.scenario.with_seed(seed), model, cfg.attack_config, seed=seed)
        run = run_attack_episode(env, trained_policy(agent))
        post = run["label"] == 1
        if post.any():
            drops.append(np.mean(run["clean_posterior"][post]
                                 - run["attacked_posterior"][post]))
    return float(np.mean(drops)) if drops else 0.0


def cmd_train_attacker(cfg: RunConfig, out_dir):
    """Train the DDPG agent against the attack environment.

    The return surface has a strong do-nothing local optimum (any
    perturbation is penalized immediately, misdirection pays off only once
    the detector flips), so a single run is initialization-sensitive. We
    train `train_restarts` independent agents and keep the one with the
    best posterior drop on validation seeds disjoint from the evaluation
    stream.
    """
    out = Path(out_dir)
    ckpt = out / "detector.json"
    if not ckpt.exists():
        raise FileNotFoundError(f"missing detector checkpoint {ckpt}; run train-detector first")
    model = det.load_detector(ckpt)
    restarts = max(cfg.train_restarts, 1)
    agent_seeds = derive_seeds(cfg.master_seed, _SEED_AGENT, restarts)
    train_seeds = derive_seeds(cfg.master_seed, _SEED_ATTACK_TRAIN, restarts)
    best = None
    for r in range(restarts):
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
            candidate, _env_factory(cfg, model),
            cfg.train_episodes, train_config)
        score = _validation_drop(cfg, model, candidate) if cfg.train_episodes else 0.0
        if best is None or score > best[0]:
            best = (score, r, candidate, cand_curve)
    _, chosen, agent, curve = best

    actor_path = out / "actor.json"
    critic_path = out / "critic.json"
    meta = {
        "action_bounds": np.asarray(cfg.attack_config.action_bounds).tolist(),
        "gamma": cfg.agent_gamma,
        "tau": cfg.agent_tau,
        "seed": cfg.master_seed,
        "episodes": cfg.train_episodes,
        "restarts": restarts,
        "selected_restart": chosen,
    }
    neural.save_checkpoint(agent.actor, actor_path, extra=meta)
    neural.save_checkpoint(agent.critic, critic_path, extra=meta)
    curve_path = out / "learning_curve.csv"
    with open(curve_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "return", "discounted_return", "critic_loss"])
        for row in curve:
            w.writerow([row["episode"], f"{row['return']:.12g}",
                        f"{row['discounted_return']:.12g}", f"{row['critic_loss']:.12g}"])
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


def trained_policy(agent: ddpg.DdpgAgent):
    def policy(state):
        return ddpg.act(agent, state, explore=False)

    return policy


def run_attack_episode(env: AttackEnv, policy) -> dict:
    """Roll one episode; returns arrays of per-step records."""
    state = env.reset()
    rows = {k: [] for k in ("frame", "time", "label", "reward", "c",
                            "clean_posterior", "attacked_posterior", "max_abs_n")}
    perturbations = []
    done = False
    while not done:
        outcome = env.step(policy(state))
        info = outcome.info
        rows["frame"].append(info["frame"])
        rows["time"].append(info["time"])
        rows["label"].append(info["label"])
        rows["reward"].append(outcome.reward)
        rows["c"].append(outcome.next_state.c)
        rows["clean_posterior"].append(info["clean_posterior"])
        rows["attacked_posterior"].append(info["attacked_posterior"])
        rows["max_abs_n"].append(info["max_abs_n"])
        perturbations.append(info["perturbation"])
        state = outcome.next_state
        done = outcome.done
    out = {k: np.asarray(v) for k, v in rows.items()}
    out["perturbations"] = np.asarray(perturbations)
    out["compromised_frames"] = env.trace.frames[out["frame"]] + out["perturbations"]
    return out


def _delay(times, labels, flagged) -> float | None:
    post = labels == 1
    if not post.any():
        return None
    hit = np.flatnonzero(flagged & post)
    if not len(hit):
        return None
    return max(0.0, float(times[hit[0]] - times[np.flatnonzero(post)[0]]))


def compute_attack_metrics(episodes: list[dict], threshold: float) -> AttackMetrics:
    """Aggregate AttackMetrics over evaluated episodes."""
    labels = np.concatenate([e["label"] for e in episodes])
    clean = np.concatenate([e["clean_posterior"] for e in episodes])
    attacked = np.concatenate([e["attacked_posterior"] for e in episodes])
    post = labels == 1
    delays_clean = [_delay(e["time"], e["label"], e["clean_posterior"] >= threshold)
                    for e in episodes]
    delays_att = [_delay(e["time"], e["label"], e["attacked_posterior"] >= threshold)
                  for e in episodes]
    dc = [d for d in delays_clean if d is not None]
    da = [d for d in delays_att if d is not None]
    return AttackMetrics(
        clean_accuracy=float(np.mean((clean >= threshold) == labels)),
        attacked_accuracy=float(np.mean((attacked >= threshold) == labels)),
        evasion_success_rate=float(np.mean(attacked[post] < threshold)) if post.any() else 0.0,
        mean_posterior_drop=float(np.mean(clean[post] - attacked[post])) if post.any() else 0.0,
        max_abs_perturbation=float(max(np.max(e["max_abs_n"]) for e in episodes)),
        detection_delay_clean=float(np.mean(dc)) if dc else None,
        detection_delay_attacked=float(np.mean(da)) if da else None,
    )


BASELINES = ("none", "random_hyperparams", "trained_agent")


def evaluate_baseline(cfg: RunConfig, model: det.DetectorModel, baseline: str,
                      agent: ddpg.DdpgAgent | None = None,
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
        env = AttackEnv(cfg.scenario.with_seed(seed), model, cfg.attack_config, seed=seed)
        if baseline == "none":
            # No attack: replay the clean posterior series as both curves.
            t0 = env.window - 1
            times = env.trace.times[t0 + 1 :]
            labels = env.trace.labels[t0 + 1 :]
            clean = env.clean_posterior[1 :]
            runs.append({
                "frame": np.arange(t0 + 1, env.trace.n_frames),
                "time": times, "label": labels,
                "reward": np.zeros(len(times)),
                "c": np.abs(labels - clean),
                "clean_posterior": clean,
                "attacked_posterior": clean.copy(),
                "max_abs_n": np.zeros(len(times)),
                "perturbations": np.zeros((len(times), env.bus_count)),
                "compromised_frames": env.trace.frames[t0 + 1 :].copy(),
            })
            continue
        if baseline == "random_hyperparams":
            policy = random_policy(cfg.attack_config.action_bounds, seed=seed ^ 0xA5A5)
        else:
            if agent is None:
                raise ValueError("trained_agent baseline requires a trained agent")
            policy = trained_policy(agent)
        runs.append(run_attack_episode(env, policy))
    metrics = compute_attack_metrics(runs, model.threshold)
    return metrics, runs


def _write_long_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def export_figure_csvs(out: Path, run: dict, clean_trace) -> list[str]:
    """Plot-ready CSVs mirroring clean/attacked voltages, noise, posteriors."""
    names = []

    def bus_rows(times, matrix):
        for t, vec in zip(times, matrix):
            for b, v in enumerate(vec):
                yield [f"{t:.12g}", b, f"{v:.12g}"]

    p = out / "fig_clean_voltages.csv"
    _write_long_csv(p, ["time", "bus", "value"],
                    bus_rows(clean_trace.times, clean_trace.frames))
    names.append(p.name)
    p = out / "fig_clean_posterior.csv"
    _write_long_csv(p, ["time", "posterior", "label"],
                    ([f"{t:.12g}", f"{v:.12g}", int(l)] for t, v, l in
                     zip(run["time"], run["clean_posterior"], run["label"])))
    names.append(p.name)
    p = out / "fig_perturbation.csv"
    _write_long_csv(p, ["time", "bus", "value"],
                    bus_rows(run["time"], run["perturbations"]))
    names.append(p.name)
    p = out / "fig_compromised_voltages.csv"
    _write_long_csv(p, ["time", "bus", "value"],
                    bus_rows(run["time"], run["compromised_frames"]))
    names.append(p.name)
    p = out / "fig_attacked_posterior.csv"
    _write_long_csv(p, ["time", "posterior", "label"],
                    ([f"{t:.12g}", f"{v:.12g}", int(l)] for t, v, l in
                     zip(run["time"], run["attacked_posterior"], run["label"])))
    names.append(p.name)
    return names


def export_episode_log(path, run: dict) -> None:
    _write_long_csv(path, ["frame", "time", "reward", "c", "clean_posterior",
                           "attacked_posterior", "max_abs_n"],
                    ([int(f), f"{t:.12g}", f"{r:.12g}", f"{c:.12g}",
                      f"{cp:.12g}", f"{ap:.12g}", f"{m:.12g}"]
                     for f, t, r, c, cp, ap, m in zip(
                         run["frame"], run["time"], run["reward"], run["c"],
                         run["clean_posterior"], run["attacked_posterior"],
                         run["max_abs_n"])))


def cmd_evaluate(cfg: RunConfig, out_dir, baselines=BASELINES) -> dict:
    """Evaluate requested baselines; write metrics JSON and figure CSVs."""
    out = Path(out_dir)
    ckpt = out / "detector.json"
    if not ckpt.exists():
        raise FileNotFoundError(f"missing detector checkpoint {ckpt}")
    model = det.load_detector(ckpt)
    agent = None
    if "trained_agent" in baselines:
        actor_path = out / "actor.json"
        critic_path = out / "critic.json"
        if not actor_path.exists() or not critic_path.exists():
            raise FileNotFoundError(f"missing agent checkpoints in {out}")
        actor, meta = neural.load_checkpoint(actor_path)
        critic, _ = neural.load_checkpoint(critic_path)
        agent = ddpg.DdpgAgent(
            actor=actor, critic=critic,
            target_actor=actor.copy(), target_critic=critic.copy(),
            actor_opt=neural.AdamState.for_net(actor),
            critic_opt=neural.AdamState.for_net(critic),
            action_bounds=np.asarray(meta["action_bounds"]),
            gamma=meta["gamma"], tau=meta["tau"],
        )
    results = {}
    outputs = []
    for baseline in baselines:
        metrics, runs = evaluate_baseline(cfg, model, baseline, agent=agent)
        doc = asdict(metrics)
        doc["config_hash"] = cfg.hash
        doc["seed"] = cfg.master_seed
        path = out / f"metrics_{baseline}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2))
        outputs.append(path.name)
        results[baseline] = metrics
        if baseline == "trained_agent":
            clean_trace = generate_trace(
                cfg.scenario.with_seed(derive_seeds(cfg.master_seed, _SEED_EVAL, 1)[0]))
            outputs += export_figure_csvs(out, runs[0], clean_trace)
            log_path = out / "episode_log.csv"
            export_episode_log(log_path, runs[0])
            outputs.append(log_path.name)
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
    fields = ["clean_accuracy", "attacked_accuracy", "evasion_success_rate",
              "mean_posterior_drop", "max_abs_perturbation",
              "detection_delay_clean", "detection_delay_attacked"]
    lines.append("| baseline | " + " | ".join(fields) + " |")
    lines.append("|" + "---|" * (len(fields) + 1))
    for mf in metric_files:
        doc = json.loads(mf.read_text())
        name = mf.stem.removeprefix("metrics_")
        vals = [("n/a" if doc[f] is None else f"{doc[f]:.4g}") for f in fields]
        lines.append(f"| {name} | " + " | ".join(vals) + " |")
    text = "\n".join(lines) + "\n"
    (out / "summary.md").write_text(text)
    return text
