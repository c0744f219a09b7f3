"""The benchmark's workloads, driven through gridevade's public API.

Every workload has a set-up (untimed by the rounds, timed as `setup_s`)
and a round: a fixed set of harness calls on inputs derived from the
workload seed and the round index. A run repeats whole rounds until their
summed wall time reaches the requested seconds, then checks each round's
outputs against values computed here (see checks.py).

- train_attacker: `harness.cmd_train_attacker` on the shipped config
  (`field_seed_policy: fixed`), 2 restarts x 10 episodes plus each
  restart's 3 validation episodes. The field layout is the same at every
  step and a DDPG update follows most steps.
- evaluate_per_step: `harness.evaluate_baseline` for the `none`,
  `random_hyperparams` and `trained_agent` baselines, 10 held-out
  episodes each, `field_seed_policy: per-step`, two buses hidden from the
  attacker. Every step draws a new layout and nothing trains.
- train_detector: `harness.cmd_train_detector` on 16 traces (the env
  workloads' set-up detector trains at the shipped 12). Only the
  trace model, the detector and the MLP engine run.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

from gridevade import ddpg, grid_traces, harness

import checks
from hostspeed import HostSpeed
from probe import Probe

BASELINES = ("none", "random_hyperparams", "trained_agent")


@dataclasses.dataclass(frozen=True)
class Sizes:
    episodes: int = 10
    eval_episodes: int = 10
    detector_traces: int = 16
    holdout_traces: int = 10
    warmup: int | None = None      # None: the shipped value
    batch_size: int | None = None  # None: the shipped value


FULL = Sizes()
TINY = Sizes(episodes=2, eval_episodes=2, detector_traces=12, holdout_traces=4,
             warmup=64, batch_size=32)

RESTARTS = 2
# The evaluated actor is an untrained network from this fixed seed, so the
# policy is the same for every workload seed.
ACTOR_SEED = 2109
# Every FIELD_SAMPLE_EVERY-th field evaluation is checked against a direct
# kernel sum.
FIELD_SAMPLE_EVERY = 61
# The iteration time is the mean over ITER_WINDOW consecutive iterations,
# counted only where the workload's per-iteration call ran on at least
# ITER_MIN_SHARE of them.
ITER_WINDOW = 30
ITER_MIN_SHARE = 0.9
# Seed stream of the set-up, apart from the round streams 0, 1, 2, ...
SETUP_STREAM = 1_000_000
HOLDOUT_STREAM = 2
# Noise-plane domain and layout padding as the method defines them:
# |v| in [0, 1.2] pu, ln(bus + 1) in [0, ln 10], padding 3 / SIGMA_FLOOR.
NOISE_DOMAIN = (0.0, 1.2, 0.0, math.log(10.0))
LAYOUT_PAD = 3.0
DEFAULT_EXPECTED_IMPULSES = 64.0


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def shipped_config() -> dict:
    path = Path(harness.__file__).parent / "data" / "default_config.yaml"
    return yaml.safe_load(path.read_text())


def trace_steps(raw: dict) -> int:
    """Env steps per episode: frames after the first full detector window."""
    sc, rw = raw["scenario"], raw["attack"]["reward"]
    n_frames = int(round(sc["horizon"] / sc["dt"]))
    t_f = n_frames - raw["detector"]["window"]
    return t_f if rw["horizon_frames"] is None else min(rw["horizon_frames"], t_f)


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def window_means(ends, host: HostSpeed, calls=None) -> np.ndarray:
    """Mean gap per iteration over each window of ITER_WINDOW iterations.

    `ends[i]` is the end time of iteration i, in ns. A window spans the
    ITER_WINDOW gaps from ends[i] to ends[i + ITER_WINDOW], whatever ran
    in between except the host-speed reference chunks, and is given in ns
    at the host's nominal speed. With `calls` (the count of some call made
    by the end of each iteration), a window is kept only if that call ran
    at least ITER_MIN_SHARE * ITER_WINDOW times in it.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if len(ends) <= ITER_WINDOW:
        return np.zeros(0)
    a, b = ends[:-ITER_WINDOW], ends[ITER_WINDOW:]
    if calls is not None:
        calls = np.asarray(calls)
        keep = calls[ITER_WINDOW:] - calls[:-ITER_WINDOW] >= ITER_MIN_SHARE * ITER_WINDOW
        a, b = a[keep], b[keep]
    net = (b - a - host.chunk_ns_between(a, b)) / ITER_WINDOW
    return host.normalise(net, (a + b) // 2)


def spans_ns(spans, host: HostSpeed) -> np.ndarray:
    """(start, end) pairs in ns, less reference chunks, at nominal speed."""
    if not spans:
        return np.zeros(0)
    a, b = np.asarray(spans, dtype=np.int64).T
    return host.normalise(b - a - host.chunk_ns_between(a, b), b)


class LogHistogram:
    """Counts of positive samples in geometric bins 0.1 % wide.

    Its size is fixed, so a run's memory does not grow with the number of
    samples it times.
    """

    LOW = 1e3  # ns; smaller samples fall into the first bin
    BINS = 20_000  # up to ~485 s
    _LOG_RATIO = math.log1p(1e-3)

    def __init__(self):
        self.counts = np.zeros(self.BINS, dtype=np.int64)
        self.n = 0

    def add(self, samples_ns) -> None:
        x = np.asarray(samples_ns, dtype=float)
        if not len(x):
            return
        bins = np.log(np.maximum(x, self.LOW) / self.LOW) / self._LOG_RATIO
        self.counts += np.bincount(np.minimum(bins.astype(np.int64), self.BINS - 1),
                                   minlength=self.BINS)
        self.n += len(x)

    def quantile_ms(self, q: float) -> float | None:
        """The q-quantile in ms, log-interpolated in its bin; None if empty."""
        if not self.n:
            return None
        target = q * self.n
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, target, side="left"))
        frac = (target - (cum[i] - self.counts[i])) / self.counts[i]
        return self.LOW * math.exp((i + frac) * self._LOG_RATIO) / 1e6


# ---------------------------------------------------------------------------
# What the probe sees during one round
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Step:
    env: object
    frame: int
    action: np.ndarray
    n: np.ndarray
    reward: float
    c: float
    clean_posterior: float
    attacked_posterior: float
    label: int
    clamped: bool


class Observations:
    """Per-round record of env steps, fields, training calls and their times."""

    def __init__(self, time_host: bool = True):
        self.envs = []
        self._env_start = {}  # id(env) -> start ns
        self.steps: list[Step] = []
        self.starts = []      # (start, end) ns: env construction to its first step's end
        # At each AttackEnv.step return, in the order they return over all
        # envs: the end time and the train_step and act calls made so far.
        self.step_ends = []
        self.step_train_steps = []
        self.step_acts = []
        self.exp_clamps = 0
        self.field_seeds = []
        self.impulses = []
        self.pv_calls = 0
        self.kernel_evals = 0
        self.samples = []  # (step index, field, raw field values)
        self._pending = None
        self.train_steps = 0
        self.acts = 0
        self.train_sets = []
        self.adam_ends = []
        # Reference chunks run between iterations (see hostspeed.py), only
        # where the end-to-end timings need them.
        self.host = HostSpeed() if time_host else None

    def observers(self, minibatches: bool = False) -> dict:
        obs = {
            "attack_env.AttackEnv.__init__": self._env_init,
            "attack_env.AttackEnv.step": self._step,
            "gabor.build_field": self._build_field,
            "gabor.perturbation_vector": self._perturbation_vector,
            "ddpg.act": self._act,
            "ddpg.train_step": self._train_step,
            "detector.train_detector": self._train_detector,
        }
        if minibatches:
            obs["neural.adam_step"] = self._adam_step
        return obs

    def _env_init(self, args, kwargs, result, t0, t1):
        env = args[0]
        self.envs.append(env)
        self._env_start[id(env)] = t0

    def _step(self, args, kwargs, outcome, t0, t1):
        env, info = args[0], outcome.info
        if self._pending is not None:
            self.samples.append((len(self.steps), *self._pending))
            self._pending = None
        self.steps.append(Step(
            env=env, frame=info["frame"], action=info["action"], n=info["perturbation"],
            reward=outcome.reward, c=outcome.next_state.c,
            clean_posterior=info["clean_posterior"],
            attacked_posterior=info["attacked_posterior"],
            label=info["label"], clamped=info["action_clamped"]))
        start = self._env_start.pop(id(env), None)
        if start is not None:
            self.starts.append((start, t1))
        self.step_ends.append(t1)
        self.step_train_steps.append(self.train_steps)
        self.step_acts.append(self.acts)
        if outcome.done:
            self.exp_clamps += env.exp_clamp_count
        if self.host is not None:
            self.host.sample()

    def _build_field(self, args, kwargs, field, t0, t1):
        self.field_seeds.append(kwargs["seed"] if "seed" in kwargs else args[3])
        self.impulses.append(len(field))

    def _perturbation_vector(self, args, kwargs, raw, t0, t1):
        field, frame = args[0], args[1]
        self.kernel_evals += len(field) * len(frame)
        if self.pv_calls % FIELD_SAMPLE_EVERY == 0:
            # The env zeroes inaccessible buses of the returned array in place.
            self._pending = (field, np.array(raw, dtype=float))
        self.pv_calls += 1

    def _act(self, args, kwargs, result, t0, t1):
        self.acts += 1

    def _train_step(self, args, kwargs, result, t0, t1):
        self.train_steps += 1

    def _train_detector(self, args, kwargs, result, t0, t1):
        self.train_sets.append(args[0])
        first = bisect.bisect_right(self.adam_ends, t0)
        if first < len(self.adam_ends):
            self.starts.append((t0, self.adam_ends[first]))

    def _adam_step(self, args, kwargs, result, t0, t1):
        self.adam_ends.append(t1)
        if self.host is not None:
            self.host.sample()


@dataclasses.dataclass
class Round:
    seconds: float
    payload: object  # whatever the round's check needs


# ---------------------------------------------------------------------------
# Checks shared by the two env workloads
# ---------------------------------------------------------------------------

def _impulse_arrays(field):
    imps = field.impulses
    return (np.array([im.x for im in imps]), np.array([im.y for im in imps]),
            np.array([im.weight for im in imps]))


def check_env_steps(obs: Observations, net: dict, raw: dict, access_mask,
                    kernel_magnitude: float) -> list[str]:
    """Bound, reward and posterior checks on every step; field on samples."""
    fails = []
    if not obs.steps:
        return ["no env steps recorded"]
    at = raw["attack"]
    eps, k0, x_hat = at["epsilon"], at["reward"]["k0"], at["reward"]["x_hat"]
    window = net["meta"]["window"]
    by_env = {}
    for s in obs.steps:
        by_env.setdefault(id(s.env), []).append(s)
    all_n = np.stack([s.n for s in obs.steps])
    fails += checks.check_perturbations(all_n, access_mask, eps)
    for steps in by_env.values():
        trace = steps[0].env.trace
        ts = np.array([s.frame for s in steps])
        n = np.stack([s.n for s in steps])
        compromised = trace.frames.copy()
        compromised[ts] = trace.frames[ts] + n
        attacked = checks.detector_posteriors(
            net, checks.windows_ending_at(compromised, ts, window))
        clean = checks.detector_posteriors(
            net, checks.windows_ending_at(trace.frames, ts, window))
        labels = trace.labels[ts]
        if not np.array_equal([s.label for s in steps], labels):
            fails.append("step labels differ from the trace labels")
        c = np.abs(labels - attacked)
        fails += checks.check_posteriors([s.attacked_posterior for s in steps],
                                         attacked, "attacked posterior")
        fails += checks.check_posteriors([s.clean_posterior for s in steps],
                                         clean, "clean posterior")
        fails += checks.check_posteriors([s.c for s in steps], c, "misdirection")
        fails += checks.check_rewards([s.reward for s in steps], c,
                                      trace.frames[ts], n, k0, x_hat)
    if not obs.samples:
        fails.append("no field evaluations sampled")
    for idx, field, raw_field in obs.samples:
        s = obs.steps[idx]
        sigma, f0, omega0 = (float(a) for a in s.action)
        xs, ys, ws = _impulse_arrays(field)
        frame = s.env.trace.frames[s.frame]
        qy = np.log(np.arange(len(frame)) + 1.0)
        direct, scale = checks.direct_field_sum(xs, ys, ws, kernel_magnitude,
                                                sigma, f0, omega0, np.abs(frame), qy)
        fails += checks.check_field(raw_field, direct, scale)
        fails += checks.check_projection(s.n, raw_field, access_mask, eps)
    return fails


def eps_saturation(obs: Observations, access_mask, eps: float) -> tuple[int, int]:
    """(entries at exactly +-eps, accessible entries) over the round's steps."""
    if not obs.steps:
        return 0, 0
    n = np.stack([s.n for s in obs.steps])[:, access_mask]
    return int(np.sum(np.abs(n) == eps)), int(n.size)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up plus a repeatable round; subclasses fill in the specifics."""

    name = ""
    ops_per_round = 1  # harness calls in one round

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.raw = shipped_config()
        self.raw["training"]["restarts"] = RESTARTS
        self.raw["training"]["episodes"] = sizes.episodes
        if sizes.warmup is not None:
            self.raw["training"]["warmup"] = sizes.warmup
        if sizes.batch_size is not None:
            self.raw["training"]["batch_size"] = sizes.batch_size
        self.raw["evaluation"]["episodes"] = sizes.eval_episodes
        self.digest = None

    def write_config(self) -> Path:
        path = self.work / "config.yaml"
        path.write_text(yaml.safe_dump(self.raw, sort_keys=True))
        return path

    def round_config(self, k: int):
        return harness.load_config(self.config_path, seed_override=derived_seed(self.seed, k))

    def round_dir(self, k: int) -> Path:
        out = self.work / f"round{k}"
        out.mkdir()
        return out

    def setup(self) -> None:
        self.config_path = self.write_config()

    def run_round(self, k: int, obs: Observations) -> Round:
        raise NotImplementedError

    def check_round(self, k: int, obs: Observations, rnd: Round) -> list[str]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Checks over all rounds of the run together."""
        return []

    def observers(self, obs: Observations) -> dict:
        return obs.observers()

    def iters_ns(self, obs: Observations) -> np.ndarray:
        """Mean time per iteration of the inner loop, one per window, in ns
        at the host's nominal speed."""
        raise NotImplementedError

    def starts_ns(self, obs: Observations) -> np.ndarray:
        """From the start of an item to the end of its first iteration."""
        return spans_ns(obs.starts, obs.host)


class _EnvWorkload(Workload):
    """Shared set-up of the two workloads that step the attack env."""

    def setup(self) -> None:
        super().setup()
        setup_cfg = harness.load_config(self.config_path,
                                        seed_override=derived_seed(self.seed, SETUP_STREAM))
        det_dir = self.work / "detector"
        self.model, _, _ = harness.cmd_train_detector(setup_cfg, det_dir)
        self.detector_path = det_dir / "detector.json"
        self.net = checks.load_net(self.detector_path)
        mask = self.raw["attack"]["access_mask"]
        self.access_mask = (np.ones(setup_cfg.case.bus_count, dtype=bool)
                            if mask is None else np.asarray(mask, dtype=bool))
        self.kernel_magnitude = setup_cfg.attack_config.kernel_magnitude
        self.eps = float(self.raw["attack"]["epsilon"])
        self.t_f = trace_steps(self.raw)


class TrainAttacker(_EnvWorkload):
    name = "train_attacker"

    def run_round(self, k, obs):
        cfg = self.round_config(k)
        out = self.round_dir(k)
        shutil.copy(self.detector_path, out / "detector.json")
        t0 = time.perf_counter()
        harness.cmd_train_attacker(cfg, out)
        return Round(time.perf_counter() - t0, out)

    def check_round(self, k, obs, rnd):
        tr = self.raw["training"]
        want = checks.expected_counts(tr["restarts"], tr["episodes"], self.t_f,
                                      tr["batch_size"], tr["warmup"])
        fails = checks.check_counts(
            {"env_steps": len(obs.steps), "train_steps": obs.train_steps}, want)
        fails += check_env_steps(obs, self.net, self.raw, self.access_mask,
                                 self.kernel_magnitude)
        if k == 0:
            self.digest = file_digest(rnd.payload / name for name in
                                      ("actor.json", "critic.json", "learning_curve.csv"))
        shutil.rmtree(rnd.payload)
        return fails

    def iters_ns(self, obs):
        # An iteration is an env step with its act, store and DDPG update;
        # windows over warm-up or validation steps are left out.
        return window_means(obs.step_ends, obs.host, obs.step_train_steps)


class EvaluatePerStep(_EnvWorkload):
    name = "evaluate_per_step"
    ops_per_round = len(BASELINES)

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.raw["attack"]["field_seed_policy"] = "per-step"
        buses = grid_traces.default_case().bus_count
        rng = np.random.default_rng(derived_seed(seed, SETUP_STREAM, 1))
        mask = np.ones(buses, dtype=bool)
        mask[rng.choice(buses, 2, replace=False)] = False
        self.raw["attack"]["access_mask"] = mask.tolist()

    def setup(self):
        super().setup()
        cfg = self.round_config(0)
        self.agent = ddpg.make_agent(
            state_dim=2 * cfg.case.bus_count + 1,
            action_bounds=cfg.attack_config.action_bounds, seed=ACTOR_SEED,
            hidden=cfg.agent_hidden, gamma=cfg.agent_gamma, tau=cfg.agent_tau,
            actor_lr=cfg.actor_lr, critic_lr=cfg.critic_lr)
        at = self.raw["attack"]
        density = at["impulse_density"]
        if density is None:
            x0, x1, y0, y1 = NOISE_DOMAIN
            density = DEFAULT_EXPECTED_IMPULSES / ((x1 - x0) * (y1 - y0))
        self.expected_impulses = checks.expected_impulses(density, NOISE_DOMAIN, LAYOUT_PAD)

    def run_round(self, k, obs):
        # Each baseline gets its own master seed. With one seed the two
        # stepped baselines would replay the same per-step field seeds, and
        # half the layouts would repeat.
        cfgs = [harness.load_config(self.config_path,
                                    seed_override=derived_seed(self.seed, k, i))
                for i in range(len(BASELINES))]
        episodes = self.sizes.eval_episodes
        results = {}
        t0 = time.perf_counter()
        for cfg, baseline in zip(cfgs, BASELINES):
            first = len(obs.envs)
            metrics, runs = harness.evaluate_baseline(cfg, self.model, baseline,
                                                      agent=self.agent, episodes=episodes)
            results[baseline] = (metrics, runs, first, len(obs.envs))
        return Round(time.perf_counter() - t0, results)

    def check_round(self, k, obs, rnd):
        episodes = self.sizes.eval_episodes
        fails = checks.check_counts(
            {"env_steps": len(obs.steps), "envs": len(obs.envs)},
            {"env_steps": 2 * episodes * self.t_f, "envs": len(BASELINES) * episodes})
        fails += check_env_steps(obs, self.net, self.raw, self.access_mask,
                                 self.kernel_magnitude)
        fails += checks.check_impulse_count(obs.impulses, self.expected_impulses)
        # The `none` baseline steps nothing: its posteriors are the clean ones.
        _, runs, first, last = rnd.payload["none"]
        window = self.net["meta"]["window"]
        for run, env in zip(runs, obs.envs[first:last]):
            ends = np.arange(window, env.trace.n_frames)
            clean = checks.detector_posteriors(
                self.net, checks.windows_ending_at(env.trace.frames, ends, window))
            fails += checks.check_posteriors(run["clean_posterior"], clean,
                                             "none-baseline clean posterior")
            fails += checks.check_posteriors(run["attacked_posterior"], clean,
                                             "none-baseline attacked posterior")
            if np.any(run["perturbations"] != 0.0):
                fails.append("none baseline perturbed a measurement")
        if k == 0:
            h = hashlib.sha256()
            for baseline in BASELINES:
                metrics, runs, _, _ = rnd.payload[baseline]
                h.update(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
                for run in runs:
                    for key in ("perturbations", "reward", "attacked_posterior"):
                        h.update(np.ascontiguousarray(run[key], dtype=float).tobytes())
            self.digest = h.hexdigest()[:16]
        return fails

    def iters_ns(self, obs):
        # An iteration is a trained-agent env step: act, step and record.
        # Windows over `random_hyperparams` steps, which skip `act`, are
        # left out.
        return window_means(obs.step_ends, obs.host, obs.step_acts)


class TrainDetector(Workload):
    name = "train_detector"

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.raw["detector"]["train_traces"] = sizes.detector_traces
        self.frames_correct = self.frames = 0
        self.rounds = self.low_rounds = 0

    def run_round(self, k, obs):
        cfg = self.round_config(k)
        out = self.round_dir(k)
        t0 = time.perf_counter()
        harness.cmd_train_detector(cfg, out)
        return Round(time.perf_counter() - t0, (cfg, out))

    def check_round(self, k, obs, rnd):
        cfg, out = rnd.payload
        if len(obs.train_sets) != 1:
            return [f"{len(obs.train_sets)} detector trainings in one round, expected 1"]
        net = checks.load_net(out / "detector.json")
        window = net["meta"]["window"]
        posts, labels, times = [], [], []
        for i in range(self.sizes.holdout_traces):
            scenario = dataclasses.replace(
                cfg.scenario, seed=derived_seed(self.seed, k, HOLDOUT_STREAM, i))
            trace = grid_traces.generate_trace(scenario)
            ends = np.arange(window - 1, trace.n_frames)
            posts.append(checks.detector_posteriors(
                net, checks.windows_ending_at(trace.frames, ends, window)))
            labels.append(trace.labels[ends])
            times.append(trace.times[ends])
        quality = checks.detection_quality(posts, labels, times, net["meta"]["threshold"])
        self.frames_correct += quality["frames_correct"]
        self.frames += quality["frames"]
        self.rounds += 1
        if checks.check_frame_accuracy(quality["frames_correct"], quality["frames"]):
            self.low_rounds += 1
        fails = checks.check_frame_accuracy(quality["frames_correct"], quality["frames"],
                                            checks.MIN_ROUND_FRAME_ACCURACY)
        train_set = obs.train_sets[0]
        train_bce = checks.bce(
            checks.detector_posteriors(net, np.stack([w for w, _ in train_set])),
            [lbl for _, lbl in train_set])
        fails += checks.check_detector_training(quality["delay_s"], train_bce)
        if k == 0:
            self.digest = file_digest(out / name for name in (
                "detector.json", "detector_report.json", "clean_posterior.csv"))
        shutil.rmtree(out)
        return fails

    def observers(self, obs):
        return obs.observers(minibatches=True)

    def check_run(self):
        return (checks.check_frame_accuracy(self.frames_correct, self.frames)
                + checks.check_low_rounds(self.low_rounds, self.rounds))

    def iters_ns(self, obs):
        # An iteration is one mini-batch: forward, BCE, backward and Adam.
        return window_means(obs.adam_ends, obs.host)


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrainAttacker, EvaluatePerStep, TrainDetector)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _per_layer(probe: Probe, agg: dict, rounds: int) -> dict:
    """Per-layer metrics of a traced run, in BENCHMARK.json's order."""
    stats = probe.layer_stats()

    def st(name):
        return stats.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def us(name):
        s = st(name)
        return s["total_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0

    def self_us(name):
        s = st(name)
        return s["self_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0

    def seconds(name):
        return us(name) / 1e6

    def per_round(name):
        return st(name)["calls"] / rounds

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    m["grid_traces.generate_trace.us"] = (us("grid_traces.generate_trace"), "us")
    m["grid_traces.generate_trace.calls"] = (per_round("grid_traces.generate_trace"), "calls/round")
    m["gabor.build_field.us"] = (us("gabor.build_field"), "us")
    m["gabor.build_field.calls"] = (per_round("gabor.build_field"), "calls/round")
    m["gabor.impulses_per_field"] = (share(agg["impulses"], agg["fields"]), "impulses")
    m["gabor.build_field.new_layout_share"] = (share(agg["distinct_seeds"], agg["fields"]), "share")
    m["gabor.perturbation_vector.us"] = (us("gabor.perturbation_vector"), "us")
    m["gabor.perturbation_vector.calls"] = (per_round("gabor.perturbation_vector"), "calls/round")
    m["gabor.kernel_evals"] = (agg["kernel_evals"] / rounds, "evals/round")
    m["attack_env.AttackEnv.__init__.us"] = (us("attack_env.AttackEnv.__init__"), "us")
    m["attack_env.AttackEnv.step.us"] = (us("attack_env.AttackEnv.step"), "us")
    m["attack_env.AttackEnv.step.self_us"] = (self_us("attack_env.AttackEnv.step"), "us")
    m["attack_env.AttackEnv.step.calls"] = (per_round("attack_env.AttackEnv.step"), "calls/round")
    m["attack_env.reward.us"] = (us("attack_env.reward"), "us")
    m["attack_env.eps_saturated_share"] = (share(agg["saturated"], agg["accessible"]), "share")
    m["attack_env.action_clamped_share"] = (share(agg["clamped"], agg["steps"]), "share")
    m["attack_env.exp_clamp_count"] = (agg["exp_clamps"] / rounds, "count/round")
    m["detector.posterior.us"] = (us("detector.posterior"), "us")
    m["detector.posterior.calls"] = (per_round("detector.posterior"), "calls/round")
    m["detector.train_detector.s"] = (seconds("detector.train_detector"), "s")
    for fn in ("forward", "forward_full", "backward", "adam_step"):
        m[f"neural.{fn}.us"] = (us(f"neural.{fn}"), "us")
        m[f"neural.{fn}.calls"] = (per_round(f"neural.{fn}"), "calls/round")
    m["ddpg.act.us"] = (us("ddpg.act"), "us")
    m["ddpg.train_step.us"] = (us("ddpg.train_step"), "us")
    m["ddpg.train_step.self_us"] = (self_us("ddpg.train_step"), "us")
    m["ddpg.train_step.calls"] = (per_round("ddpg.train_step"), "calls/round")
    m["ddpg.ReplayBuffer.sample.us"] = (us("ddpg.ReplayBuffer.sample"), "us")
    m["ddpg.ReplayBuffer.store.us"] = (us("ddpg.ReplayBuffer.store"), "us")
    m["ddpg.soft_update.us"] = (us("ddpg.soft_update"), "us")
    for fn in ("cmd_train_attacker", "evaluate_baseline", "cmd_train_detector"):
        m[f"harness.{fn}.s"] = (seconds(f"harness.{fn}"), "s")
    m["harness.run_attack_episode.us"] = (us("harness.run_attack_episode"), "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: Path,
                 setup_seconds, sizes: Sizes = FULL) -> dict:
    """Set up, run whole rounds for `seconds`, check them; return the result.

    `setup_seconds()` is called once, right after the set-up, and returns
    the cold set-up time to report (`run.py`: from the process start, at
    the host's nominal speed).
    """
    out_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        wl = WORKLOAD_CLASSES[name](seed, sizes, work)
        wl.setup()
        setup_s = setup_seconds()

        probe = Probe(trace=trace)
        round_s, fails = [], []
        iters, starts = LogHistogram(), LogHistogram()
        attempted = failed = 0
        seeds = set()
        agg = dict(fields=0, impulses=0, kernel_evals=0, saturated=0, accessible=0,
                   clamped=0, steps=0, exp_clamps=0)
        while True:
            k = len(round_s)
            obs = Observations(time_host=not trace)
            probe.observers = wl.observers(obs)
            t0 = time.perf_counter()
            with probe.installed():
                try:
                    rnd = wl.run_round(k, obs)
                except Exception:  # a failed round counts its calls as failed
                    traceback.print_exc(file=sys.stderr)
                    rnd = None
            attempted += wl.ops_per_round
            if rnd is None:
                failed += wl.ops_per_round
                round_s.append(time.perf_counter() - t0)
            else:
                round_s.append(rnd.seconds)
                if not trace:
                    iters.add(wl.iters_ns(obs))
                    starts.add(wl.starts_ns(obs))
                fails += [f"round {k}: {msg}" for msg in wl.check_round(k, obs, rnd)]
            if trace:
                seeds.update(obs.field_seeds)
            agg["fields"] += len(obs.field_seeds)
            agg["impulses"] += sum(obs.impulses)
            agg["kernel_evals"] += obs.kernel_evals
            if obs.steps:
                sat, acc = eps_saturation(obs, wl.access_mask, wl.eps)
                agg["saturated"] += sat
                agg["accessible"] += acc
            agg["clamped"] += sum(s.clamped for s in obs.steps)
            agg["steps"] += len(obs.steps)
            agg["exp_clamps"] += obs.exp_clamps
            if sum(round_s) >= seconds:
                break
        agg["distinct_seeds"] = len(seeds)
        fails += wl.check_run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = {"iter_norm_ms": iters.quantile_ms(0.5), "start_norm_ms": starts.quantile_ms(0.5)}
    if not trace:
        fails += [f"no samples timed for {key}" for key, v in timings.items() if v is None]
    for msg in fails:
        print(f"CHECK FAILED [{name}] {msg}", file=sys.stderr)
    rounds = len(round_s)
    if trace:
        metrics = _per_layer(probe, agg, rounds)
        probe.write_spans(out_root / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "iter_norm_ms": {"value": timings["iter_norm_ms"], "unit": "ms"},
            "start_norm_ms": {"value": timings["start_norm_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    info = {"round_s": round_s, "iterations": iters.n, "starts": starts.n,
            "setup_s": setup_s, "digest": wl.digest}
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info
