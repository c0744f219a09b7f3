"""MDP environment wrapping detector, trace, and Gabor perturbation.

Each step turns an RL action (sigma, F0, omega0) into a constrained
per-bus perturbation on attacker-accessible buses, queries the detector
black-box on the compromised window, and emits state, reward, and
termination. The env also writes the episode record: `reset` fills it
with the clean replay and each `step` overwrites its row (`record`).
The detector is only touched through `posterior` and `posterior_series`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import detector as det
from . import gabor
from .grid_traces import TraceScenario, generate_trace

__all__ = [
    "RewardParams",
    "AttackConfig",
    "AgentState",
    "StepOutcome",
    "EpisodeDone",
    "AttackEnv",
    "project_perturbation",
    "misdirection",
    "reward",
    "discounted_return",
    "NOISE_DOMAIN",
    "ACTION_DIM",
    "FIELD_SEED_POLICIES",
]

# Query coordinates reachable for the 9-bus case: |v| in pu, ln(bus+1).
NOISE_DOMAIN = (0.0, 1.2, 0.0, math.log(10.0))
ACTION_DIM = 3
OMEGA_MAX = math.pi * (1.0 - 1e-9)
EXP_CLAMP = 50.0

# Impulse layout is drawn once per field seed over the domain padded by the
# widest kernel support, so sweeping sigma never resamples positions.
LAYOUT_PAD = 3.0 / gabor.SIGMA_FLOOR


@functools.lru_cache(maxsize=1)
def _layout(density: float, seed: int) -> gabor.GaborField:
    """The impulse layout of `seed`, under a placeholder kernel.

    With a fixed pad, `build_field` never reads the kernel, so one draw
    serves every action; the last layout is kept for the next step, env or
    episode that asks for the same seed.
    """
    return gabor.build_field(gabor.GaborKernelParams(), density, NOISE_DOMAIN,
                             seed=seed, pad=LAYOUT_PAD)


DEFAULT_ACTION_BOUNDS = ((0.05, 2.0), (0.05, 5.0), (0.0, OMEGA_MAX))
FIELD_SEED_POLICIES = ("fixed", "per-episode", "per-step")


def _domain_area(domain) -> float:
    x_min, x_max, y_min, y_max = domain
    return (x_max - x_min) * (y_max - y_min)


# Expected impulse count over the unpadded domain is 64 by default.
DEFAULT_IMPULSE_DENSITY = 64.0 / _domain_area(NOISE_DOMAIN)


@dataclass
class RewardParams:
    k0: float = 10.0          # 1/pu
    x_hat: float = 1.0        # pu
    lam: float = 0.95         # discount factor of the return
    horizon_frames: int | None = None  # None = full trace
    penalty_abs: bool = False          # apply |.| inside both exponents
    use_compromised_x: bool = False    # penalty on compromised instead of clean x

    def __post_init__(self):
        if not math.isfinite(self.k0):
            raise ValueError(f"k0 must be finite, got {self.k0}")
        if self.x_hat <= 0:
            raise ValueError(f"x_hat must be > 0, got {self.x_hat}")
        if not (0 < self.lam <= 1):
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if self.horizon_frames is not None and self.horizon_frames < 1:
            raise ValueError(f"horizon_frames must be >= 1, got {self.horizon_frames}")


@dataclass
class AttackConfig:
    epsilon: float = 0.01
    access_mask: np.ndarray | None = None  # None = all buses accessible
    action_bounds: tuple = DEFAULT_ACTION_BOUNDS
    reward_params: RewardParams = field(default_factory=RewardParams)
    impulse_density: float = DEFAULT_IMPULSE_DENSITY
    field_seed_policy: str = "per-episode"  # fixed | per-episode | per-step
    field_seed: int = 0                      # used by the fixed policy
    kernel_magnitude: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.access_mask is not None:
            self.access_mask = np.asarray(self.access_mask, dtype=bool)
            if not self.access_mask.any():
                raise ValueError("access_mask must allow at least one bus")
        bounds = np.asarray(self.action_bounds, dtype=float)
        if bounds.shape != (ACTION_DIM, 2):
            raise ValueError(f"action_bounds must be {ACTION_DIM} (low, high) pairs")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError("action_bounds require low < high per dimension")
        if not (0 <= bounds[2, 0] and bounds[2, 1] < math.pi):
            raise ValueError("omega0 bounds must lie inside [0, pi)")
        if self.field_seed_policy not in FIELD_SEED_POLICIES:
            raise ValueError(f"unknown field_seed_policy '{self.field_seed_policy}'")
        if self.impulse_density <= 0:
            raise ValueError(f"impulse_density must be > 0, got {self.impulse_density}")


@dataclass
class AgentState:
    """RL state: measurements, current perturbation, misdirection scalar."""

    x: np.ndarray  # per-bus |measurement| (pu)
    n: np.ndarray  # per-bus perturbation (pu)
    c: float       # detector misdirection in [0, 1]

    def __post_init__(self):
        if len(self.x) != len(self.n):
            raise ValueError("x and n must have equal length")
        if not (0 <= self.c <= 1):
            raise ValueError(f"c must lie in [0, 1], got {self.c}")

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.x, self.n, [self.c]])

    @property
    def dim(self) -> int:
        return 2 * len(self.x) + 1


@dataclass
class StepOutcome:
    next_state: AgentState
    reward: float
    done: bool
    info: dict


class EpisodeDone(RuntimeError):
    """Raised when step() is called after the episode terminated."""


def project_perturbation(n, epsilon: float) -> np.ndarray:
    """Component-wise clamp into [-epsilon, +epsilon]."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    # np.clip's bits, NaN and -0.0 included, without its Python wrapper. The
    # per-step clamps all use this form; it matches np.clip for array bounds
    # and for scalar bounds other than +-0.0.
    return np.minimum(np.maximum(np.asarray(n, dtype=float), -epsilon), epsilon)


def misdirection(label: int, attacked_posterior: float) -> float:
    """|label - posterior|: how far the detector is pulled from the truth."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    if not (0 <= attacked_posterior <= 1):
        raise ValueError(f"posterior must lie in [0, 1], got {attacked_posterior}")
    return abs(label - attacked_posterior)


def reward(c: float, x, n, params: RewardParams, clamp_counter: list | None = None) -> float:
    """Misdirection minus exponential deviation and perturbation penalties.

    Exponent arguments are clamped to +-50 against overflow; each clamp
    increments `clamp_counter[0]` when a counter is supplied.
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    if x.shape != n.shape:
        raise ValueError(f"x shape {x.shape} != n shape {n.shape}")
    dev = x - params.x_hat
    if params.penalty_abs:
        dev = np.abs(dev)
        n = np.abs(n)
    args = np.concatenate([params.k0 * dev, params.k0 * n])
    clipped = np.minimum(np.maximum(args, -EXP_CLAMP), EXP_CLAMP)
    if clamp_counter is not None:
        clamp_counter[0] += int(np.sum(clipped != args))
    return float(c - np.sum(np.exp(clipped)))


def discounted_return(rewards, lam: float) -> float:
    """Discounted sum of a reward sequence from its first element."""
    if not (0 < lam <= 1):
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    return float(sum(lam**i * r for i, r in enumerate(rewards)))


class AttackEnv:
    """One episode = one trace; one action per measurement frame."""

    def __init__(self, scenario: TraceScenario, detector_model: det.DetectorModel,
                 config: AttackConfig, seed: int = 0):
        if detector_model.bus_count != scenario.case.bus_count:
            raise ValueError("detector bus_count does not match scenario")
        self.scenario = scenario
        self.detector = detector_model
        self.config = config
        self.seed = seed
        self.bus_count = scenario.case.bus_count
        self.window = detector_model.window
        mask = config.access_mask
        self.access_mask = (np.ones(self.bus_count, dtype=bool)
                            if mask is None else mask)
        if len(self.access_mask) != self.bus_count:
            raise ValueError("access_mask length does not match bus_count")
        self._hidden_buses = np.flatnonzero(~self.access_mask)
        self._action_low, self._action_high = np.asarray(config.action_bounds, dtype=float).T
        self.exp_clamp_count = 0
        self._clamp_counter = [0]
        self._episode = -1
        self._done = True

        self.trace = generate_trace(scenario)
        t0 = self.window - 1
        max_steps = self.trace.n_frames - self.window
        hf = config.reward_params.horizon_frames
        if hf is not None and hf > max_steps:
            raise ValueError(
                f"horizon_frames {hf} exceeds the {max_steps} steps of the trace")
        self.t_f = max_steps if hf is None else hf
        if self.t_f < 1:
            raise ValueError("trace too short for one environment step")
        self._t0 = t0
        # Clean posteriors of frames t0..end.
        self.clean_posterior = det.posterior_series(self.detector, self.trace)

    # -- internal helpers -------------------------------------------------

    def _field_seed(self) -> int:
        policy = self.config.field_seed_policy
        if policy == "fixed":
            return self.config.field_seed
        if policy == "per-episode":
            return self._episode_field_seed
        return int(np.random.SeedSequence(
            [self.seed, self._episode, self._step_idx]).generate_state(1)[0])

    def _build_field(self, action) -> gabor.GaborField:
        sigma, f0, omega0 = (float(a) for a in action)
        kernel = gabor.GaborKernelParams(K=self.config.kernel_magnitude,
                                         sigma=sigma, F0=f0, omega0=omega0)
        density, seed = self.config.impulse_density, self._field_seed()
        if self.config.field_seed_policy == "per-step":
            # Every step has a new seed: a kept layout would never be reused.
            return gabor.build_field(kernel, density, NOISE_DOMAIN, seed=seed, pad=LAYOUT_PAD)
        return _layout(density, seed).with_kernel(kernel)

    def _attacked_posterior(self, t: int) -> float:
        feats = det.featurize_window(self._compromised[t - self.window + 1 : t + 1])
        return det.posterior(self.detector, feats)

    def clamp_action(self, action) -> tuple[np.ndarray, bool]:
        a = np.asarray(action, dtype=float)
        if a.shape != (ACTION_DIM,):
            raise ValueError(f"action must have {ACTION_DIM} components")
        clamped = np.minimum(np.maximum(a, self._action_low), self._action_high)
        return clamped, bool(np.any(clamped != a))

    # -- public API -------------------------------------------------------

    def reset(self) -> AgentState:
        """Start a fresh episode on the (fixed) scenario trace."""
        self._episode += 1
        self._step_idx = 0
        if self.config.field_seed_policy == "per-episode":
            self._episode_field_seed = int(
                np.random.SeedSequence([self.seed, self._episode]).generate_state(1)[0])
        self._done = False
        self._compromised = self.trace.frames.copy()
        frames = np.arange(self._t0 + 1, self._t0 + 1 + self.t_f)
        labels = self.trace.labels[frames]
        clean = self.clean_posterior[1 : 1 + self.t_f]
        # The episode record; step i writes row i, the rest read as the clean replay.
        self._record = {
            "frame": frames,
            "time": self.trace.times[frames],
            "label": labels,
            "reward": np.zeros(self.t_f),
            "c": np.abs(labels - clean),
            "clean_posterior": clean,
            "attacked_posterior": clean.copy(),
            "perturbations": np.zeros((self.t_f, self.bus_count)),
        }
        x0 = np.abs(self.trace.frames[self._t0])
        c0 = misdirection(int(self.trace.labels[self._t0]),
                          float(self.clean_posterior[0]))
        return AgentState(x=x0, n=np.zeros(self.bus_count), c=c0)

    def step(self, action) -> StepOutcome:
        """Apply one perturbation action to the next frame."""
        if self._done:
            raise EpisodeDone("episode is over; call reset()")
        action, was_clamped = self.clamp_action(action)
        row = self._step_idx
        self._step_idx += 1
        t = self._t0 + self._step_idx
        rec = self._record
        field = self._build_field(action)

        clean_frame = self.trace.frames[t]
        n = project_perturbation(gabor.perturbation_vector(field, clean_frame),
                                 self.config.epsilon)
        if self._hidden_buses.size:
            n[self._hidden_buses] = 0.0
        self._compromised[t] = clean_frame + n

        p_attacked = self._attacked_posterior(t)
        label = int(rec["label"][row])
        c_next = misdirection(label, p_attacked)
        rp = self.config.reward_params
        x_pen = self._compromised[t] if rp.use_compromised_x else clean_frame
        r = reward(c_next, x_pen, n, rp, clamp_counter=self._clamp_counter)
        self.exp_clamp_count = self._clamp_counter[0]

        rec["reward"][row] = r
        rec["c"][row] = c_next
        rec["attacked_posterior"][row] = p_attacked
        rec["perturbations"][row] = n

        self._done = self._step_idx >= self.t_f
        next_state = AgentState(x=np.abs(clean_frame), n=n, c=c_next)
        info = {
            "frame": t,
            "label": label,
            "action": action,
            "action_clamped": was_clamped,
            "perturbation": n,
            "clean_posterior": float(rec["clean_posterior"][row]),
            "attacked_posterior": p_attacked,
        }
        return StepOutcome(next_state=next_state, reward=r, done=self._done, info=info)

    def record(self) -> dict:
        """Copy of the episode record, plus `max_abs_n` and `compromised_frames`.

        Rows not yet stepped read as the clean replay."""
        rec = {k: v.copy() for k, v in self._record.items()}
        rec["max_abs_n"] = np.max(np.abs(rec["perturbations"]), axis=1)
        rec["compromised_frames"] = self._compromised[rec["frame"]]
        return rec

    @property
    def state_dim(self) -> int:
        return 2 * self.bus_count + 1
