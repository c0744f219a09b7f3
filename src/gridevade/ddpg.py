"""DDPG agent: actor/critic MLPs, replay buffer, target nets, training loop.

The critic's discount equals the reward-return discount factor, so the
critic estimates exactly the discounted return the environment defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neural
from .attack_env import discounted_return

__all__ = [
    "ReplayBuffer",
    "Policy",
    "DdpgAgent",
    "TrainConfig",
    "make_agent",
    "act",
    "soft_update",
    "train_step",
    "train",
]


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions with uniform sampling.

    Transitions are the rows of one matrix laid out
    [s | a | s' | a' | r | done]; the a' columns are not stored to but give
    `train_step` room for target actions next to s'. The matrix starts at
    `INITIAL_ROWS` rows and doubles up to `capacity` as it fills, so a large
    capacity costs memory only once it is used.
    """

    INITIAL_ROWS = 1024

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._rows = None  # allocated by the first store
        self._size = 0
        self._pos = 0

    def __len__(self):
        return self._size

    def store(self, state, action, reward, next_state, done):
        s, a, s2 = (np.asarray(x, dtype=float) for x in (state, action, next_state))
        if self._rows is None:
            if s.ndim != 1 or a.ndim != 1:
                raise ValueError(f"transition shapes {s.shape}, {a.shape} are not vectors")
            self._state_dim, self._action_dim = len(s), len(a)
            width = 2 * (len(s) + len(a)) + 2
            self._rows = np.empty((min(self.INITIAL_ROWS, self.capacity), width))
        sd, ad = self._state_dim, self._action_dim
        if s.shape != (sd,) or a.shape != (ad,) or s2.shape != (sd,):
            raise ValueError(
                f"transition shapes {[s.shape, a.shape, s2.shape]} differ from the "
                f"stored {[(sd,), (ad,), (sd,)]}"
            )
        rows = len(self._rows)
        if self._pos == rows < self.capacity:
            grown = np.empty((min(2 * rows, self.capacity), self._rows.shape[1]))
            grown[:rows] = self._rows
            self._rows = grown
        row = self._rows[self._pos]
        row[:sd] = s
        row[sd:sd + ad] = a
        row[sd + ad:2 * sd + ad] = s2
        row[-2] = reward
        row[-1] = done
        self._pos = (self._pos + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        """(s, a, r, s', done) of `batch_size` uniform draws.

        All five are views of one freshly gathered block of rows, which is
        `s.base`: writing into them leaves the buffer as it was.
        """
        if self._size < batch_size:
            raise ValueError(
                f"buffer holds {self._size} transitions, need {batch_size}"
            )
        idx = self._rng.integers(0, self._size, size=batch_size)
        block = self._rows[idx]
        sd, ad = self._state_dim, self._action_dim
        return (block[:, :sd], block[:, sd:sd + ad], block[:, -2],
                block[:, sd + ad:2 * sd + ad], block[:, -1])


@dataclass
class Policy:
    """The actor and the (ACTION_DIM, 2) bounds its tanh outputs are scaled onto.

    The bounds are a read-only copy; `low`, `high` and `half_span` (half of
    high - low) are derived from them once, here.
    """

    actor: neural.Mlp
    action_bounds: np.ndarray

    def __post_init__(self):
        self.action_bounds = np.array(self.action_bounds, dtype=float)
        self.action_bounds.flags.writeable = False
        if self.actor.layer_sizes[-1] != self.action_bounds.shape[0]:
            raise ValueError("actor output dim does not match action_bounds")
        self.low, self.high = self.action_bounds.T
        self.half_span = 0.5 * (self.high - self.low)
        self.half_span.flags.writeable = False


@dataclass
class DdpgAgent(Policy):
    critic: neural.Mlp
    target_actor: neural.Mlp
    target_critic: neural.Mlp
    actor_opt: neural.AdamState
    critic_opt: neural.AdamState
    gamma: float
    tau: float

    def __post_init__(self):
        super().__post_init__()
        if self.critic.layer_sizes[0] != self.actor.layer_sizes[0] + self.action_bounds.shape[0]:
            raise ValueError("critic input dim must be state dim + action dim")


def make_agent(state_dim: int, action_bounds, seed: int = 0, *, hidden, gamma: float,
               tau: float, actor_lr: float, critic_lr: float) -> DdpgAgent:
    bounds = np.asarray(action_bounds, dtype=float)
    action_dim = bounds.shape[0]
    ss = np.random.SeedSequence(seed)
    actor_seed, critic_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    actor = neural.init_mlp([state_dim, *hidden, action_dim],
                            ["relu"] * len(hidden) + ["tanh"], seed=actor_seed)
    critic = neural.init_mlp([state_dim + action_dim, *hidden, 1],
                             ["relu"] * len(hidden) + ["identity"], seed=critic_seed)
    return DdpgAgent(
        actor=actor,
        critic=critic,
        target_actor=actor.copy(),
        target_critic=critic.copy(),
        actor_opt=neural.AdamState.for_net(actor, lr=actor_lr),
        critic_opt=neural.AdamState.for_net(critic, lr=critic_lr),
        action_bounds=bounds,
        gamma=gamma,
        tau=tau,
    )


def _scale_actions(policy: Policy, u: np.ndarray, out=None) -> np.ndarray:
    """Map actor outputs in [-1, 1] affinely onto the action bounds; with
    `out`, write them there."""
    # (u + 1) * (0.5 * span) has the bits of (u + 1) * 0.5 * span: halving is exact.
    return np.add(policy.low, (u + 1.0) * policy.half_span, out=out)


def act(policy: Policy, state, noise_rng: np.random.Generator | None = None,
        sigma: float = 0.0) -> np.ndarray:
    """The policy's action for the flat state vector `state`; with `noise_rng`,
    plus Gaussian noise of `sigma` half-spans of the bounds per dimension.
    Clamped to the bounds."""
    s = np.asarray(state, dtype=float).ravel()  # a view of an already-flat vector
    u = neural.forward(policy.actor, s)
    a = _scale_actions(policy, u)
    if noise_rng is not None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        # normal(0, scale) draws loc + scale * z element by element: these
        # are its bits and its generator state, without its array-scale broadcast.
        noise = noise_rng.standard_normal(len(a))
        noise *= sigma * policy.half_span
        a = a + noise
    return np.minimum(np.maximum(a, policy.low), policy.high)


def soft_update(target: neural.Mlp, online: neural.Mlp, tau: float) -> neural.Mlp:
    """target <- tau * online + (1 - tau) * target, element-wise, in place:
    target += tau * (online - target)."""
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("target and online networks differ in shape")
    params = target.params
    step = np.subtract(online.params, params)
    step *= tau
    params += step
    return target


def train_step(agent: DdpgAgent, buffer: ReplayBuffer, batch_size: int):
    """One critic regression + actor policy-gradient step + soft updates.

    Returns (critic_loss, actor_objective).
    """
    s, a, r, s2, done = buffer.sample(batch_size)
    # The critic's inputs are column views of the sampled block
    # [s | a | s' | a' | r | done]: s‖a and s'‖a', joined without a copy.
    state_dim, width = s.shape[1], s.shape[1] + a.shape[1]
    sa = s.base[:, :width]
    s2a2 = s.base[:, width:2 * width]

    # Critic target: r + gamma * (1 - done) * Q'(s', mu'(s')).
    u2 = neural.forward(agent.target_actor, s2)
    _scale_actions(agent, u2, out=s2a2[:, state_dim:])
    q2 = neural.forward(agent.target_critic, s2a2)[:, 0]
    y = r + agent.gamma * (1.0 - done) * q2

    q, cache = neural.forward_full(agent.critic, sa)
    err = q[:, 0] - y
    critic_loss = float(np.add.reduce(err ** 2) / batch_size)
    gout = (2.0 * err / batch_size)[:, None]
    grads = neural.backward(agent.critic, sa, gout, cache=cache)
    neural.adam_step(agent.critic_opt, agent.critic, grads)

    # Actor ascends Q(s, mu(s)): chain dQ/da through the bound mapping. The
    # policy's actions overwrite the a columns, which the critic is done with.
    u, actor_cache = neural.forward_full(agent.actor, s)
    _scale_actions(agent, u, out=a)
    q_pi, critic_cache = neural.forward_full(agent.critic, sa)
    actor_objective = float(np.add.reduce(q_pi[:, 0]) / batch_size)
    input_grad = neural.input_gradient(agent.critic,
                                       np.full((batch_size, 1), -1.0 / batch_size),
                                       critic_cache)
    dq_da = input_grad[:, state_dim:]
    actor_grads = neural.backward(agent.actor, s, dq_da * agent.half_span, cache=actor_cache)
    neural.adam_step(agent.actor_opt, agent.actor, actor_grads)

    soft_update(agent.target_actor, agent.actor, agent.tau)
    soft_update(agent.target_critic, agent.critic, agent.tau)
    return critic_loss, actor_objective


@dataclass
class TrainConfig:
    """The `training` section of a run config, less `episodes` and `restarts`."""

    batch_size: int
    buffer_capacity: int
    warmup: int          # transitions before updates start
    sigma_start: float
    sigma_end: float
    seed: int = 0


def train(agent: DdpgAgent, env_factory, episodes: int, config: TrainConfig):
    """Run reset/act/step/store/train_step episodes; deterministic per seed.

    `env_factory(episode_index, episode_seed)` must return a fresh (or
    reusable) environment. Returns (agent, curve) where curve rows are
    dicts with episode, return, discounted_return, critic_loss; the
    best-return nets are restored into the agent before returning.
    """
    buffer = ReplayBuffer(config.buffer_capacity, seed=config.seed)
    ss = np.random.SeedSequence(config.seed)
    episode_seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(max(episodes, 1))]
    noise_rng = np.random.default_rng(episode_seeds[0] ^ 0x9E3779B9)

    curve = []
    best_return = -np.inf
    best_nets = None
    for ep in range(episodes):
        frac = ep / max(episodes - 1, 1)
        sigma = config.sigma_start + frac * (config.sigma_end - config.sigma_start)
        env = env_factory(ep, episode_seeds[ep])
        state = env.reset().flatten()
        rewards, losses = [], []
        done = False
        while not done:
            action = act(agent, state, noise_rng, sigma)
            outcome = env.step(action)
            next_state = outcome.next_state.flatten()
            buffer.store(state, action, outcome.reward, next_state, outcome.done)
            rewards.append(outcome.reward)
            if len(buffer) >= max(config.batch_size, config.warmup):
                critic_loss, _ = train_step(agent, buffer, config.batch_size)
                if not math.isfinite(critic_loss):
                    raise RuntimeError(
                        f"non-finite critic loss at episode {ep}: {critic_loss}"
                    )
                losses.append(critic_loss)
            state = next_state
            done = outcome.done
        ep_return = float(np.sum(rewards))
        curve.append({
            "episode": ep,
            "return": ep_return,
            "discounted_return": discounted_return(rewards, agent.gamma),
            "critic_loss": float(np.mean(losses)) if losses else float("nan"),
        })
        if ep_return > best_return:
            best_return = ep_return
            best_nets = (agent.actor.copy(), agent.critic.copy())
    if best_nets is not None:
        agent.actor, agent.critic = best_nets
    return agent, curve
