"""DDPG agent: actor/critic MLPs, replay buffer, target nets, training loop.

The critic's discount equals the reward-return discount factor, so the
critic estimates exactly the discounted return the environment defines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural
from .attack_env import AgentState, discounted_return

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

    Transitions live in five column arrays (s, a, r, s', done). They start
    at `INITIAL_ROWS` rows and double up to `capacity` as they fill, so a
    large capacity costs memory only once it is used.
    """

    INITIAL_ROWS = 1024

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._columns = None  # allocated by the first store
        self._size = 0
        self._pos = 0

    def __len__(self):
        return self._size

    def store(self, state, action, reward, next_state, done):
        row = (np.asarray(state, dtype=float), np.asarray(action, dtype=float),
               float(reward), np.asarray(next_state, dtype=float), float(done))
        if self._columns is None:
            rows = min(self.INITIAL_ROWS, self.capacity)
            self._columns = [np.empty((rows, *np.shape(x))) for x in row]
        s, a, _, s2, _ = self._columns
        if (row[0].shape != s.shape[1:] or row[1].shape != a.shape[1:]
                or row[3].shape != s2.shape[1:]):
            raise ValueError(
                f"transition shapes {[np.shape(x) for x in row]} differ from the "
                f"stored {[c.shape[1:] for c in self._columns]}"
            )
        rows = len(s)
        if self._pos == rows < self.capacity:
            grown = min(2 * rows, self.capacity)
            for i, c in enumerate(self._columns):
                self._columns[i] = np.empty((grown, *c.shape[1:]))
                self._columns[i][:rows] = c
        for c, x in zip(self._columns, row):
            c[self._pos] = x
        self._pos = (self._pos + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        if self._size < batch_size:
            raise ValueError(
                f"buffer holds {self._size} transitions, need {batch_size}"
            )
        idx = self._rng.integers(0, self._size, size=batch_size)
        return tuple(c[idx] for c in self._columns)


@dataclass
class Policy:
    """The actor and the (ACTION_DIM, 2) bounds its tanh outputs are scaled onto."""

    actor: neural.Mlp
    action_bounds: np.ndarray

    def __post_init__(self):
        self.action_bounds = np.asarray(self.action_bounds, dtype=float)
        if self.actor.layer_sizes[-1] != self.action_bounds.shape[0]:
            raise ValueError("actor output dim does not match action_bounds")


@dataclass
class DdpgAgent(Policy):
    critic: neural.Mlp
    target_actor: neural.Mlp
    target_critic: neural.Mlp
    actor_opt: neural.AdamState
    critic_opt: neural.AdamState
    gamma: float = 0.95
    tau: float = 0.005

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.gamma <= 1):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (0 < self.tau <= 1):
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.critic.layer_sizes[0] != self.actor.layer_sizes[0] + self.action_bounds.shape[0]:
            raise ValueError("critic input dim must be state dim + action dim")


def make_agent(state_dim: int, action_bounds, seed: int = 0, hidden=(64, 64),
               gamma: float = 0.95, tau: float = 0.005,
               actor_lr: float = 1e-4, critic_lr: float = 1e-3) -> DdpgAgent:
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


def _scale_actions(policy: Policy, u: np.ndarray) -> np.ndarray:
    """Map actor outputs in [-1, 1] affinely onto the action bounds."""
    low, high = policy.action_bounds[:, 0], policy.action_bounds[:, 1]
    return low + (u + 1.0) * 0.5 * (high - low)


def act(policy: Policy, state, noise_rng: np.random.Generator | None = None,
        sigma: float = 0.0) -> np.ndarray:
    """The policy's action; with `noise_rng`, plus Gaussian noise of `sigma`
    half-spans of the bounds per dimension. Clamped to the bounds."""
    s = state.flatten() if isinstance(state, AgentState) else state
    s = np.ravel(np.asarray(s, dtype=float))  # a view of an already-flat vector
    u = neural.forward(policy.actor, s)
    a = _scale_actions(policy, u)
    low, high = policy.action_bounds[:, 0], policy.action_bounds[:, 1]
    if noise_rng is not None:
        a = a + noise_rng.normal(0.0, sigma * 0.5 * (high - low))
    return np.minimum(np.maximum(a, low), high)


def soft_update(target: neural.Mlp, online: neural.Mlp, tau: float) -> neural.Mlp:
    """target <- tau * online + (1 - tau) * target, element-wise."""
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("target and online networks differ in shape")
    params = target.params
    params += tau * (online.params - params)
    return target


def train_step(agent: DdpgAgent, buffer: ReplayBuffer, batch_size: int):
    """One critic regression + actor policy-gradient step + soft updates.

    Returns (critic_loss, actor_objective).
    """
    s, a, r, s2, done = buffer.sample(batch_size)
    state_dim = s.shape[1]

    # Critic target: r + gamma * (1 - done) * Q'(s', mu'(s')).
    u2 = neural.forward(agent.target_actor, s2)
    a2 = _scale_actions(agent, u2)
    q2 = neural.forward(agent.target_critic, np.concatenate((s2, a2), axis=1))[:, 0]
    y = r + agent.gamma * (1.0 - done) * q2

    sa = np.concatenate((s, a), axis=1)
    q, cache = neural.forward_full(agent.critic, sa)
    err = q[:, 0] - y
    critic_loss = float(np.mean(err ** 2))
    gout = (2.0 * err / batch_size)[:, None]
    grads = neural.backward(agent.critic, sa, gout, cache=cache)
    neural.adam_step(agent.critic_opt, agent.critic, grads)

    # Actor ascends Q(s, mu(s)): chain dQ/da through the bound mapping.
    u, actor_cache = neural.forward_full(agent.actor, s)
    a_pi = _scale_actions(agent, u)
    q_pi, critic_cache = neural.forward_full(agent.critic, np.concatenate((s, a_pi), axis=1))
    actor_objective = float(np.mean(q_pi[:, 0]))
    input_grad = neural.input_gradient(agent.critic,
                                       np.full((batch_size, 1), -1.0 / batch_size),
                                       critic_cache)
    dq_da = input_grad[:, state_dim:]
    span = 0.5 * (agent.action_bounds[:, 1] - agent.action_bounds[:, 0])
    actor_grads = neural.backward(agent.actor, s, dq_da * span, cache=actor_cache)
    neural.adam_step(agent.actor_opt, agent.actor, actor_grads)

    soft_update(agent.target_actor, agent.actor, agent.tau)
    soft_update(agent.target_critic, agent.critic, agent.tau)
    return critic_loss, actor_objective


@dataclass
class TrainConfig:
    batch_size: int = 64
    buffer_capacity: int = 50_000
    warmup: int = 256            # transitions before updates start
    sigma_start: float = 0.2
    sigma_end: float = 0.02
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
                if not np.isfinite(critic_loss):
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
