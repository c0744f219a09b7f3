from dataclasses import replace

import numpy as np
import pytest

from gridevade import ddpg, neural
from gridevade.ddpg import (
    DdpgAgent,
    Policy,
    ReplayBuffer,
    act,
    make_agent,
    soft_update,
    train,
    train_step,
)

from conftest import shipped

BOUNDS = ((0.05, 2.0), (0.05, 5.0), (0.0, 3.1))


class ToyEnv:
    """Analytic 1-D continuous-control task: reward = -(a - target)^2.

    State is constant; the optimum return is exactly 0 at a = target.
    Exposes the same reset/step surface as AttackEnv.
    """

    bounds = ((-1.0, 1.0),)

    def __init__(self, target=0.5, episode_len=5):
        self.target = target
        self.episode_len = episode_len

    def reset(self):
        self._k = 0
        return _ToyState()

    def step(self, action):
        self._k += 1
        r = -float((action[0] - self.target) ** 2)
        done = self._k >= self.episode_len

        class Outcome:
            pass

        out = Outcome()
        out.next_state = _ToyState()
        out.reward = r
        out.done = done
        out.info = {}
        return out


class _ToyState:
    def flatten(self):
        return np.array([1.0])


def weight_grad(net, grad, k):
    """Layer k's weight gradient, read from `grad` through net.layout."""
    w, shape, _ = net.layout[k]
    return grad[w].reshape(shape)


def new_agent(state_dim, action_bounds, seed, **kw):
    """make_agent under the shipped `agent` section, with `kw` laid over it."""
    cfg = shipped()
    return make_agent(state_dim, action_bounds, seed=seed, **{
        "hidden": cfg.agent_hidden, "gamma": cfg.agent_gamma, "tau": cfg.agent_tau,
        "actor_lr": cfg.actor_lr, "critic_lr": cfg.critic_lr, **kw})


def train_config(**kw):
    """The shipped training config, but exploring from sigma 0.2; `kw` laid over it."""
    return replace(shipped().train_config, **{"sigma_start": 0.2, **kw})


def toy_agent(seed):
    return make_agent(state_dim=1, action_bounds=ToyEnv.bounds, seed=seed,
                      hidden=(32, 32), gamma=0.9, tau=0.01,
                      actor_lr=3e-4, critic_lr=3e-3)


class ListReplayBuffer:
    """Reference: a list of transition tuples, stacked at sampling time."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._data = []
        self._pos = 0

    def __len__(self):
        return len(self._data)

    def store(self, state, action, reward, next_state, done):
        item = (np.asarray(state, dtype=float), np.asarray(action, dtype=float),
                float(reward), np.asarray(next_state, dtype=float), float(done))
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._pos] = item
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, batch_size):
        idx = self._rng.integers(0, len(self._data), size=batch_size)
        s, a, r, s2, d = zip(*(self._data[i] for i in idx))
        return (np.stack(s), np.stack(a), np.array(r), np.stack(s2), np.array(d))


class TestReplayBuffer:
    def make(self, capacity=4, seed=0):
        return ReplayBuffer(capacity, seed=seed)

    def tr(self, k):
        return (np.full(2, k), np.full(1, k), float(k), np.full(2, k + 1), 0.0)

    def test_fifo_eviction(self):
        buf = self.make(capacity=2)
        for k in range(3):
            buf.store(*self.tr(k))
        assert len(buf) == 2
        seen = {float(v) for _ in range(32) for v in buf.sample(2)[0][:, 0]}
        assert seen == {1.0, 2.0}

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="buffer holds"):
            self.make().sample(1)

    def test_seeded_sampling_reproducible(self):
        bufs = [self.make(capacity=8, seed=3) for _ in range(2)]
        for buf in bufs:
            for k in range(8):
                buf.store(*self.tr(k))
        a = bufs[0].sample(4)
        b = bufs[1].sample(4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_matches_list_of_tuples_reference(self):
        # growth past the initial rows and wrap-around at capacity
        capacity = 2 * ReplayBuffer.INITIAL_ROWS + 100
        buf = self.make(capacity=capacity, seed=11)
        ref = ListReplayBuffer(capacity, seed=11)
        rng = np.random.default_rng(12)
        edges = (1023, 1024, 1025, capacity - 1, capacity, 2 * capacity)
        for k in range(3 * capacity):
            t = (rng.normal(size=3), rng.normal(size=2), rng.normal(),
                 rng.normal(size=3), float(rng.random() < 0.1))
            buf.store(*t)
            ref.store(*t)
            if k % 97 == 0 or k in edges:
                batch = min(k + 1, 64)
                got, want = buf.sample(batch), ref.sample(batch)
                assert len(buf) == len(ref)
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), k
                # The sample is a fresh block (train_step writes into it through
                # s.base): scribbling on it must not reach the stored rows,
                # which full-size draws then read back (NaN equals nothing).
                for x in (*got, got[0].base):
                    x[...] = np.nan
                for _ in range(3 if k in edges else 0):
                    n = len(buf)
                    assert all(np.array_equal(x, y)
                               for x, y in zip(buf.sample(n), ref.sample(n))), k

    @pytest.mark.parametrize("field", [0, 1, 3])
    def test_shape_change_raises(self, field):
        buf = self.make()
        buf.store(*self.tr(0))
        bad = list(self.tr(1))
        bad[field] = np.zeros(5)
        with pytest.raises(ValueError, match="shapes"):
            buf.store(*bad)
        assert len(buf) == 1

    def test_capacity_one(self):
        buf = self.make(capacity=1)
        for k in range(3):
            buf.store(*self.tr(k))
            assert len(buf) == 1
            s, a, r, s2, d = buf.sample(1)
            assert s[0, 0] == k and r[0] == k and s2[0, 0] == k + 1
        with pytest.raises(ValueError, match="buffer holds"):
            buf.sample(2)

    def test_sampling_uniformity(self):
        n = 16
        buf = self.make(capacity=n, seed=5)
        for k in range(n):
            buf.store(*self.tr(k))
        counts = np.zeros(n)
        draws = 100_000
        for _ in range(draws // n):
            s, *_ = buf.sample(n)
            for v in s[:, 0]:
                counts[int(v)] += 1
        p = 1 / n
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 5 * sigma)


class TestAct:
    def test_zero_actor_gives_bound_midpoints(self):
        agent = new_agent(3, BOUNDS, seed=0)
        for w in agent.actor.weights:
            w[...] = 0.0
        a = act(agent, np.zeros(3))
        mid = np.array([(lo + hi) / 2 for lo, hi in BOUNDS])
        assert np.allclose(a, mid)

    def test_actions_within_bounds_under_noise(self):
        agent = new_agent(3, BOUNDS, seed=1)
        bounds = np.array(BOUNDS)
        noise_rng = np.random.default_rng(1)
        for _ in range(100):
            # sigma 5: absurdly loud noise
            a = act(agent, np.random.default_rng(0).normal(size=3), noise_rng, sigma=5.0)
            assert np.all(a >= bounds[:, 0]) and np.all(a <= bounds[:, 1])

    def test_noise_comes_from_the_given_rng(self):
        agent = new_agent(3, BOUNDS, seed=1)
        s = np.array([0.1, -0.2, 0.3])
        a, b = (act(agent, s, np.random.default_rng(4), sigma=0.1) for _ in range(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, act(agent, s))
        half_span = 0.5 * (agent.action_bounds[:, 1] - agent.action_bounds[:, 0])
        want = act(agent, s) + np.random.default_rng(4).normal(0.0, 0.1 * half_span)
        assert np.array_equal(a, np.clip(want, agent.action_bounds[:, 0],
                                         agent.action_bounds[:, 1]))

    def test_clamp_matches_np_clip(self, monkeypatch, clamp_inputs):
        agent = new_agent(3, BOUNDS, seed=1)
        low, high = agent.action_bounds[:, 0], agent.action_bounds[:, 1]
        for a in clamp_inputs(3, scale=4.0):
            monkeypatch.setattr(ddpg, "_scale_actions", lambda policy, u: a)
            assert act(agent, np.zeros(3)).tobytes() == np.clip(a, low, high).tobytes()

    def test_deterministic_without_exploration(self):
        agent = new_agent(3, BOUNDS, seed=2)
        s = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(act(agent, s), act(agent, s))

    def test_policy_acts_like_its_agent(self):
        agent = new_agent(3, BOUNDS, seed=5)
        policy = Policy(agent.actor, BOUNDS)
        s = np.array([0.4, 0.0, -0.7])
        assert np.array_equal(act(policy, s), act(agent, s))

    def test_scale_actions_has_the_bits_of_the_unfactored_map(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            low = rng.uniform(-3.0, 1.0, 3)
            bounds = np.stack([low, low + rng.uniform(0.1, 7.0, 3)], axis=1)
            policy = Policy(neural.init_mlp([2, 4, 3], ["relu", "tanh"], seed=0), bounds)
            u = rng.uniform(-1.0, 1.0, (64, 3))
            u[0] = (-1.0, 1.0, 0.0)
            want = bounds[:, 0] + (u + 1.0) * 0.5 * (bounds[:, 1] - bounds[:, 0])
            assert ddpg._scale_actions(policy, u).tobytes() == want.tobytes()

    def test_bounds_are_a_read_only_copy(self):
        bounds = np.array(BOUNDS)
        policy = Policy(new_agent(3, BOUNDS, seed=1).actor, bounds)
        bounds[0, 1] = 99.0
        assert policy.action_bounds.tolist() == [list(b) for b in BOUNDS]
        for array in (policy.action_bounds, policy.low, policy.high, policy.half_span):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_policy_output_must_match_bounds(self):
        actor = neural.init_mlp([3, 4, 2], ["relu", "tanh"], seed=0)
        with pytest.raises(ValueError, match="actor output dim"):
            Policy(actor, BOUNDS)


class TestSoftUpdate:
    def nets(self):
        a = neural.init_mlp([2, 3, 1], ["relu", "identity"], seed=0)
        b = neural.init_mlp([2, 3, 1], ["relu", "identity"], seed=1)
        return a, b

    def test_tau_one_copies(self):
        target, online = self.nets()
        soft_update(target, online, 1.0)
        assert all(np.allclose(t, o) for t, o in zip(target.weights, online.weights))

    def test_tau_zero_keeps_target(self):
        target, online = self.nets()
        before = [w.copy() for w in target.weights]
        soft_update(target, online, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(before, target.weights))

    def test_midpoint(self):
        target = neural.Mlp([1, 1], ["identity"], [np.array([[0.0]])], [np.zeros(1)])
        online = neural.Mlp([1, 1], ["identity"], [np.array([[2.0]])], [np.zeros(1)])
        soft_update(target, online, 0.5)
        assert target.weights[0][0, 0] == pytest.approx(1.0)

    def test_contraction_toward_fixed_online(self):
        target, online = self.nets()
        gaps = []
        for _ in range(10):
            soft_update(target, online, 0.1)
            gaps.append(max(np.max(np.abs(t - o))
                            for t, o in zip(target.weights, online.weights)))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_matches_per_layer_formula(self):
        target = neural.init_mlp([5, 8, 6, 2], ["relu", "tanh", "identity"], seed=2)
        online = neural.init_mlp([5, 8, 6, 2], ["relu", "tanh", "identity"], seed=3)
        ref_w = [w.copy() for w in target.weights]
        ref_b = [b.copy() for b in target.biases]
        rng = np.random.default_rng(4)
        for _ in range(20):
            online.params[...] += rng.normal(scale=0.1, size=online.params.size)
            tau = float(rng.uniform(0.001, 0.5))
            soft_update(target, online, tau)
            for k in range(len(ref_w)):
                ref_w[k] += tau * (online.weights[k] - ref_w[k])
                ref_b[k] += tau * (online.biases[k] - ref_b[k])
            assert all(np.array_equal(t, r) for t, r in zip(target.weights, ref_w))
            assert all(np.array_equal(t, r) for t, r in zip(target.biases, ref_b))

    def test_shape_mismatch(self):
        target = neural.init_mlp([2, 1], ["identity"], seed=0)
        online = neural.init_mlp([3, 1], ["identity"], seed=0)
        with pytest.raises(ValueError):
            soft_update(target, online, 0.5)


def reference_train_step(agent, buffer, batch_size):
    """train_step with its first expressions: critic inputs joined by
    np.hstack, actions scaled out of place, input gradients from a full
    backward pass. Bit for bit what train_step must compute."""
    low, high = agent.action_bounds[:, 0], agent.action_bounds[:, 1]

    def scale(u):
        return low + (u + 1.0) * 0.5 * (high - low)

    s, a, r, s2, done = buffer.sample(batch_size)
    state_dim = s.shape[1]
    u2 = neural.forward(agent.target_actor, s2)
    q2 = neural.forward(agent.target_critic, np.hstack([s2, scale(u2)]))[:, 0]
    y = r + agent.gamma * (1.0 - done) * q2

    sa = np.hstack([s, a])
    q, cache = neural.forward_full(agent.critic, sa)
    q = q[:, 0]
    critic_loss = float(np.mean((q - y) ** 2))
    gout = (2.0 * (q - y) / batch_size)[:, None]
    neural.adam_step(agent.critic_opt, agent.critic,
                     neural.backward(agent.critic, sa, gout, cache=cache))

    u, actor_cache = neural.forward_full(agent.actor, s)
    sa_pi = np.hstack([s, scale(u)])
    q_pi, critic_cache = neural.forward_full(agent.critic, sa_pi)
    actor_objective = float(np.mean(q_pi[:, 0]))
    input_grad = neural.input_gradient(agent.critic, -np.ones((batch_size, 1)) / batch_size,
                                       critic_cache)
    dq_da = input_grad[:, state_dim:]
    span = 0.5 * (agent.action_bounds[:, 1] - agent.action_bounds[:, 0])
    neural.adam_step(agent.actor_opt, agent.actor,
                     neural.backward(agent.actor, s, dq_da * span, cache=actor_cache))

    soft_update(agent.target_actor, agent.actor, agent.tau)
    soft_update(agent.target_critic, agent.critic, agent.tau)
    return critic_loss, actor_objective


def assert_steps_match_reference(got_agent, want_agent, got_buffer, want_buffer,
                                 batch_size, steps=20):
    """train_step on one agent and reference_train_step on its twin agree bit
    for bit, step after step: losses, nets and Adam states."""
    for step in range(steps):
        got = train_step(got_agent, got_buffer, batch_size)
        want = reference_train_step(want_agent, want_buffer, batch_size)
        assert np.array_equal(got, want), step
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(got_agent, name).params,
                                  getattr(want_agent, name).params), (step, name)
        for name in ("actor_opt", "critic_opt"):
            got_opt, want_opt = getattr(got_agent, name), getattr(want_agent, name)
            assert got_opt.step == want_opt.step
            assert np.array_equal(got_opt.m, want_opt.m), (step, name)
            assert np.array_equal(got_opt.v, want_opt.v), (step, name)


class TestTrainStep:
    def fill_buffer(self, agent, n=128, done=0.0, seed=0):
        rng = np.random.default_rng(seed)
        buf = ReplayBuffer(256, seed=seed)
        for _ in range(n):
            s = rng.normal(size=3)
            a = act(agent, s) + rng.normal(0, 0.1, size=3)
            buf.store(s, np.clip(a, [b[0] for b in BOUNDS], [b[1] for b in BOUNDS]),
                      rng.normal(), rng.normal(size=3), done)
        return buf

    def test_bit_identical_to_reference_update(self):
        rng = np.random.default_rng(5)
        agents, buffers = [], []
        for _ in range(2):
            agents.append(new_agent(19, BOUNDS, seed=5))
            buffers.append(ReplayBuffer(512, seed=5))
        for _ in range(300):
            row = (rng.normal(size=19), rng.uniform(*np.transpose(BOUNDS)), rng.normal(),
                   rng.normal(size=19), float(rng.random() < 0.1))
            for buf in buffers:
                buf.store(*row)
        assert_steps_match_reference(*agents, *buffers, 64)

    def test_bit_identical_to_reference_after_restore(self):
        # train() ends by rebinding agent.actor and agent.critic to copies of
        # the best-return nets; later updates must still be the reference's.
        agents = []
        for _ in range(2):
            agent = toy_agent(3)
            first_actor, first_critic = agent.actor, agent.critic
            agent, _ = train(agent, lambda ep, s: ToyEnv(), 6,
                             train_config(batch_size=8, warmup=8, seed=3))
            assert agent.actor is not first_actor and agent.critic is not first_critic
            agents.append(agent)
        rng = np.random.default_rng(6)
        buffers = [ReplayBuffer(128, seed=6) for _ in range(2)]
        for _ in range(100):
            row = (rng.normal(size=1), rng.uniform(-1.0, 1.0, 1), rng.normal(),
                   rng.normal(size=1), float(rng.random() < 0.1))
            for buf in buffers:
                buf.store(*row)
        assert_steps_match_reference(*agents, *buffers, 32)

    def test_insufficient_data(self):
        agent = new_agent(3, BOUNDS, seed=0)
        buf = ReplayBuffer(8, seed=0)
        with pytest.raises(ValueError):
            train_step(agent, buf, 4)

    def test_terminal_batch_target_is_reward(self):
        # with done=1 everywhere the critic regresses straight to r
        agent = new_agent(1, ((-1.0, 1.0),), seed=1)
        buf = ReplayBuffer(8, seed=1)
        buf.store([0.5], [0.2], 1.7, [0.5], 1.0)
        for _ in range(5000):
            loss, _ = train_step(agent, buf, 1)
        q = neural.forward(agent.critic, np.array([0.5, 0.2]))[0]
        assert q == pytest.approx(1.7, abs=1e-3)

    def test_gamma_zero_equivalent_to_terminal(self):
        agent = new_agent(3, BOUNDS, seed=2)
        agent.gamma = 1e-12  # load_config refuses a lambda of 0; use the limit
        buf = self.fill_buffer(agent)
        loss, obj = train_step(agent, buf, 32)
        assert np.isfinite(loss) and np.isfinite(obj)

    def test_single_transition_regression_converges(self):
        agent = new_agent(1, ((-1.0, 1.0),), seed=3, critic_lr=5e-3)
        buf = ReplayBuffer(4, seed=3)
        buf.store([0.3], [-0.4], 0.9, [0.3], 1.0)
        for _ in range(5000):
            loss, _ = train_step(agent, buf, 1)
            if loss < 1e-8:
                break
        q = neural.forward(agent.critic, np.array([0.3, -0.4]))[0]
        assert abs(q - 0.9) < 1e-3

    def test_critic_gradient_matches_finite_difference(self):
        # frozen batch: the loss gradient used by train_step checks out numerically
        agent = new_agent(2, ((-1.0, 1.0),), seed=4)
        rng = np.random.default_rng(4)
        sa = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        out, cache = neural.forward_full(agent.critic, sa)
        gout = (2.0 * (out[:, 0] - y) / 8)[:, None]
        grad = neural.backward(agent.critic, sa, gout, cache=cache)

        def loss_at(net):
            q = neural.forward(net, sa)[:, 0]
            return float(np.mean((q - y) ** 2))

        h = 1e-6
        probe = agent.critic.copy()
        w = probe.weights[0]
        base = w[0, 0]
        w[0, 0] = base + h
        up = loss_at(probe)
        w[0, 0] = base - h
        dn = loss_at(probe)
        assert weight_grad(agent.critic, grad, 0)[0, 0] == pytest.approx(
            (up - dn) / (2 * h), rel=1e-4)


class TestTrainLoop:
    def test_zero_episodes_returns_agent_unchanged(self):
        agent = toy_agent(seed=0)
        before = [w.copy() for w in agent.actor.weights]
        agent, curve = train(agent, lambda ep, seed: ToyEnv(), 0, train_config(seed=0))
        assert curve == []
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))

    def test_toy_env_reaches_near_optimum(self):
        # median best-episode return over 5 seeds within 5% of the optimum (0),
        # measured against the unit reward scale of the task
        bests = []
        for seed in range(5):
            agent = toy_agent(seed)
            cfg = train_config(batch_size=32, warmup=64, sigma_start=0.4,
                              sigma_end=0.05, seed=seed)
            agent, curve = train(agent, lambda ep, s: ToyEnv(), 200, cfg)
            bests.append(max(r["return"] for r in curve))
        assert np.median(bests) >= -0.05 * ToyEnv().episode_len / 5

    def test_deterministic_learning_curve(self):
        def run():
            agent = toy_agent(7)
            cfg = train_config(batch_size=16, warmup=32, seed=7)
            _, curve = train(agent, lambda ep, s: ToyEnv(), 20, cfg)
            return [r["return"] for r in curve]

        assert run() == run()

    def test_curve_fields(self):
        agent = toy_agent(1)
        _, curve = train(agent, lambda ep, s: ToyEnv(), 3,
                         train_config(batch_size=8, warmup=8, seed=1))
        assert {"episode", "return", "discounted_return", "critic_loss"} <= curve[0].keys()
