import math

import numpy as np
import pytest

from gridevade import attack_env, gabor
from gridevade import detector as det
from gridevade.attack_env import (
    ACTION_DIM,
    EXP_CLAMP,
    LAYOUT_PAD,
    NOISE_DOMAIN,
    AgentState,
    AttackConfig,
    AttackEnv,
    EpisodeDone,
    RewardParams,
    discounted_return,
    misdirection,
    project_perturbation,
    reward,
)
from gridevade.grid_traces import windows


def make_env(scenario, model, seed=0, **cfg_kw):
    return AttackEnv(scenario, model, AttackConfig(**cfg_kw), seed=seed)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def eq6_oracle(c, x, n, k0, x_hat):
    """Independent literal evaluation of the reward formula."""
    return (c
            - sum(math.exp(k0 * (xi - x_hat)) for xi in x)
            - sum(math.exp(k0 * ni) for ni in n))


class TestConfigValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(epsilon=0.0)

    def test_mask_needs_one_bus(self):
        with pytest.raises(ValueError, match="access_mask"):
            AttackConfig(access_mask=np.zeros(9, dtype=bool))

    def test_bounds_ordering(self):
        with pytest.raises(ValueError, match="low < high"):
            AttackConfig(action_bounds=((1.0, 0.5), (0.05, 5.0), (0.0, 3.0)))

    def test_omega_bounds_inside_half_circle(self):
        with pytest.raises(ValueError, match="omega0"):
            AttackConfig(action_bounds=((0.05, 2.0), (0.05, 5.0), (0.0, 3.5)))

    def test_reward_params_validation(self):
        with pytest.raises(ValueError, match="lam"):
            RewardParams(lam=0.0)
        with pytest.raises(ValueError, match="x_hat"):
            RewardParams(x_hat=0.0)
        with pytest.raises(ValueError, match="horizon_frames"):
            RewardParams(horizon_frames=0)


class TestAgentState:
    def test_flatten_dimension(self):
        s = AgentState(x=np.ones(9), n=np.zeros(9), c=0.3)
        assert s.flatten().shape == (19,)
        assert s.dim == 19

    def test_c_range_enforced(self):
        with pytest.raises(ValueError, match="c"):
            AgentState(x=np.ones(2), n=np.zeros(2), c=1.5)


class TestProjection:
    def test_identity_inside_bound(self):
        n = np.array([0.005, -0.003, 0.0])
        assert np.array_equal(project_perturbation(n, 0.01), n)

    def test_clamps_positive(self):
        assert project_perturbation(np.array([0.05]), 0.01)[0] == 0.01

    def test_clamps_negative(self):
        assert project_perturbation(np.array([-0.05]), 0.01)[0] == -0.01

    @pytest.mark.parametrize("epsilon", [0.01, 1e-12, 50.0])
    def test_bits_match_np_clip(self, clamp_inputs, epsilon):
        for n in clamp_inputs(9, scale=2 * epsilon):
            assert same_bits(project_perturbation(n, epsilon), np.clip(n, -epsilon, epsilon))


class TestMisdirection:
    @pytest.mark.parametrize("label,p,expected", [
        (1, 0.0, 1.0), (1, 1.0, 0.0), (0, 0.3, 0.3), (0, 1.0, 1.0),
    ])
    def test_values(self, label, p, expected):
        assert misdirection(label, p) == pytest.approx(expected)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            misdirection(2, 0.5)
        with pytest.raises(ValueError):
            misdirection(1, 1.5)


class TestReward:
    def test_nominal_nine_bus_is_minus_eighteen(self):
        params = RewardParams(k0=10.0, x_hat=1.0)
        r = reward(0.0, np.ones(9), np.zeros(9), params)
        assert r == -18.0

    def test_additivity_in_c(self):
        params = RewardParams(k0=10.0, x_hat=1.0)
        assert reward(1.0, np.ones(9), np.zeros(9), params) == -17.0

    def test_zero_k0_counts_buses(self):
        params = RewardParams(k0=0.0, x_hat=1.0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.9, 1.1, 9)
        n = rng.uniform(-0.01, 0.01, 9)
        assert reward(0.4, x, n, params) == pytest.approx(0.4 - 18.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(1)
        params = RewardParams(k0=10.0, x_hat=1.0)
        for _ in range(1000):
            c = rng.uniform(0, 1)
            x = rng.uniform(0.8, 1.2, 9)
            n = rng.uniform(-0.01, 0.01, 9)
            want = eq6_oracle(c, x, n, 10.0, 1.0)
            assert reward(c, x, n, params) == pytest.approx(want, rel=1e-12)

    def test_penalty_abs_variant(self):
        params = RewardParams(k0=10.0, x_hat=1.0, penalty_abs=True)
        x = np.array([0.95])
        n = np.array([-0.01])
        want = 0.2 - math.exp(10 * 0.05) - math.exp(10 * 0.01)
        assert reward(0.2, x, n, params) == pytest.approx(want, rel=1e-12)

    def test_overflow_clamped_and_counted(self):
        params = RewardParams(k0=10.0, x_hat=1.0)
        counter = [0]
        r = reward(0.0, np.array([100.0]), np.array([0.0]), params, clamp_counter=counter)
        assert counter[0] == 1
        assert np.isfinite(r)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reward(0.0, np.ones(3), np.ones(2), RewardParams())

    @pytest.mark.parametrize("penalty_abs", [False, True])
    def test_clamp_and_counter_match_np_clip(self, clamp_inputs, penalty_abs):
        params = RewardParams(k0=10.0, x_hat=1.0, penalty_abs=penalty_abs)
        xs, ns = clamp_inputs(9, scale=8.0, seed=1), clamp_inputs(9, scale=8.0, seed=2)
        for x, n in zip(xs, ns):
            dev, pen = x - 1.0, n
            if penalty_abs:
                dev, pen = np.abs(dev), np.abs(pen)
            args = np.concatenate([10.0 * dev, 10.0 * pen])
            clipped = np.clip(args, -EXP_CLAMP, EXP_CLAMP)
            counter = [3]
            got = reward(0.25, x, n, params, clamp_counter=counter)
            assert same_bits(got, 0.25 - np.sum(np.exp(clipped)))
            assert counter == [3 + int(np.sum(clipped != args))]


class TestDiscountedReturn:
    def test_single_reward(self):
        assert discounted_return([3.5], 0.4) == 3.5

    def test_three_ones_half(self):
        assert discounted_return([1, 1, 1], 0.5) == pytest.approx(1.75)

    def test_matches_horner(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rewards = rng.normal(size=rng.integers(1, 30))
            lam = rng.uniform(0.1, 1.0)
            horner = 0.0
            for r in rewards[::-1]:
                horner = r + lam * horner
            assert discounted_return(rewards, lam) == pytest.approx(horner, rel=1e-12)

    def test_bellman_consistency(self):
        rng = np.random.default_rng(3)
        rewards = rng.normal(size=10)
        lam = 0.9
        lhs = discounted_return(rewards, lam)
        rhs = rewards[0] + lam * discounted_return(rewards[1:], lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestReset:
    def test_initial_state(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        s = env.reset()
        assert np.array_equal(s.n, np.zeros(9))
        assert s.flatten().shape == (19,)
        assert 0 <= s.c <= 1

    def test_deterministic(self, default_scenario, trained_detector):
        a = make_env(default_scenario, trained_detector, seed=5).reset()
        b = make_env(default_scenario, trained_detector, seed=5).reset()
        assert np.array_equal(a.flatten(), b.flatten())


class TestStep:
    ACTION = np.array([0.5, 1.0, 0.3])

    def test_no_access_means_no_attack(self, default_scenario, trained_detector):
        mask = np.zeros(9, dtype=bool)
        mask[0] = True  # config needs one accessible bus; block it via epsilon-tiny
        env = make_env(default_scenario, trained_detector,
                       access_mask=mask, epsilon=1e-12)
        env.reset()
        out = env.step(self.ACTION)
        assert out.info["attacked_posterior"] == pytest.approx(
            out.info["clean_posterior"], abs=1e-6)

    def test_masked_buses_untouched(self, default_scenario, trained_detector):
        mask = np.array([True, False, True, False, True, False, True, False, True])
        env = make_env(default_scenario, trained_detector, access_mask=mask)
        env.reset()
        for _ in range(20):
            out = env.step(self.ACTION)
            assert np.all(out.info["perturbation"][~mask] == 0.0)
            if out.done:
                break

    def test_constraint_bound_every_step(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        rng = np.random.default_rng(0)
        done = False
        while not done:
            a = rng.uniform([0.05, 0.05, 0.0], [2.0, 5.0, 3.0])
            out = env.step(a)
            assert np.max(np.abs(out.info["perturbation"])) <= 0.01
            done = out.done

    def test_horizon_termination(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        steps = 0
        done = False
        while not done:
            done = env.step(self.ACTION).done
            steps += 1
        assert steps == env.t_f

    def test_horizon_past_the_trace_raises(self, default_scenario, trained_detector):
        steps = default_scenario.n_frames - trained_detector.window
        env = make_env(default_scenario, trained_detector,
                       reward_params=RewardParams(horizon_frames=steps))
        assert env.t_f == steps
        with pytest.raises(ValueError,
                           match=f"horizon_frames {steps + 1} exceeds the {steps} steps"):
            make_env(default_scenario, trained_detector,
                     reward_params=RewardParams(horizon_frames=steps + 1))

    def test_step_after_done_raises(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        done = False
        while not done:
            done = env.step(self.ACTION).done
        with pytest.raises(EpisodeDone):
            env.step(self.ACTION)

    def test_out_of_bounds_action_clamped_and_flagged(self, default_scenario,
                                                      trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        out = env.step(np.array([99.0, 99.0, 99.0]))
        assert out.info["action_clamped"]
        bounds = np.asarray(env.config.action_bounds)
        assert np.all(out.info["action"] <= bounds[:, 1])

    def test_clamp_action_matches_np_clip(self, default_scenario, trained_detector,
                                          clamp_inputs):
        env = make_env(default_scenario, trained_detector)
        low, high = np.asarray(env.config.action_bounds).T
        for a in clamp_inputs(ACTION_DIM, scale=4.0):
            want = np.clip(a, low, high)
            clamped, was_clamped = env.clamp_action(a)
            assert same_bits(clamped, want)
            assert was_clamped is bool(np.any(want != a))

    def test_state_dimension_constant(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        s = env.reset()
        dim = s.dim
        done = False
        while not done:
            out = env.step(self.ACTION)
            assert out.next_state.dim == dim
            done = out.done

    def test_determinism_across_runs(self, default_scenario, trained_detector):
        def run(seed):
            env = make_env(default_scenario, trained_detector, seed=seed)
            env.reset()
            rng = np.random.default_rng(9)
            rewards = []
            done = False
            while not done:
                out = env.step(rng.uniform([0.05, 0.05, 0], [2, 5, 3]))
                rewards.append(out.reward)
                done = out.done
            return rewards

        assert run(3) == run(3)

    def test_reward_uses_clean_measurements(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        out = env.step(self.ACTION)
        t = out.info["frame"]
        clean = env.trace.frames[t]
        n = out.info["perturbation"]
        rp = env.config.reward_params
        want = reward(out.next_state.c, clean, n, rp)
        assert out.reward == pytest.approx(want, rel=1e-12)

    def test_field_seed_policies_differ(self, default_scenario, trained_detector):
        def first_n(policy):
            env = make_env(default_scenario, trained_detector, seed=4,
                           field_seed_policy=policy)
            env.reset()
            return env.step(self.ACTION).info["perturbation"]

        fixed = first_n("fixed")
        per_ep = first_n("per-episode")
        assert not np.array_equal(fixed, per_ep)

    def test_fixed_policy_repeats_layout_across_episodes(self, default_scenario,
                                                        trained_detector):
        env = make_env(default_scenario, trained_detector, seed=4,
                       field_seed_policy="fixed")
        env.reset()
        n1 = env.step(self.ACTION).info["perturbation"]
        env.reset()
        n2 = env.step(self.ACTION).info["perturbation"]
        assert np.array_equal(n1, n2)


class TestFieldLayout:
    """Each step's field is the layout of its policy's seed under the step's kernel."""

    EPISODES, STEPS = 2, 3

    @staticmethod
    def policy_seed(env, episode, row):
        policy = env.config.field_seed_policy
        if policy == "fixed":
            return env.config.field_seed
        key = [env.seed, episode] + ([row + 1] if policy == "per-step" else [])
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    def run(self, scenario, model, policy, env_seeds):
        """Step the envs in turn, each with its own random actions; yield
        (env, episode, row, outcome) per step."""
        envs = [make_env(scenario, model, seed=s, epsilon=1e3, field_seed_policy=policy,
                         field_seed=7, reward_params=RewardParams(horizon_frames=self.STEPS))
                for s in env_seeds]
        rng = np.random.default_rng(11)
        for episode in range(self.EPISODES):
            for env in envs:
                env.reset()
            for row in range(self.STEPS):
                for env in envs:
                    action = rng.uniform([0.05, 0.05, 0.0], [2.0, 5.0, 3.0])
                    yield env, episode, row, env.step(action)

    @pytest.mark.parametrize("policy", ["fixed", "per-episode", "per-step"])
    def test_steps_match_a_freshly_drawn_layout(self, default_scenario, trained_detector,
                                                policy):
        # Two envs stepped in turn: under per-episode and per-step their
        # seeds differ, so each step asks for another layout than the last.
        for env, episode, row, out in self.run(default_scenario, trained_detector, policy,
                                               (4, 5)):
            sigma, f0, omega0 = out.info["action"]
            kernel = gabor.GaborKernelParams(K=env.config.kernel_magnitude,
                                             sigma=sigma, F0=f0, omega0=omega0)
            field = gabor.build_field(kernel, env.config.impulse_density, NOISE_DOMAIN,
                                      seed=self.policy_seed(env, episode, row), pad=LAYOUT_PAD)
            want = gabor.perturbation_vector(field, env.trace.frames[out.info["frame"]])
            assert np.array_equal(out.info["perturbation"], want), (policy, episode, row)

    def test_per_episode_seed_is_drawn_at_reset(self, default_scenario, trained_detector,
                                                monkeypatch):
        # Every step of an episode reads its layout under the episode's seed,
        # and no step builds a SeedSequence to find it.
        layout, seed_sequence = attack_env._layout, np.random.SeedSequence
        seeds, sequences = [], []

        def recorded_layout(density, seed):
            seeds.append(seed)
            return layout(density, seed)

        def counted_sequence(*args, **kwargs):
            sequences.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(attack_env, "_layout", recorded_layout)
        monkeypatch.setattr(np.random, "SeedSequence", counted_sequence)
        env = make_env(default_scenario, trained_detector, seed=4,
                       field_seed_policy="per-episode",
                       reward_params=RewardParams(horizon_frames=self.STEPS))
        for episode in range(self.EPISODES):
            env.reset()
            seeds.clear()
            sequences.clear()
            for _ in range(env.t_f):
                env.step(np.array([0.5, 1.0, 0.3]))
            want = int(seed_sequence([4, episode]).generate_state(1)[0])
            assert seeds == [want] * self.STEPS
            assert sequences == []

    @pytest.mark.parametrize("policy, draws", [
        ("fixed", 1),                   # one layout for both envs and every episode
        ("per-episode", EPISODES),      # one env: one layout per episode
        ("per-step", EPISODES * STEPS),
    ])
    def test_layout_draws(self, default_scenario, trained_detector, monkeypatch,
                          policy, draws):
        calls = []
        build_field = gabor.build_field

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return build_field(*args, **kwargs)

        monkeypatch.setattr(gabor, "build_field", counted)
        attack_env._layout.cache_clear()
        env_seeds = (4, 5) if policy == "fixed" else (4,)
        steps = list(self.run(default_scenario, trained_detector, policy, env_seeds))
        assert len(calls) == draws
        assert len(set(calls)) == draws
        assert len(steps) == len(env_seeds) * self.EPISODES * self.STEPS


class TestRecord:
    ACTION = np.array([0.5, 1.0, 0.3])

    @staticmethod
    def play(env, actions):
        outs = []
        for a in actions:
            outs.append(env.step(a))
            if outs[-1].done:
                break
        return outs

    def test_rows_are_the_steps(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector, field_seed_policy="per-step")
        env.reset()
        rng = np.random.default_rng(0)
        outs = self.play(env, rng.uniform([0.05, 0.05, 0.0], [2.0, 5.0, 3.0],
                                          size=(env.t_f, ACTION_DIM)))
        rec = env.record()
        assert outs[-1].done and len(outs) == env.t_f
        assert {len(v) for v in rec.values()} == {env.t_f}
        for i, out in enumerate(outs):
            assert rec["frame"][i] == out.info["frame"]
            assert rec["label"][i] == out.info["label"]
            assert rec["reward"][i] == out.reward
            assert rec["c"][i] == out.next_state.c
            assert rec["clean_posterior"][i] == out.info["clean_posterior"]
            assert rec["attacked_posterior"][i] == out.info["attacked_posterior"]
            assert np.array_equal(rec["perturbations"][i], out.info["perturbation"])
        assert np.array_equal(rec["time"], env.trace.times[rec["frame"]])
        assert np.array_equal(rec["clean_posterior"],
                              det.posterior_series(trained_detector, env.trace)[1:])
        assert np.array_equal(rec["max_abs_n"], np.abs(rec["perturbations"]).max(axis=1))
        assert np.array_equal(rec["compromised_frames"],
                              env.trace.frames[rec["frame"]] + rec["perturbations"])

    def test_reset_only_record_is_the_clean_replay(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        rec = env.record()
        frames = np.arange(env.window, env.window + env.t_f)
        clean = [det.posterior(trained_detector, det.featurize_window(window))
                 for window in windows(env.trace.frames, env.window)[1 : 1 + env.t_f]]
        assert np.array_equal(rec["frame"], frames)
        assert np.array_equal(rec["label"], env.trace.labels[frames])
        assert np.array_equal(rec["time"], env.trace.times[frames])
        assert rec["clean_posterior"] == pytest.approx(clean, rel=0, abs=1e-12)
        assert np.array_equal(rec["attacked_posterior"], rec["clean_posterior"])
        assert np.array_equal(rec["c"], np.abs(rec["label"] - rec["clean_posterior"]))
        assert not rec["reward"].any()
        assert not rec["perturbations"].any() and not rec["max_abs_n"].any()
        assert rec["perturbations"].shape == (env.t_f, env.bus_count)
        assert np.array_equal(rec["compromised_frames"], env.trace.frames[frames])

    def test_rows_not_yet_stepped_read_clean(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        clean = env.record()
        self.play(env, [self.ACTION] * 5)
        rec = env.record()
        assert rec["perturbations"][:5].any()
        assert not clean["perturbations"].any()
        for key, column in clean.items():
            assert np.array_equal(rec[key][5:], column[5:]), key

    def test_record_outlives_its_episode(self, default_scenario, trained_detector):
        env = make_env(default_scenario, trained_detector)
        env.reset()
        self.play(env, [self.ACTION] * env.t_f)
        rec = env.record()
        kept = {k: v.copy() for k, v in rec.items()}
        env.reset()
        assert all(np.array_equal(rec[k], kept[k]) for k in kept)
        self.play(env, [np.array([1.5, 4.0, 2.0])] * env.t_f)
        assert all(np.array_equal(rec[k], kept[k]) for k in kept)
        assert not np.array_equal(env.record()["perturbations"], rec["perturbations"])
