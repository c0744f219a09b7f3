"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

These run the shipped default configuration end to end, so the whole module
takes a few minutes (dominated by agent training in criterion 4). Each test
prints a single `criterion N (...): PASS/FAIL` line via the `criterion`
helper so the -s output doubles as a checklist.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gridevade import ddpg, detector as det, harness, neural
from gridevade.attack_env import RewardParams, reward
from gridevade.gabor import (
    GaborKernelParams,
    build_field,
    evaluate_field,
    gabor_kernel,
)
from gridevade.grid_traces import generate_trace

from conftest import shipped

pytestmark = pytest.mark.acceptance


def criterion(number, label, ok):
    print(f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def cfg():
    return harness.load_config()


@pytest.fixture(scope="module")
def detector_model(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-detector")
    model, report, _ = harness.cmd_train_detector(cfg, out)
    return model, report, out


@pytest.fixture(scope="module")
def trained_run(cfg, detector_model):
    """Full default-config attacker training + evaluation (the slow part)."""
    model, _, out = detector_model
    agent, curve = harness.cmd_train_attacker(cfg, out)
    trained, trained_runs = harness.evaluate_baseline(cfg, model, "trained_agent",
                                                     agent=agent)
    rand, rand_runs = harness.evaluate_baseline(cfg, model, "random_hyperparams")
    return trained, trained_runs, rand, rand_runs


class TestCriterion1:
    def test_constraint_never_violated(self, cfg, detector_model, trained_run):
        """Every injected value obeys the magnitude cap, zero tolerance."""
        _, trained_runs, _, rand_runs = trained_run
        eps = cfg.attack_config.epsilon
        worst = 0.0
        count = 0
        for run in trained_runs + rand_runs:
            worst = max(worst, float(np.max(np.abs(run["perturbations"]))))
            count += 1
        criterion(1, "perturbation bound", count >= 10 and worst <= eps)


class TestCriterion2:
    def test_labels_flip_at_fault_onset(self, cfg):
        ok = True
        for seed in range(10):
            tr = generate_trace(cfg.scenario.with_seed(seed))
            want = (tr.times >= cfg.scenario.fault_start).astype(int)
            ok &= bool(np.array_equal(tr.labels, want))
        criterion(2, "label onset", ok)


class TestCriterion3:
    def test_detector_quality(self, detector_model):
        _, report, _ = detector_model
        ok = (report.frame_accuracy >= 0.95
              and report.detection_delay is not None
              and report.detection_delay <= 0.5
              and len(report.delays) == 10)
        criterion(3, "detector accuracy and delay", ok)


class TestCriterion4:
    def test_trained_agent_beats_random(self, trained_run):
        trained, trained_runs, rand, rand_runs = trained_run
        drop_ok = trained.mean_posterior_drop >= 0.3

        wins = 0
        for tr_run, rd_run in zip(trained_runs, rand_runs):
            post = tr_run["label"] == 1
            d_tr = np.mean(tr_run["clean_posterior"][post]
                           - tr_run["attacked_posterior"][post])
            d_rd = np.mean(rd_run["clean_posterior"][post]
                           - rd_run["attacked_posterior"][post])
            wins += int(d_tr > d_rd)
        criterion(4, "learning beats random", drop_ok and wins >= 8)


class TestCriterion5:
    def test_field_matches_direct_sum(self):
        ok = True
        rng = np.random.default_rng(0)
        for fseed in range(10):
            kern = GaborKernelParams(K=1.0,
                                     sigma=float(rng.uniform(0.2, 2.0)),
                                     F0=float(rng.uniform(0.1, 4.0)),
                                     omega0=float(rng.uniform(0.0, math.pi * 0.999)))
            field = build_field(kern, density=20.0, domain=(0.0, 1.2, 0.0, 2.4),
                                seed=fseed)
            xs = rng.uniform(0.0, 1.2, 100)
            ys = rng.uniform(0.0, 2.4, 100)
            got = evaluate_field(field, xs, ys)
            for j in range(100):
                direct = math.fsum(
                    field.weight * gabor_kernel(kern, xs[j] - field.x, ys[j] - field.y))
                if not math.isclose(got[j], direct, rel_tol=1e-9, abs_tol=1e-12):
                    ok = False
        criterion(5, "noise field oracle", ok)


class TestCriterion6:
    def test_reward_oracle(self):
        """The literal reward formula, both as written without |.| and as
        shipped, with |x - x_hat| and |n| inside the exponents."""
        ok = True
        for params, fold in ((RewardParams(k0=10.0, x_hat=1.0, penalty_abs=False), float),
                             (shipped().attack_config.reward_params, abs)):
            k0, x_hat = params.k0, params.x_hat
            rng = np.random.default_rng(1)
            for _ in range(1000):
                c = float(rng.uniform(0, 1))
                x = rng.uniform(0.8, 1.2, 9)
                n = rng.uniform(-0.01, 0.01, 9)
                want = (c - sum(math.exp(k0 * fold(xi - x_hat)) for xi in x)
                        - sum(math.exp(k0 * fold(ni)) for ni in n))
                got = reward(c, x, n, params)
                if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
                    ok = False
            ok &= reward(0.0, np.full(9, x_hat), np.zeros(9), params) == -18.0
        criterion(6, "reward oracle", ok)


class TestCriterion7:
    def test_gradients_match_finite_differences(self):
        acts = ["relu", "tanh", "sigmoid", "identity"]
        rng = np.random.default_rng(2)
        worst = 0.0
        for k in range(100):
            sizes = [int(rng.integers(2, 6)) for _ in range(3)]
            layer_acts = [acts[int(rng.integers(4))], acts[int(rng.integers(4))]]
            net = neural.init_mlp(sizes, layer_acts, seed=k)
            x = rng.normal(size=sizes[0])
            v = rng.normal(size=sizes[-1])  # random scalarization

            out, cache = neural.forward_full(net, x[None, :])
            grads = neural.backward(net, x[None, :], v[None, :], cache=cache)

            def f(n):
                return float(neural.forward(n, x) @ v)

            h = 1e-6
            for li in range(len(net.weights)):
                w = net.weights[li]
                i, j = (int(rng.integers(s)) for s in w.shape)
                probe = net.copy()
                probe.weights[li][i, j] += h
                up = f(probe)
                probe.weights[li][i, j] -= 2 * h
                dn = f(probe)
                fd = (up - dn) / (2 * h)
                w_slice, shape, _ = net.layout[li]
                g = grads[w_slice].reshape(shape)[i, j]
                denom = max(abs(fd), abs(g), 1e-8)
                worst = max(worst, abs(fd - g) / denom)
        criterion(7, "gradient check", worst < 1e-4)


class TestCriterion8:
    def test_ddpg_solves_analytic_task(self):
        from test_ddpg import ToyEnv, toy_agent

        bests = []
        for seed in range(5):
            agent = toy_agent(seed)
            conf = replace(shipped().train_config, batch_size=32, warmup=64,
                           sigma_start=0.4, sigma_end=0.05, seed=seed)
            _, curve = ddpg.train(agent, lambda ep, s: ToyEnv(), 200, conf)
            bests.append(max(r["return"] for r in curve))
        # optimum is 0; tolerance is 5% of the unit per-step reward scale
        criterion(8, "ddpg sanity task", float(np.median(bests)) >= -0.05)


class TestCriterion9:
    def test_end_to_end_determinism(self, cfg, tmp_path_factory):
        a = tmp_path_factory.mktemp("det-a")
        b = tmp_path_factory.mktemp("det-b")
        ok = True
        for out in (a, b):
            harness.cmd_simulate(cfg, out)
            harness.cmd_train_detector(cfg, out)
            harness.cmd_evaluate(cfg, out, baselines=("none", "random_hyperparams"))
        ok &= (a / "trace_clean.csv").read_bytes() == (b / "trace_clean.csv").read_bytes()
        ok &= (a / "detector.json").read_bytes() == (b / "detector.json").read_bytes()
        for name in ("metrics_none.json", "metrics_random_hyperparams.json"):
            ok &= json.loads((a / name).read_text()) == json.loads((b / name).read_text())
        criterion(9, "determinism", ok)
