"""Fast tests of the benchmark itself (about 15 seconds).

    python3 -m pytest gridbench/bench_tests.py -q

Each correctness check is fed a deliberately wrong value and must fail;
every workload runs end to end at a tiny size, traced and untraced.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402

from gridevade import detector as det, gabor, neural  # noqa: E402
from gridevade.attack_env import NOISE_DOMAIN, RewardParams, reward  # noqa: E402


def _since(t0):
    return lambda: time.perf_counter() - t0


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A random 10x9-window detector saved as the program saves it."""
    net = neural.init_mlp([90, 16, 8, 1], ["relu", "relu", "sigmoid"], seed=4)
    path = tmp_path_factory.mktemp("ckpt") / "detector.json"
    model = det.DetectorModel(net=net, window=10, bus_count=9)
    det.save_detector(model, path)
    return model, checks.load_net(path)


@pytest.fixture(scope="module")
def eval_round(tmp_path_factory):
    """One tiny evaluate_per_step round and what the probe saw of it."""
    wl = workloads.EvaluatePerStep(5, workloads.TINY, tmp_path_factory.mktemp("eval"))
    wl.setup()
    obs = workloads.Observations()
    with Probe(trace=False, observers=obs.observers()).installed():
        rnd = wl.run_round(0, obs)
    return wl, obs, rnd


# ---------------------------------------------------------------------------
# Each check passes on the truth and fails on a wrong value
# ---------------------------------------------------------------------------

def test_perturbation_bound():
    mask = np.array([True] * 7 + [False] * 2)
    n = np.where(mask, 0.01, 0.0) * np.array([1, -1, 1, -1, 1, -1, 1, 1, 1])
    assert checks.check_perturbations(n, mask, 0.01) == []
    too_big = n.copy()
    too_big[0] = 0.02
    assert checks.check_perturbations(too_big, mask, 0.01)
    leak = n.copy()
    leak[8] = 1e-12
    assert checks.check_perturbations(leak, mask, 0.01)


def test_reward_closed_form():
    rng = np.random.default_rng(0)
    params = RewardParams(k0=10.0, x_hat=1.0, penalty_abs=True)
    c = rng.uniform(0, 1, 50)
    x = rng.uniform(0.8, 1.2, (50, 9))
    n = rng.uniform(-0.01, 0.01, (50, 9))
    got = np.array([reward(ci, xi, ni, params) for ci, xi, ni in zip(c, x, n)])
    assert checks.check_rewards(got, c, x, n, 10.0, 1.0) == []
    got[7] += 1e-6
    assert checks.check_rewards(got, c, x, n, 10.0, 1.0)


def test_own_forward_matches_detector(checkpoint):
    model, net = checkpoint
    rng = np.random.default_rng(1)
    windows = rng.uniform(0.8, 1.1, (20, 10, 9))
    reported = [det.posterior(model, det.featurize_window(w)) for w in windows]
    own = checks.detector_posteriors(net, windows)
    assert checks.check_posteriors(reported, own, "p") == []
    reported[3] += 1e-6
    assert checks.check_posteriors(reported, own, "p")


def test_field_direct_sum():
    kernel = gabor.GaborKernelParams(K=1.0, sigma=0.7, F0=2.3, omega0=1.1)
    field = gabor.build_field(kernel, 20.0, NOISE_DOMAIN, seed=3, pad=3.0)
    frame = np.linspace(0.95, 1.05, 9)
    raw = gabor.perturbation_vector(field, frame)
    xs, ys, ws = workloads._impulse_arrays(field)
    direct, scale = checks.direct_field_sum(xs, ys, ws, 1.0, 0.7, 2.3, 1.1, np.abs(frame),
                                            np.log(np.arange(9) + 1.0))
    assert checks.check_field(raw, direct, scale) == []
    wrong = raw.copy()
    wrong[4] += 1e-6
    assert checks.check_field(wrong, direct, scale)


def test_projection():
    mask = np.array([True] * 8 + [False])
    raw = np.linspace(-0.05, 0.05, 9)
    n = np.clip(np.where(mask, raw, 0.0), -0.01, 0.01)
    assert checks.check_projection(n, raw, mask, 0.01) == []
    assert checks.check_projection(np.clip(raw, -0.01, 0.01), raw, mask, 0.01)
    assert checks.check_projection(np.where(mask, raw, 0.0), raw, mask, 0.01)


def test_impulse_count():
    lam = checks.expected_impulses(64.0 / (1.2 * math.log(10.0)), NOISE_DOMAIN, 3.0)
    assert abs(lam - 1384.7) < 0.5
    counts = np.random.default_rng(2).poisson(lam, 1800)
    assert checks.check_impulse_count(counts, lam) == []
    assert checks.check_impulse_count(counts + 20, lam)
    assert checks.check_impulse_count([], lam)


def test_count_identities():
    want = checks.expected_counts(2, 10, 90, 64, 256)
    assert want == {"env_steps": 2340, "train_steps": 1290}
    assert checks.check_counts(dict(want), want) == []
    assert checks.check_counts({**want, "train_steps": 1289}, want)


def test_detector_quality():
    assert checks.check_frame_accuracy(97, 100) == []
    assert checks.check_frame_accuracy(94, 100)
    assert checks.check_detector_training(0.2, 0.1) == []
    assert checks.check_detector_training(0.6, 0.1)
    assert checks.check_detector_training(None, 0.1)
    assert checks.check_detector_training(0.2, math.log(2.0))
    times = np.arange(10) * 0.1
    labels = (times >= 0.5).astype(int)
    p = np.where(times >= 0.7, 0.9, 0.1)
    q = checks.detection_quality([p], [labels], [times], 0.5)
    assert (q["frames_correct"], q["frames"]) == (8, 10)
    assert math.isclose(q["delay_s"], 0.2)
    assert math.isclose(checks.bce([0.5, 0.5], [0, 1]), math.log(2.0))


def test_env_checks_pass_on_a_real_round(eval_round):
    wl, obs, rnd = eval_round
    assert wl.check_round(0, obs, rnd) == []


def _env_failures(wl, steps, samples):
    obs = workloads.Observations()
    obs.steps, obs.samples = steps, samples
    return " | ".join(workloads.check_env_steps(obs, wl.net, wl.raw, wl.access_mask,
                                                wl.kernel_magnitude))


@pytest.mark.parametrize("field, message", [("reward", "closed form"),
                                            ("attacked_posterior", "attacked posterior"),
                                            ("clean_posterior", "clean posterior"),
                                            ("c", "misdirection")])
def test_env_checks_catch_a_wrong_step_value(eval_round, field, message):
    wl, obs, _ = eval_round
    bad = dataclasses.replace(obs.steps[17])
    setattr(bad, field, getattr(bad, field) + 1e-6)
    steps = obs.steps[:17] + [bad] + obs.steps[18:]
    assert message in _env_failures(wl, steps, obs.samples)


@pytest.mark.parametrize("change, message", [("double", "exceeds epsilon"),
                                             ("leak", "inaccessible bus")])
def test_env_checks_catch_a_wrong_perturbation(eval_round, change, message):
    wl, obs, _ = eval_round
    bad = dataclasses.replace(obs.steps[0], n=obs.steps[0].n.copy())
    if change == "double":
        bad.n[wl.access_mask] *= 2.0
    else:
        bad.n[np.flatnonzero(~wl.access_mask)[0]] = 1e-9
    assert message in _env_failures(wl, [bad] + obs.steps[1:], obs.samples)


def test_env_checks_catch_a_wrong_field_value(eval_round):
    wl, obs, _ = eval_round
    idx, field, raw = obs.samples[0]
    samples = [(idx, field, raw + 1e-6)] + obs.samples[1:]
    assert "direct kernel sum" in _env_failures(wl, obs.steps, samples)


# ---------------------------------------------------------------------------
# Every workload at a tiny size
# ---------------------------------------------------------------------------

def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOAD_CLASSES)
def test_tiny_workload(tmp_path, name):
    spec = _spec()
    assert name in [w["name"] for w in spec["workloads"]]
    untraced, info = workloads.run_workload(name, 7, 0.01, False, tmp_path,
                                            _since(time.perf_counter()), workloads.TINY)
    assert untraced["correct"], untraced
    assert untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert untraced["metrics"][m["name"]]["unit"] == m["unit"]
        assert untraced["metrics"][m["name"]]["value"] > 0

    traced, traced_info = workloads.run_workload(name, 7, 0.01, True, tmp_path,
                                                 _since(time.perf_counter()), workloads.TINY)
    assert traced["correct"], traced
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert (tmp_path / f"trace-{name}-seed7.json").is_file()
    # Tracing must not change what the program computes.
    assert info["digest"] == traced_info["digest"]

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    if name == "train_attacker":
        assert 0 < layer["gabor.build_field.new_layout_share"] < 0.01
        assert layer["ddpg.train_step.calls"] == 2 * (2 * 90 - 64 + 1)
    elif name == "evaluate_per_step":
        assert layer["gabor.build_field.new_layout_share"] == 1.0
        assert layer["ddpg.train_step.calls"] == 0
    else:
        assert layer["gabor.build_field.calls"] == 0
        assert layer["detector.train_detector.s"] > 0


def test_digest_repeats(tmp_path):
    digests = {workloads.run_workload("train_detector", 11, 0.01, False, tmp_path,
                                      _since(time.perf_counter()),
                                      workloads.TINY)[1]["digest"] for _ in range(2)}
    assert len(digests) == 1


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = _spec()
    p = subprocess.run([*spec["command"], "--workload", "train_detector", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_detector_accuracy_floors():
    # Per round: 0.90. Over the run: 0.95 on the pooled frames, and no
    # more rounds below 0.95 than one in 300 makes plausible.
    assert checks.check_frame_accuracy(91, 100, checks.MIN_ROUND_FRAME_ACCURACY) == []
    assert checks.check_frame_accuracy(89, 100, checks.MIN_ROUND_FRAME_ACCURACY)
    assert checks.check_low_rounds(1, 150) == []
    assert checks.check_low_rounds(6, 150)
    wl = workloads.TrainDetector(1, workloads.TINY, Path("."))
    wl.frames_correct, wl.frames, wl.rounds = 9600, 10000, 100
    assert wl.check_run() == []
    wl.frames_correct = 9400
    assert wl.check_run()
    wl.frames_correct, wl.low_rounds = 9600, 6
    assert wl.check_run()


class _FixedHost(hostspeed.HostSpeed):
    """Reference chunks of a given length at given start times."""

    def __init__(self, starts, duration_ns):
        super().__init__()
        self.starts = list(starts)
        self.durations = [duration_ns] * len(self.starts)


def test_window_means():
    w = workloads.ITER_WINDOW
    ends = np.arange(200) * 1000
    # One chunk, before the first window, at exactly nominal speed.
    host = _FixedHost([-1], hostspeed.NOMINAL_NS)
    assert np.allclose(workloads.window_means(ends, host), 1000.0)
    assert len(workloads.window_means(ends[:w], host)) == 0
    # Windows over steps without the per-iteration call are left out.
    # Iterations 100-199 make the call; a window may lack it on 3 of 30.
    calls = np.concatenate([np.zeros(100), np.arange(1, 101)])
    assert len(workloads.window_means(ends, host, calls)) == 200 - w - 96
    # Several calls per gap (one update per restart after interleaved
    # steps) still count: the window is kept and averaged per step.
    lockstep = np.repeat(np.arange(0, 200, 2), 2)
    assert len(workloads.window_means(ends, host, lockstep)) == 200 - w


def test_host_speed_normalises_and_subtracts_chunks():
    nominal = hostspeed.NOMINAL_NS
    # Each gap holds 2000 ns of program and one chunk that takes twice its
    # nominal time: the host runs at half speed, so the program's 2000 ns
    # are 1000 ns at nominal speed.
    gap = 2000 + 2 * nominal
    ends = np.arange(100) * gap
    host = _FixedHost(ends[:-1] + 1, 2 * nominal)
    assert np.allclose(workloads.window_means(ends, host), 1000.0)
    # A span with no chunk inside, timed where chunks take twice nominal.
    half_speed = _FixedHost([10_000], 2 * nominal)
    assert np.allclose(workloads.spans_ns([(0, 4000)], half_speed), 2000.0)
    # Without any chunk timed there is nothing to normalise by.
    assert len(workloads.window_means(ends, _FixedHost([], nominal))) == 0
    assert len(workloads.spans_ns([(0, 4000)], _FixedHost([], nominal))) == 0
    # A set-up of 2000 ns of program plus two such chunks.
    two = _FixedHost([0, 1], 2 * nominal)
    assert math.isclose(two.normalise_stretch((2000 + 4 * nominal) / 1e9), 1000 / 1e9)


def test_host_speed_timer_samples_the_set_up():
    host = hostspeed.HostSpeed()
    host.start_timer()
    try:
        t_end = time.perf_counter() + 0.05
        while time.perf_counter() < t_end:
            sum(range(1000))
    finally:
        host.stop_timer()
    assert len(host.durations) >= 4
    assert all(d > 0 for d in host.durations)


def test_log_histogram_quantile():
    x = np.random.default_rng(3).lognormal(math.log(2e6), 0.3, 5000)
    h = workloads.LogHistogram()
    h.add(x[:2000])
    h.add(x[2000:])
    for q in (0.02, 0.1, 0.5):
        assert abs(h.quantile_ms(q) / (np.quantile(x, q) / 1e6) - 1) < 2e-3
    assert workloads.LogHistogram().quantile_ms(0.1) is None


def test_no_timed_samples_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TrainDetector, "iters_ns", lambda self, obs: [])
    result, _ = workloads.run_workload("train_detector", 7, 0.01, False, tmp_path,
                                       _since(time.perf_counter()), workloads.TINY)
    assert not result["correct"]
    assert result["metrics"]["iter_norm_ms"]["value"] is None
