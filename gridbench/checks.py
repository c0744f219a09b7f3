"""Correctness checks, computed apart from the program.

Each check takes plain arrays and numbers and returns a list of failure
messages; an empty list means it passed. The reference values are
recomputed here from the method's definitions (the detector's weights
read straight from its JSON checkpoint, the reward's closed form, the
Gabor kernel sum, the Poisson impulse count, the DDPG step counts), never
by calling the function under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Tolerances. Recomputing in another order moves floats by ~1e-15
# relative; each tolerance is far below the smallest error the tests
# must catch (1e-6).
POSTERIOR_TOL = 1e-9
REWARD_TOL = 1e-9
FIELD_REL_TOL = 1e-11
POISSON_SE = 5.0

# Detector quality floor, as in the release criteria. The 0.95 accuracy
# floor is applied to the held-out frames of all rounds of a run together:
# the training occasionally yields a detector below it on its own (one
# seed in 300 at 16 traces). Each round must still reach
# MIN_ROUND_FRAME_ACCURACY, and a run fails if more of its rounds fall
# below 0.95 than that rate allows (binomial tail below LOW_ROUND_ALPHA).
MIN_FRAME_ACCURACY = 0.95
MIN_ROUND_FRAME_ACCURACY = 0.90
LOW_ROUND_RATE = 1 / 300
LOW_ROUND_ALPHA = 1e-4
MAX_DELAY_S = 0.5
MAX_BCE = math.log(2.0)


# ---------------------------------------------------------------------------
# Detector: own forward pass of the JSON checkpoint
# ---------------------------------------------------------------------------

def load_net(path) -> dict:
    """Detector checkpoint as plain arrays: weights, biases, activations, meta."""
    doc = json.loads(Path(path).read_text())
    return {
        "weights": [np.array(w, dtype=float) for w in doc["weights"]],
        "biases": [np.array(b, dtype=float) for b in doc["biases"]],
        "activations": list(doc["activations"]),
        "meta": doc["meta"],
    }


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.where(z > 0.0, z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def detector_posteriors(net: dict, windows: np.ndarray) -> np.ndarray:
    """Posterior for each (window, bus) block in `windows` (n, window, bus)."""
    meta = net["meta"]
    a = (np.asarray(windows, dtype=float) - meta["norm_center"]) / meta["norm_scale"]
    a = a.reshape(len(a), -1)
    for w, b, act in zip(net["weights"], net["biases"], net["activations"]):
        a = _activate(act, a @ w + b)
    return a[:, 0]


def windows_ending_at(frames: np.ndarray, ends, window: int) -> np.ndarray:
    """Stack of the `window` frames ending at each index in `ends`."""
    return np.stack([frames[t - window + 1 : t + 1] for t in ends])


def check_posteriors(reported, expected, what: str) -> list[str]:
    reported = np.asarray(reported, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if reported.shape != expected.shape:
        return [f"{what}: {reported.shape} posteriors, expected {expected.shape}"]
    err = np.abs(reported - expected)
    if not np.all(err <= POSTERIOR_TOL):
        i = int(np.argmax(err))
        return [f"{what}: posterior {reported.flat[i]!r} != own forward "
                f"{expected.flat[i]!r} at {i}"]
    return []


# ---------------------------------------------------------------------------
# Attack environment
# ---------------------------------------------------------------------------

def check_perturbations(n: np.ndarray, access_mask: np.ndarray, epsilon: float) -> list[str]:
    """|n| <= epsilon everywhere and n == 0 on inaccessible buses, exactly."""
    n = np.asarray(n, dtype=float)
    out = []
    if not np.all(np.abs(n) <= epsilon):
        out.append(f"perturbation {float(np.max(np.abs(n)))!r} exceeds epsilon {epsilon}")
    if np.any(n[..., ~np.asarray(access_mask, dtype=bool)] != 0.0):
        out.append("nonzero perturbation on an inaccessible bus")
    return out


def closed_form_reward(c, x, n, k0: float, x_hat: float) -> np.ndarray:
    """c - sum_i exp(k0 |x_i - x_hat|) - sum_i exp(k0 |n_i|), row-wise."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    return (np.asarray(c, dtype=float)
            - np.exp(k0 * np.abs(x - x_hat)).sum(axis=-1)
            - np.exp(k0 * np.abs(n)).sum(axis=-1))


def check_rewards(reported, c, x, n, k0: float, x_hat: float) -> list[str]:
    want = closed_form_reward(c, x, n, k0, x_hat)
    got = np.asarray(reported, dtype=float)
    err = np.abs(got - want)
    if not np.all(err <= REWARD_TOL * (1.0 + np.abs(want))):
        i = int(np.argmax(err))
        return [f"reward {got.flat[i]!r} != closed form {want.flat[i]!r} at step {i}"]
    return []


def direct_field_sum(xs, ys, ws, K: float, sigma: float, F0: float, omega0: float,
                     qx, qy) -> tuple[np.ndarray, np.ndarray]:
    """Gabor kernel sum at each query point, and the sum of |terms| there.

    Each per-point sum is taken with math.fsum, so its value does not
    depend on the order of the impulses.
    """
    xs, ys, ws = (np.asarray(v, dtype=float) for v in (xs, ys, ws))
    values, scales = [], []
    for px, py in zip(np.asarray(qx, dtype=float), np.asarray(qy, dtype=float)):
        dx = px - xs
        dy = py - ys
        terms = ws * K * np.exp(-math.pi * sigma * sigma * (dx * dx + dy * dy)) * np.cos(
            2.0 * math.pi * F0 * (dx * math.cos(omega0) + dy * math.sin(omega0)))
        values.append(math.fsum(terms))
        scales.append(math.fsum(np.abs(terms)))
    return np.array(values), np.array(scales)


def check_field(raw, direct, scale) -> list[str]:
    raw = np.asarray(raw, dtype=float)
    err = np.abs(raw - direct)
    if not np.all(err <= FIELD_REL_TOL * (1.0 + scale)):
        i = int(np.argmax(err))
        return [f"field value {raw[i]!r} != direct kernel sum {direct[i]!r} at bus {i}"]
    return []


def check_projection(n, raw, access_mask, epsilon: float) -> list[str]:
    """n is the raw field clamped to [-eps, eps], zeroed off the access mask."""
    want = np.clip(np.where(access_mask, raw, 0.0), -epsilon, epsilon)
    if not np.array_equal(np.asarray(n, dtype=float), want):
        return ["perturbation is not the projected raw field"]
    return []


def expected_impulses(density: float, domain, pad: float) -> float:
    x_min, x_max, y_min, y_max = domain
    return density * (x_max - x_min + 2 * pad) * (y_max - y_min + 2 * pad)


def check_impulse_count(counts, lam: float) -> list[str]:
    """Mean impulse count within POISSON_SE standard errors of Poisson(lam)."""
    counts = np.asarray(counts, dtype=float)
    if len(counts) == 0:
        return ["no impulse counts recorded"]
    se = math.sqrt(lam / len(counts))
    mean = float(np.mean(counts))
    if abs(mean - lam) > POISSON_SE * se:
        return [f"mean impulses per field {mean:.2f} is {abs(mean - lam) / se:.1f} "
                f"standard errors from Poisson mean {lam:.2f}"]
    return []


# ---------------------------------------------------------------------------
# DDPG training counts
# ---------------------------------------------------------------------------

def expected_counts(restarts: int, episodes: int, t_f: int, batch: int, warmup: int,
                    validation_episodes: int = 3) -> dict:
    """Env steps and train_step calls one cmd_train_attacker call must make."""
    start = max(batch, warmup)
    return {
        "env_steps": restarts * (episodes + validation_episodes) * t_f,
        "train_steps": restarts * max(episodes * t_f - start + 1, 0),
    }


def check_counts(got: dict, want: dict) -> list[str]:
    return [f"{key}: {got.get(key)} != expected {value}"
            for key, value in want.items() if got.get(key) != value]


# ---------------------------------------------------------------------------
# Detector quality
# ---------------------------------------------------------------------------

def detection_quality(posteriors, labels, times, threshold: float) -> dict:
    """Frame counts over all traces and mean delay of the detected ones.

    `posteriors`, `labels`, `times` are lists with one array per trace,
    aligned on the frames that have a full window.
    """
    correct = total = 0
    delays = []
    for p, lab, tim in zip(posteriors, labels, times):
        flagged = np.asarray(p) >= threshold
        lab = np.asarray(lab)
        correct += int(np.sum(flagged == (lab == 1)))
        total += len(lab)
        onset = np.flatnonzero(lab == 1)
        hit = np.flatnonzero(flagged & (lab == 1))
        if len(onset) and len(hit):
            delays.append(max(0.0, float(tim[hit[0]] - tim[onset[0]])))
    return {
        "frames_correct": correct,
        "frames": total,
        "delay_s": float(np.mean(delays)) if delays else None,
    }


def bce(posteriors, labels) -> float:
    p = np.clip(np.asarray(posteriors, dtype=float), 1e-7, 1 - 1e-7)
    y = np.asarray(labels, dtype=float)
    return float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))


def check_detector_training(delay_s, train_bce: float) -> list[str]:
    """Per trained detector: mean detection delay and training-window BCE."""
    out = []
    if delay_s is None or not delay_s <= MAX_DELAY_S:
        out.append(f"detection delay {delay_s} s exceeds {MAX_DELAY_S} s")
    if not train_bce < MAX_BCE:
        out.append(f"training-window BCE {train_bce:.4f} >= ln 2")
    return out


def check_frame_accuracy(frames_correct: int, frames: int,
                         floor: float = MIN_FRAME_ACCURACY) -> list[str]:
    """Held-out frame accuracy, over all held-out frames it is given."""
    accuracy = frames_correct / frames if frames else 0.0
    if not accuracy >= floor:
        return [f"held-out frame accuracy {accuracy:.4f} < {floor}"]
    return []


def check_low_rounds(low: int, rounds: int, rate: float = LOW_ROUND_RATE,
                     alpha: float = LOW_ROUND_ALPHA) -> list[str]:
    """Fail if `low` of `rounds` below the floor is unlikely at `rate`."""
    tail = 1.0 - sum(math.comb(rounds, i) * rate**i * (1 - rate) ** (rounds - i)
                     for i in range(low))
    if tail < alpha:
        return [f"{low} of {rounds} detectors below {MIN_FRAME_ACCURACY} held-out "
                f"accuracy; P(>= {low}) = {tail:.1e} at a rate of {rate:.4f}"]
    return []
