"""Sliding-window neural contingency detector.

Maps the last `window` frames of per-bus voltages to the posterior
probability of an ongoing contingency. The attack side of the codebase
only ever calls `posterior` / `evaluate_detector`; detector weights stay
behind this interface (black-box boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import neural
from .grid_traces import MeasurementTrace, windows

__all__ = [
    "DetectorConfig",
    "DetectorModel",
    "DetectorReport",
    "featurize_window",
    "train_detector",
    "posterior",
    "posterior_series",
    "evaluate_detector",
    "save_detector",
    "load_detector",
]

NORM_CENTER = 1.0  # pu
NORM_SCALE = 0.1   # pu


@dataclass
class DetectorConfig:
    window: int = 10
    hidden: tuple = (64, 32)
    threshold: float = 0.5
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0


@dataclass
class DetectorModel:
    net: neural.Mlp
    window: int
    bus_count: int
    threshold: float = 0.5

    def __post_init__(self):
        if self.net.layer_sizes[0] != self.window * self.bus_count:
            raise ValueError(
                f"net input {self.net.layer_sizes[0]} != window*bus_count "
                f"{self.window * self.bus_count}"
            )
        if self.net.layer_sizes[-1] != 1 or self.net.activations[-1] != "sigmoid":
            raise ValueError("detector net must have a single sigmoid output")
        if not (0 < self.threshold < 1):
            raise ValueError(f"threshold must lie in (0,1), got {self.threshold}")


@dataclass
class DetectorReport:
    frame_accuracy: float
    false_positive_rate: float
    detection_delay: float | None  # mean over detected traces; None if none detected
    posterior_series: list = field(default_factory=list)  # per trace: (times, posteriors, labels)
    delays: list = field(default_factory=list)            # per trace, None = not detected

    def __post_init__(self):
        if not (0 <= self.frame_accuracy <= 1):
            raise ValueError("frame_accuracy out of [0,1]")
        if not (0 <= self.false_positive_rate <= 1):
            raise ValueError("false_positive_rate out of [0,1]")


def featurize_window(frames) -> np.ndarray:
    """Normalize each value of a (window, bus) block, or of a (n, window, bus)
    stack of them, as (v-1)/0.1 and flatten each block; `frames` is not written."""
    out = np.subtract(frames, NORM_CENTER, dtype=float)
    out /= NORM_SCALE
    return out.reshape(*out.shape[:-2], -1)


def train_detector(train_set, config: DetectorConfig, bus_count: int):
    """Minimize binary cross-entropy with mini-batch Adam.

    `train_set` is a list of (window_frames, label) pairs as produced by
    grid_traces.split_dataset. Returns (DetectorModel, final_loss).
    """
    if not train_set:
        raise ValueError("empty training set")
    X = featurize_window(np.stack([w for w, _ in train_set]))
    y = np.array([lbl for _, lbl in train_set], dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("training set contains a single class; need both labels")

    sizes = [config.window * bus_count, *config.hidden, 1]
    acts = ["relu"] * len(config.hidden) + ["sigmoid"]
    net = neural.init_mlp(sizes, acts, seed=config.seed)
    opt = neural.AdamState.for_net(net, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    n = len(X)
    loss = float("nan")
    eps = 1e-7
    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = X[idx], y[idx]
            out, cache = neural.forward_full(net, xb)
            p = np.clip(out[:, 0], eps, 1 - eps)
            losses.append(float(np.mean(-yb * np.log(p) - (1 - yb) * np.log(1 - p))))
            # dL/dp; the sigmoid derivative inside backward restores (p - y)/B.
            gout = ((p - yb) / (p * (1 - p)))[:, None] / len(idx)
            grads = neural.backward(net, xb, gout, cache=cache)
            neural.adam_step(opt, net, grads)
        loss = float(np.mean(losses))
    model = DetectorModel(net=net, window=config.window, bus_count=bus_count,
                          threshold=config.threshold)
    return model, loss


def posterior(model: DetectorModel, features) -> float:
    """Posterior probability of contingency for one feature vector."""
    out = neural.forward(model.net, np.asarray(features, dtype=float))
    return float(out[0])


def posterior_series(model: DetectorModel, trace: MeasurementTrace) -> np.ndarray:
    """Posteriors of every full window of `trace`, ending at frames window-1..end."""
    X = featurize_window(windows(trace.frames, model.window))
    return neural.forward(model.net, X)[:, 0]


def evaluate_detector(model: DetectorModel, traces) -> DetectorReport:
    """Frame accuracy, pre-fault false positives, and detection delay over `traces`."""
    correct = total = fp = pre = 0
    series, delays = [], []
    for tr in traces:
        w = model.window
        post = posterior_series(model, tr)
        times = tr.times[w - 1 :]
        labels = tr.labels[w - 1 :]
        pred = (post >= model.threshold).astype(int)
        correct += int(np.sum(pred == labels))
        total += len(labels)
        fp += int(np.sum(pred[labels == 0]))
        pre += int(np.sum(labels == 0))
        series.append((times, post, labels))
        fault_t = tr.fault_start_time
        if fault_t is None:
            delays.append(None)
            continue
        hit = np.flatnonzero((pred == 1) & (labels == 1))
        delays.append(max(0.0, float(times[hit[0]] - fault_t)) if len(hit) else None)
    detected = [d for d in delays if d is not None]
    return DetectorReport(
        frame_accuracy=correct / total if total else 0.0,
        false_positive_rate=fp / pre if pre else 0.0,
        detection_delay=float(np.mean(detected)) if detected else None,
        posterior_series=series,
        delays=delays,
    )


def save_detector(model: DetectorModel, path) -> None:
    neural.save_checkpoint(model.net, path, extra={
        "window": model.window,
        "bus_count": model.bus_count,
        "threshold": model.threshold,
        "norm_center": NORM_CENTER,
        "norm_scale": NORM_SCALE,
    })


def load_detector(path) -> DetectorModel:
    net, meta = neural.load_checkpoint(path)
    norm = (meta.get("norm_center"), meta.get("norm_scale"))
    if norm != (NORM_CENTER, NORM_SCALE):
        raise ValueError(
            f"{path} was trained on features (v - {norm[0]}) / {norm[1]}, but this "
            f"detector computes (v - {NORM_CENTER}) / {NORM_SCALE}")
    return DetectorModel(net=net, window=meta["window"], bus_count=meta["bus_count"],
                         threshold=meta["threshold"])
