"""Sliding-window neural contingency detector.

Maps the last `window` frames of per-bus voltages to the posterior
probability of an ongoing contingency. The attack env only ever calls
`featurize_window`, `posterior` and `posterior_series`; detector weights
stay behind this interface (black-box boundary). `score_series` is the one
scoring rule: it pools (times, posteriors, labels) series into frame
accuracy, the pre-fault false-positive rate and `detection_delay`s, for the
hold-out report and for both sides of the attack metrics alike.
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
    "detection_delay",
    "score_series",
    "evaluate_detector",
    "save_detector",
    "load_detector",
]

NORM_CENTER = 1.0  # pu
NORM_SCALE = 0.1   # pu


@dataclass
class DetectorConfig:
    """The `detector` section of a run config, less the trace split."""

    window: int
    hidden: tuple
    threshold: float
    epochs: int
    batch_size: int
    learning_rate: float
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
    false_positive_rate: float | None  # None if no scored frame is pre-fault
    detection_delay: float | None  # mean over detected traces; None if none detected
    posterior_series: list = field(default_factory=list)  # per trace: (times, posteriors, labels)
    delays: list = field(default_factory=list)            # per trace, None = not detected

    def __post_init__(self):
        if not (0 <= self.frame_accuracy <= 1):
            raise ValueError("frame_accuracy out of [0,1]")
        if self.false_positive_rate is not None and not (0 <= self.false_positive_rate <= 1):
            raise ValueError("false_positive_rate out of [0,1]")


def featurize_window(frames) -> np.ndarray:
    """Normalize each value of a (window, bus) block, or of a (n, window, bus)
    stack of them, as (v-1)/0.1 and flatten each block; `frames` is not written."""
    out = np.subtract(frames, NORM_CENTER, dtype=float)
    out /= NORM_SCALE
    return out.reshape(*out.shape[:-2], -1)


def train_detector(train_set, config: DetectorConfig, bus_count: int):
    """Minimize binary cross-entropy with mini-batch Adam.

    `train_set` is a grid_traces.WindowSet, as split_dataset returns it.
    Returns (DetectorModel, final_loss): the mean mini-batch binary
    cross-entropy of the last epoch, NaN at 0 epochs.
    """
    if not train_set:
        raise ValueError("empty training set")
    # featurize_window's arithmetic, in place on the one fresh block that
    # stack() returns: a second (n, window, bus) block would get fresh pages
    # or not by the heap's history, so a call's cost would vary by run.
    X = train_set.stack()
    X -= NORM_CENTER
    X /= NORM_SCALE
    X = X.reshape(len(X), -1)
    y = train_set.labels.astype(float)
    if len(np.unique(y)) < 2:
        raise ValueError("training set contains a single class; need both labels")

    sizes = [config.window * bus_count, *config.hidden, 1]
    acts = ["relu"] * len(config.hidden) + ["sigmoid"]
    net = neural.init_mlp(sizes, acts, seed=config.seed)
    opt = neural.AdamState.for_net(net, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    n = len(X)
    eps = 1e-7
    # The returned loss is the last epoch's mean batch BCE, so only that epoch computes it.
    losses = []
    for epoch in range(config.epochs):
        final = epoch == config.epochs - 1
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = X[idx], y[idx]
            out, cache = neural.forward_full(net, xb)
            # np.clip's bits for these non-zero scalar bounds, without its wrapper.
            p = np.minimum(np.maximum(out[:, 0], eps), 1 - eps)
            if final:
                losses.append(float(np.mean(-yb * np.log(p) - (1 - yb) * np.log(1 - p))))
            # dL/dp; the sigmoid derivative inside backward restores (p - y)/B.
            gout = ((p - yb) / (p * (1 - p)))[:, None] / len(idx)
            grads = neural.backward(net, xb, gout, cache=cache)
            neural.adam_step(opt, net, grads)
    loss = float(np.mean(losses)) if losses else float("nan")
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


def detection_delay(times, labels, flagged) -> float | None:
    """Time from the first post-fault frame to the first flagged post-fault
    frame of a series; None if no post-fault frame is flagged."""
    post = labels == 1
    hit = np.flatnonzero(flagged & post)
    return float(times[hit[0]] - times[post.argmax()]) if len(hit) else None


def score_series(series, threshold: float) -> DetectorReport:
    """Score a non-empty list of (times, posteriors, labels) series, a frame
    flagged where its posterior is >= `threshold`.

    Accuracy and the false-positive rate pool the frames of every series; the
    latter is over pre-fault frames, None if there are none. Each series gets
    its `detection_delay`, and the mean is over the detected ones.
    """
    delays = [detection_delay(times, labels, post >= threshold)
              for times, post, labels in series]
    _, post, labels = map(np.concatenate, zip(*series))
    flagged = post >= threshold
    pre_fault = flagged[labels == 0]
    detected = [d for d in delays if d is not None]
    return DetectorReport(
        frame_accuracy=float(np.mean(flagged == labels)),
        false_positive_rate=float(np.mean(pre_fault)) if len(pre_fault) else None,
        detection_delay=float(np.mean(detected)) if detected else None,
        posterior_series=series,
        delays=delays,
    )


def evaluate_detector(model: DetectorModel, traces) -> DetectorReport:
    """`score_series` over `traces`, each from frame `window`: the first frame
    that an attack episode records, so the attack metrics score the same set."""
    if not traces:
        raise ValueError("no traces to evaluate")
    w = model.window
    series = [(tr.times[w:], posterior_series(model, tr)[1:], tr.labels[w:]) for tr in traces]
    return score_series(series, model.threshold)


def save_detector(model: DetectorModel, path) -> None:
    neural.save_checkpoint(model.net, path, extra={
        "window": model.window,
        "bus_count": model.bus_count,
        "threshold": model.threshold,
        "norm_center": NORM_CENTER,
        "norm_scale": NORM_SCALE,
    })


def load_detector(path) -> DetectorModel:
    net, meta = neural.load_checkpoint(
        path, ("window", "bus_count", "threshold", "norm_center", "norm_scale"))
    norm = (meta["norm_center"], meta["norm_scale"])
    if norm != (NORM_CENTER, NORM_SCALE):
        raise ValueError(
            f"{path} was trained on features (v - {norm[0]}) / {norm[1]}, but this "
            f"detector computes (v - {NORM_CENTER}) / {NORM_SCALE}")
    return DetectorModel(net=net, window=meta["window"], bus_count=meta["bus_count"],
                         threshold=meta["threshold"])
