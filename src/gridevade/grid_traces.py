"""Labeled voltage-measurement traces for a small bus system.

A scripted generator fault is modeled as a damped, oscillating voltage sag
coupled onto each bus; this stands in for a full electromechanical
simulator, which the attack pipeline never needs (detector and attacker
only ever see measurement frames).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "BusCase",
    "TraceScenario",
    "MeasurementTrace",
    "generate_trace",
    "load_case",
    "default_case",
    "windows",
    "WindowSet",
    "split_dataset",
]


@dataclass(frozen=True)
class BusCase:
    """Static description of the monitored buses."""

    bus_count: int
    nominal_voltage: np.ndarray  # per-bus, pu
    fault_coupling: np.ndarray   # per-bus, in [0, 1]

    def __post_init__(self):
        nominal = np.asarray(self.nominal_voltage, dtype=float)
        coupling = np.asarray(self.fault_coupling, dtype=float)
        object.__setattr__(self, "nominal_voltage", nominal)
        object.__setattr__(self, "fault_coupling", coupling)
        if self.bus_count <= 0:
            raise ValueError(f"bus_count must be positive, got {self.bus_count}")
        if nominal.shape != (self.bus_count,):
            raise ValueError(
                f"nominal_voltage length {nominal.shape} does not match bus_count {self.bus_count}"
            )
        if coupling.shape != (self.bus_count,):
            raise ValueError(
                f"fault_coupling length {coupling.shape} does not match bus_count {self.bus_count}"
            )
        if np.any(nominal < 0.9) or np.any(nominal > 1.1):
            raise ValueError("nominal_voltage entries must lie in [0.9, 1.1] pu")
        if np.any(coupling < 0.0) or np.any(coupling > 1.0):
            raise ValueError("fault_coupling entries must lie in [0, 1]")


@dataclass(frozen=True)
class TraceScenario:
    """Everything needed to generate one measurement trace."""

    case: BusCase
    dt: float
    horizon: float
    fault_start: float
    fault_depth: float
    fault_freq: float
    fault_damping: float
    sensor_noise_std: float
    seed: int = 0

    def with_seed(self, seed: int) -> "TraceScenario":
        return replace(self, seed=seed)

    @property
    def n_frames(self) -> int:
        """Frames of a generated trace: one every `dt` over `horizon`."""
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class MeasurementTrace:
    """Time-indexed per-bus voltage magnitudes with contingency labels."""

    times: np.ndarray    # (n_frames,)
    frames: np.ndarray   # (n_frames, bus_count)
    labels: np.ndarray   # (n_frames,) in {0, 1}

    def __post_init__(self):
        if not (len(self.times) == len(self.frames) == len(self.labels)):
            raise ValueError("times, frames, labels must have equal length")

    @property
    def n_frames(self) -> int:
        return len(self.times)


def transient(tau, depth: float, damping: float, freq: float):
    """Voltage-sag envelope at time `tau` since fault onset (tau >= 0)."""
    tau = np.asarray(tau, dtype=float)
    return depth * np.exp(-damping * tau) * np.abs(np.cos(2 * np.pi * freq * tau))


def generate_trace(scenario: TraceScenario) -> MeasurementTrace:
    """Simulate one labeled trace; deterministic given scenario.seed."""
    case = scenario.case
    n = scenario.n_frames
    times = np.arange(n) * scenario.dt
    labels = (times >= scenario.fault_start).astype(int)

    frames = np.tile(case.nominal_voltage, (n, 1))
    post = labels == 1
    tau = times[post] - scenario.fault_start
    sag = transient(tau, scenario.fault_depth, scenario.fault_damping, scenario.fault_freq)
    frames[post] -= np.outer(sag, case.fault_coupling)

    rng = np.random.default_rng(scenario.seed)
    frames += rng.normal(0.0, scenario.sensor_noise_std, size=frames.shape)
    return MeasurementTrace(times=times, frames=frames, labels=labels)


def _parse_vector(raw: str, key: str, lineno: int) -> np.ndarray:
    try:
        return np.array([float(v) for v in raw.split(",") if v.strip()])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: cannot parse '{key}' as a number list: {exc}") from None


def load_case(path: str | Path) -> BusCase:
    """Read a bus case from a key-value text file.

    Expected keys: ``bus_count``, ``nominal_voltage``, ``fault_coupling``
    (vectors comma-separated). Lines starting with '#' are comments.
    """
    path = Path(path)
    fields: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "bus_count":
            try:
                fields[key] = int(raw)
            except ValueError:
                raise ValueError(f"line {lineno}: bus_count must be an integer, got '{raw}'") from None
        elif key in ("nominal_voltage", "fault_coupling"):
            fields[key] = _parse_vector(raw, key, lineno)
        else:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
    missing = {"bus_count", "nominal_voltage", "fault_coupling"} - fields.keys()
    if missing:
        raise ValueError(f"case file {path} missing keys: {sorted(missing)}")
    return BusCase(
        bus_count=fields["bus_count"],
        nominal_voltage=fields["nominal_voltage"],
        fault_coupling=fields["fault_coupling"],
    )


def default_case() -> BusCase:
    """The shipped 9-bus case."""
    with resources.as_file(resources.files("gridevade.data") / "case9.txt") as p:
        return load_case(p)


def windows(frames: np.ndarray, window: int) -> np.ndarray:
    """Read-only (n - window + 1, window, bus) view of every full window of
    `frames`; row i is the window that ends at frame i + window - 1."""
    return sliding_window_view(frames, window, axis=0).swapaxes(1, 2)


@dataclass(frozen=True)
class WindowSet:
    """Labeled sliding windows of some traces, held as the traces' frames.

    Iterating gives one (window view, label) pair per full window of each
    trace, trace by trace in order; the label is that of the window's
    final frame. No window is copied until `stack` is called.
    """

    frames: tuple        # one (n_frames, bus_count) array per trace
    window: int
    labels: np.ndarray   # (n,) label of each window, in iteration order

    def __post_init__(self):
        count = sum(len(f) - self.window + 1 for f in self.frames)
        if len(self.labels) != count:
            raise ValueError(f"{len(self.labels)} labels for {count} windows")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        rows = (row for f in self.frames for row in windows(f, self.window))
        return zip(rows, self.labels.tolist())

    def stack(self) -> np.ndarray:
        """A fresh (n, window, bus_count) float array of every window, in
        iteration order; the set must not be empty."""
        return np.concatenate([windows(f, self.window) for f in self.frames], dtype=float)


def split_dataset(traces, window: int, ratio: float, seed: int = 0):
    """Split traces into train/test `WindowSet`s at trace level, seeded and
    disjoint. A split that rounding leaves without a trace is an empty set.
    """
    if not (0 < ratio < 1):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    for k, tr in enumerate(traces):
        if tr.n_frames <= window:
            raise ValueError(
                f"trace {k} has {tr.n_frames} frames, too short for window {window}"
            )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(traces))
    n_train = int(round(ratio * len(traces)))

    def windows_of(idx):
        labels = [traces[k].labels[window - 1:] for k in idx]
        return WindowSet(frames=tuple(traces[k].frames for k in idx), window=window,
                         labels=np.concatenate(labels) if labels else np.zeros(0, dtype=int))

    return windows_of(order[:n_train]), windows_of(order[n_train:])
