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
    dt: float = 0.1
    horizon: float = 10.0
    fault_start: float = 5.4
    fault_bus: int = 4
    fault_depth: float = 0.2
    fault_freq: float = 1.5
    fault_damping: float = 1.0
    sensor_noise_std: float = 0.002
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.dt < self.horizon):
            raise ValueError(f"dt must satisfy 0 < dt < horizon, got dt={self.dt}")
        if not (0 <= self.fault_start < self.horizon):
            raise ValueError(
                f"fault_start must lie in [0, horizon), got fault_start={self.fault_start}"
            )
        if not (0 <= self.fault_bus < self.case.bus_count):
            raise ValueError(
                f"fault_bus {self.fault_bus} out of range for {self.case.bus_count} buses"
            )
        if self.fault_depth < 0:
            raise ValueError(f"fault_depth must be >= 0, got {self.fault_depth}")
        if self.sensor_noise_std < 0:
            raise ValueError(
                f"sensor_noise_std must be >= 0, got {self.sensor_noise_std}"
            )

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

    @property
    def bus_count(self) -> int:
        return self.frames.shape[1]

    @property
    def fault_start_time(self) -> float | None:
        """Time of the first contingency-labeled frame, or None if clean."""
        idx = np.flatnonzero(self.labels == 1)
        return float(self.times[idx[0]]) if len(idx) else None


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


def split_dataset(traces, window: int, ratio: float, seed: int = 0):
    """Split traces into train/test sets of labeled sliding windows.

    Each window is a (window, bus_count) frame block labeled by its final
    frame. The split is at trace level, seeded and disjoint.
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
        return [pair for k in idx for pair in zip(
            windows(traces[k].frames, window), traces[k].labels[window - 1:].tolist())]

    return windows_of(order[:n_train]), windows_of(order[n_train:])
