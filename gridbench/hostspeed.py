"""The host's current speed, from a fixed reference chunk of work.

The machine the benchmark runs on is shared: the same code runs up to
1.8x slower while neighbours are busy, in phases from a fraction of a
second to whole minutes. CPU time slows just as wall time does, so no
clock of the process tells the phases apart. A `HostSpeed` therefore
times a fixed chunk of work, made of the same kinds of operation as
gridevade's hot paths (frozen-dataclass construction with validation,
NumPy element-wise maths on impulse x bus arrays, small matrix
products), between the iterations of a workload, at most once every
`EVERY_NS`. An iteration's time divided by the local time of the chunk
is the iteration's cost in chunks, which the host's phase moves far less
than the time itself; `NOMINAL_NS` turns it back into nanoseconds on a
host where one chunk takes that long. The set-up, which has no
iterations, is sampled the same way on a wall-clock timer instead.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# At most one chunk every 5 ms: about 5 % of a run.
EVERY_NS = 5_000_000
# The normalised figures read as ns on a host where one chunk takes this
# long. On the host the benchmark was defined on (2 vCPU AMD EPYC,
# Python 3.11, NumPy 2.4, 1 BLAS thread) a chunk took 0.16-0.29 ms,
# depending on the phase.
NOMINAL_NS = 250_000
# The local speed at a time is the median of the chunks nearest to it.
NEAREST = 9


@dataclass(frozen=True)
class _Item:
    x: float
    y: float
    w: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.w)):
            raise ValueError("non-finite item")


_RNG = np.random.default_rng(0)
_XS = _RNG.uniform(-2.0, 3.0, 300)
_Q = _RNG.uniform(0.0, 2.0, (9, 1))
_A = _RNG.standard_normal((64, 19))
_B = _RNG.standard_normal((19, 64))


def reference_chunk() -> float:
    """A fixed amount of work; returns a value so that nothing is skipped."""
    items = [_Item(x=float(x), y=0.5 * float(x), w=1.0) for x in _XS[:150]]
    d = _Q - np.array([it.x for it in items])
    s = float(np.sum(np.exp(-math.pi * d * d) * np.cos(2 * math.pi * d)))
    h = _A
    for _ in range(4):
        h = np.tanh(h @ _B) @ _B.T * 0.1
    return s + float(h.sum())


class HostSpeed:
    """Reference chunks timed between iterations, and what follows from them."""

    def __init__(self):
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._next = 0

    def sample(self, force: bool = False) -> None:
        """Time one chunk, unless one ran less than EVERY_NS ago."""
        t0 = time.perf_counter_ns()
        if t0 < self._next and not force:
            return
        reference_chunk()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._next = t1 + EVERY_NS

    def start_timer(self) -> None:
        """Time a chunk every EVERY_NS of wall time (SIGALRM) until stopped."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample(force=True))
        signal.setitimer(signal.ITIMER_REAL, EVERY_NS / 1e9, EVERY_NS / 1e9)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise_stretch(self, seconds: float) -> float:
        """A stretch of time that holds all the chunks, less them, at nominal speed."""
        net = seconds - sum(self.durations) / 1e9
        return net * NOMINAL_NS / float(np.median(self.durations))

    def chunk_ns_between(self, a, b) -> np.ndarray:
        """Summed chunk time of the chunks started in each [a, b)."""
        starts = np.asarray(self.starts, dtype=np.int64)
        cum = np.concatenate([[0], np.cumsum(self.durations, dtype=np.int64)])
        return cum[np.searchsorted(starts, b)] - cum[np.searchsorted(starts, a)]

    def local_ns(self, at) -> np.ndarray:
        """Median time of the NEAREST chunks around each time in `at`."""
        at = np.atleast_1d(np.asarray(at, dtype=np.int64))
        n = len(self.starts)
        k = min(NEAREST, n)
        durations = np.asarray(self.durations, dtype=float)
        starts = np.asarray(self.starts, dtype=np.int64)
        # The k nearest of a sorted sequence are a run of k neighbours.
        first = np.clip(np.searchsorted(starts, at) - k // 2, 0, n - k)
        windows = np.lib.stride_tricks.sliding_window_view(durations, k)
        return np.median(windows[first], axis=1)

    def normalise(self, net_ns, at) -> np.ndarray:
        """`net_ns` measured around the times `at`, in ns at nominal speed.

        Empty when no chunk was timed: there is nothing to normalise by.
        """
        if not self.starts:
            return np.zeros(0)
        return np.asarray(net_ns, dtype=float) * NOMINAL_NS / self.local_ns(at)
