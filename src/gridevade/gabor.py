"""Sparse-convolution Gabor noise over a measurement/bus-index plane.

The noise value at a point is a weighted sum of Gabor kernels (circular
Gaussian times an oriented 2-D cosine) centered at randomly scattered
impulse positions. Per-bus perturbations are read off the field at
x = |measurement value|, y = log(bus index + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_FLOOR",
    "GaborKernelParams",
    "GaborField",
    "gabor_kernel",
    "evaluate_field",
    "build_field",
    "bus_coordinate",
    "perturbation_vector",
]

# Keeps the kernel-support padding 3/max(sigma, SIGMA_FLOOR) bounded for
# near-zero sigma, where the Gaussian envelope degenerates to 1.
SIGMA_FLOOR = 1.0


@dataclass(frozen=True)
class GaborKernelParams:
    """Kernel magnitude, Gaussian width, cosine frequency and orientation."""

    K: float = 1.0
    sigma: float = 1.0
    F0: float = 1.0
    omega0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.F0 < 0:
            raise ValueError(f"F0 must be >= 0, got {self.F0}")
        if not (0 <= self.omega0 < math.pi):
            raise ValueError(f"omega0 must lie in [0, pi), got {self.omega0}")


def gabor_kernel(params: GaborKernelParams, x, y):
    """Gaussian-windowed oriented cosine; |result| <= |K|.

    At sigma = 0 the Gaussian factor is exactly 1 (the limit), so the
    kernel reduces to a plain oriented cosine.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    envelope = np.exp(-math.pi * params.sigma**2 * (x * x + y * y))
    carrier = np.cos(
        2 * math.pi * params.F0 * (x * math.cos(params.omega0) + y * math.sin(params.omega0))
    )
    out = params.K * envelope * carrier
    return float(out) if out.ndim == 0 else out


class GaborField:
    """One Gabor kernel applied at an immutable array of weighted impulses.

    `impulses` is a record array with `x`, `y` and `weight` columns; its
    elements expose the same names as attributes.
    """

    def __init__(self, kernel: GaborKernelParams, x, y, weight):
        x, y, weight = (np.asarray(c, dtype=float) for c in (x, y, weight))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("impulse position must be finite")
        if not np.isfinite(weight).all():
            raise ValueError("impulse weight must be finite")
        self.kernel = kernel
        self.impulses = np.rec.fromarrays([x, y, weight], names="x,y,weight")
        self.impulses.flags.writeable = False

    def __len__(self):
        return len(self.impulses)


def evaluate_field(field: GaborField, x, y):
    """Weighted kernel sum at (x, y); vectorized over impulses.

    Accepts scalar coordinates or equal-shape arrays of query points.
    """
    k = field.kernel
    imp = field.impulses
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    dx = x - imp.x
    dy = y - imp.y
    env = np.exp(-math.pi * k.sigma**2 * (dx * dx + dy * dy))
    car = np.cos(2 * math.pi * (dx * (k.F0 * math.cos(k.omega0))
                                + dy * (k.F0 * math.sin(k.omega0))))
    out = np.sum(imp.weight * k.K * env * car, axis=-1)
    return float(out) if out.ndim == 0 else out


def build_field(
    kernel: GaborKernelParams,
    density: float,
    domain,
    seed,
    pad: float | None = None,
) -> GaborField:
    """Scatter Poisson-distributed +-1-weighted impulses sharing `kernel`.

    The impulse count is Poisson(density * padded_area) and positions are
    uniform over the domain padded by the kernel-support radius, so the
    expected count inside the unpadded domain is density * domain_area.
    `pad` overrides the default support radius 3/max(sigma, SIGMA_FLOOR);
    callers that sweep sigma can pass a fixed pad to keep the impulse
    layout independent of the action.
    """
    x_min, x_max, y_min, y_max = domain
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"degenerate domain {domain}")
    if density <= 0:
        raise ValueError(f"density must be > 0, got {density}")
    if pad is None:
        pad = 3.0 / max(kernel.sigma, SIGMA_FLOOR)
    rng = np.random.default_rng(seed)
    area = (x_max - x_min + 2 * pad) * (y_max - y_min + 2 * pad)
    count = rng.poisson(density * area)
    xs = rng.uniform(x_min - pad, x_max + pad, size=count)
    ys = rng.uniform(y_min - pad, y_max + pad, size=count)
    ws = rng.choice([-1.0, 1.0], size=count)
    return GaborField(kernel, xs, ys, ws)


def bus_coordinate(i: int) -> float:
    """Vertical noise-plane coordinate of bus `i` (zero-based): ln(i + 1)."""
    if i < 0:
        raise ValueError(f"bus index must be >= 0, got {i}")
    return math.log(i + 1)


def perturbation_vector(field: GaborField, frame) -> np.ndarray:
    """Per-bus noise values read off the field at (|v_i|, ln(i+1))."""
    frame = np.asarray(frame, dtype=float)
    if not np.all(np.isfinite(frame)):
        raise ValueError("frame contains non-finite values")
    ys = np.log(np.arange(len(frame)) + 1.0)
    return np.atleast_1d(evaluate_field(field, np.abs(frame), ys))

