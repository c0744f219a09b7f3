"""Sparse-convolution Gabor noise over a measurement/bus-index plane.

The noise value at a point is a weighted sum of Gabor kernels (circular
Gaussian times an oriented 2-D cosine) centered at randomly scattered
impulse positions. Per-bus perturbations are read off the field at
x = |measurement value|, y = log(bus index + 1).

The carrier phase is linear in position, phi(p) = 2 pi F0 (p_x cos omega0 +
p_y sin omega0), so each kernel's cosine splits by the angle-difference
identity: cos(phi_q - phi_i) = cos phi_q cos phi_i + sin phi_q sin phi_i.
Evaluating q query points against n impulses then takes one complex `exp`
pass over the n impulse phases (cos and sin from one sincos), 2q cos/sin
calls for the queries, one (q, n) Gaussian envelope and two matrix-vector
products, instead of q * n cosines. Under glibc the real and imaginary
parts of exp(i phi) equal cos phi and sin phi bit for bit; where a libm
rounds them apart, the field still agrees with a direct kernel sum to the
1e-11 the benchmark checks.
"""

from __future__ import annotations

import functools
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

    `x`, `y` and `weight` are contiguous read-only columns. `impulses` is the
    same data as a read-only record array, built on each access and not
    kept, so a field holds its impulses once; its elements expose the
    column names as attributes. `with_kernel` puts another kernel on the
    same columns without copying or re-checking them.
    """

    def __init__(self, kernel: GaborKernelParams, x, y, weight):
        x, y, weight = (np.array(c, dtype=float) for c in (x, y, weight))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("impulse position must be finite")
        if not np.isfinite(weight).all():
            raise ValueError("impulse weight must be finite")
        for column in (x, y, weight):
            column.flags.writeable = False
        self.kernel = kernel
        self.x, self.y, self.weight = x, y, weight

    def with_kernel(self, kernel: GaborKernelParams) -> "GaborField":
        """The same impulses under `kernel`; shares the read-only columns."""
        field = object.__new__(GaborField)
        field.kernel = kernel
        field.x, field.y, field.weight = self.x, self.y, self.weight
        return field

    @property
    def impulses(self) -> np.recarray:
        impulses = np.rec.fromarrays([self.x, self.y, self.weight], names="x,y,weight")
        impulses.flags.writeable = False
        return impulses

    def __len__(self):
        return len(self.x)


def evaluate_field(field: GaborField, x, y):
    """Weighted kernel sum at (x, y), by the angle-difference identity.

    With E the Gaussian envelope between queries and impulses, w the
    impulse weights and phi the carrier phase of a point,
    out = cos phi_q * (E @ (w K cos phi_i)) + sin phi_q * (E @ (w K sin phi_i)).
    For q query points and n impulses the cost is one complex `exp` pass
    over the n impulse phases, 2q cos/sin calls and the (q, n) `exp` of E.
    Under glibc exp(i phi) gives cos phi and sin phi bit for bit; elsewhere
    they may differ at rounding level, well inside the 1e-11 field check of
    the benchmark. Accepts scalar coordinates (returns a float) or arrays of
    query coordinates that broadcast together.
    """
    k = field.kernel
    fx = 2 * math.pi * k.F0 * math.cos(k.omega0)
    fy = 2 * math.pi * k.F0 * math.sin(k.omega0)
    phase = fx * field.x + fy * field.y
    amplitude = k.K * field.weight
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    # The envelope is built in place: each fresh (q, n) temporary costs page
    # faults once the allocator has returned the previous call's memory.
    env = x[..., None] - field.x
    env *= env
    dy = y[..., None] - field.y
    dy *= dy
    env += dy
    env *= -math.pi * k.sigma**2
    np.exp(env, out=env)
    query_phase = fx * x + fy * y
    carrier = 1j * phase
    np.exp(carrier, out=carrier)  # cos and sin of every impulse phase in one pass
    out = (np.cos(query_phase) * (env @ (amplitude * carrier.real))
           + np.sin(query_phase) * (env @ (amplitude * carrier.imag)))
    return float(out) if np.ndim(out) == 0 else out


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


@functools.lru_cache(maxsize=8)
def _bus_ordinates(bus_count: int) -> np.ndarray:
    """Read-only ln(i + 1) for buses i = 0 .. bus_count - 1."""
    ys = np.log(np.arange(bus_count) + 1.0)
    ys.flags.writeable = False
    return ys


def perturbation_vector(field: GaborField, frame) -> np.ndarray:
    """Per-bus noise values read off the field at (|v_i|, ln(i+1))."""
    frame = np.asarray(frame, dtype=float)
    if not np.all(np.isfinite(frame)):
        raise ValueError("frame contains non-finite values")
    return np.atleast_1d(evaluate_field(field, np.abs(frame), _bus_ordinates(len(frame))))

