import math
import platform

import numpy as np
import pytest

from gridevade import gabor
from gridevade.attack_env import DEFAULT_IMPULSE_DENSITY, LAYOUT_PAD, NOISE_DOMAIN
from gridevade.gabor import (
    GaborField,
    GaborKernelParams,
    build_field,
    evaluate_field,
    gabor_kernel,
    perturbation_vector,
)

from conftest import held_blocks

DOMAIN = (0.0, 1.2, 0.0, math.log(10.0))
EMPTY = GaborField(GaborKernelParams(), [], [], [])


def direct_sum(field, x, y):
    """Literal weighted-kernel sum; the oracle for evaluate_field."""
    return sum(im.weight * gabor_kernel(field.kernel, x - im.x, y - im.y)
               for im in field.impulses)


def random_field(rng, n_impulses=50):
    """One random kernel at `n_impulses` random +-1-weighted positions."""
    kernel = GaborKernelParams(
        K=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.1, 2.0),
        F0=rng.uniform(0.0, 5.0), omega0=rng.uniform(0.0, math.pi * 0.999))
    return GaborField(kernel, rng.uniform(-1, 2, n_impulses), rng.uniform(-1, 3, n_impulses),
                      rng.choice([-1.0, 1.0], n_impulses))


class TestKernel:
    def test_origin_returns_magnitude(self):
        p = GaborKernelParams(K=2.5, sigma=1.3, F0=4.0, omega0=1.0)
        assert gabor_kernel(p, 0.0, 0.0) == pytest.approx(2.5, abs=1e-15)

    def test_cosine_zero_crossing_with_degenerate_gaussian(self):
        # sigma=0 -> envelope 1; argument 2*pi*0.25*1 = pi/2 -> cos = 0
        p = GaborKernelParams(K=1.0, sigma=0.0, F0=0.25, omega0=0.0)
        assert gabor_kernel(p, 1.0, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_pure_gaussian_value(self):
        p = GaborKernelParams(K=1.0, sigma=1.0, F0=0.0, omega0=0.0)
        assert gabor_kernel(p, 0.5, 0.0) == pytest.approx(math.exp(-math.pi / 4), rel=1e-12)

    def test_bounded_by_magnitude(self):
        rng = np.random.default_rng(0)
        p = GaborKernelParams(K=1.7, sigma=0.8, F0=3.0, omega0=0.4)
        pts = rng.uniform(-3, 3, size=(200, 2))
        vals = [gabor_kernel(p, x, y) for x, y in pts]
        assert max(abs(v) for v in vals) <= 1.7 + 1e-12

    def test_rotation_property(self):
        # kernel at orientation w equals orientation-0 kernel at (x,y) rotated by -w
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.uniform(0, math.pi * 0.999)
            x, y = rng.uniform(-2, 2, size=2)
            p = GaborKernelParams(K=1.0, sigma=0.7, F0=2.0, omega0=w)
            p0 = GaborKernelParams(K=1.0, sigma=0.7, F0=2.0, omega0=0.0)
            xr = x * math.cos(-w) - y * math.sin(-w)
            yr = x * math.sin(-w) + y * math.cos(-w)
            assert gabor_kernel(p, x, y) == pytest.approx(gabor_kernel(p0, xr, yr), abs=1e-12)

    def test_isotropic_when_frequency_zero(self):
        rng = np.random.default_rng(2)
        p = GaborKernelParams(K=1.0, sigma=1.1, F0=0.0, omega0=0.3)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            xr = x * math.cos(theta) - y * math.sin(theta)
            yr = x * math.sin(theta) + y * math.cos(theta)
            assert gabor_kernel(p, x, y) == pytest.approx(gabor_kernel(p, xr, yr), abs=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(sigma=-0.1), dict(F0=-1.0), dict(omega0=math.pi), dict(K=math.inf),
    ])
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            GaborKernelParams(**kw)


class TestGaborField:
    KERNEL = GaborKernelParams()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, match", [
        (0, "position"), (1, "position"), (2, "weight"),
    ])
    def test_nonfinite_impulse_rejected(self, bad, column, match):
        cols = [[0.1, 0.2], [0.3, 0.4], [1.0, -1.0]]
        cols[column][1] = bad
        with pytest.raises(ValueError, match=match):
            GaborField(self.KERNEL, *cols)

    def test_one_kernel_and_impulse_columns(self):
        field = GaborField(self.KERNEL, [0.1, 0.2], [0.3, 0.4], [1.0, -1.0])
        assert field.kernel is self.KERNEL
        assert len(field) == 2
        assert np.array_equal(field.impulses.y, [0.3, 0.4])
        assert [(im.x, im.y, im.weight) for im in field.impulses] == \
               [(0.1, 0.3, 1.0), (0.2, 0.4, -1.0)]

    def test_impulses_are_read_only(self):
        field = GaborField(self.KERNEL, [0.1], [0.3], [1.0])
        with pytest.raises(ValueError):
            field.impulses.x[0] = 5.0
        for column in (field.x, field.y, field.weight):
            with pytest.raises(ValueError):
                column[0] = 5.0

    def test_columns_are_contiguous_copies(self):
        xs = np.array([0.1, 0.2, 0.3])
        field = GaborField(self.KERNEL, xs, [0.3, 0.4, 0.5], [1.0, -1.0, 1.0])
        xs[0] = 9.0  # the caller's array stays writable and unshared
        assert np.array_equal(field.x, [0.1, 0.2, 0.3])
        for column in (field.x, field.y, field.weight):
            assert column.flags.c_contiguous
        assert np.array_equal(field.impulses.x, field.x)
        assert np.array_equal(field.impulses.weight, field.weight)


    def test_with_kernel_shares_the_read_only_columns(self):
        field = build_field(self.KERNEL, 20.0, DOMAIN, seed=3, pad=3.0)
        kernel = GaborKernelParams(K=2.0, sigma=0.5, F0=3.0, omega0=1.0)
        swapped = field.with_kernel(kernel)
        assert swapped.kernel is kernel
        assert field.kernel is self.KERNEL
        assert swapped.x is field.x and swapped.y is field.y and swapped.weight is field.weight
        for column in (swapped.x, swapped.y, swapped.weight):
            assert not column.flags.writeable
        impulses = swapped.impulses
        assert not impulses.flags.writeable
        assert len(swapped) == len(impulses) == len(field)
        for name in ("x", "y", "weight"):
            assert np.array_equal(impulses[name], getattr(field, name))

    def test_with_kernel_evaluates_like_a_field_built_with_it(self):
        kernel = GaborKernelParams(K=2.0, sigma=0.5, F0=3.0, omega0=1.0)
        swapped = build_field(self.KERNEL, 20.0, DOMAIN, seed=3, pad=3.0).with_kernel(kernel)
        frame = np.linspace(0.9, 1.1, 9)
        assert np.array_equal(perturbation_vector(swapped, frame),
                              perturbation_vector(build_field(kernel, 20.0, DOMAIN, seed=3,
                                                              pad=3.0), frame))


class TestKeptLayout:
    """`with_kernel` fields of one layout share its bus-side envelope blocks."""

    @staticmethod
    def layout(seed=7):
        return build_field(GaborKernelParams(), DEFAULT_IMPULSE_DENSITY, NOISE_DOMAIN,
                           seed=seed, pad=LAYOUT_PAD)

    def test_kept_layout_gives_the_bits_of_a_field_without_a_block(self):
        layout = self.layout()
        rng = np.random.default_rng(3)
        children, blocks = [], {}
        for i in range(12):
            kernel = GaborKernelParams(sigma=rng.uniform(0.0, 2.0), F0=rng.uniform(0.0, 5.0),
                                       omega0=rng.uniform(0.0, math.pi * 0.999))
            field = layout.with_kernel(kernel)
            children.append(field)
            frame = rng.uniform(-1.2, 1.2, 9 if i % 2 == 0 else 5)
            copy = GaborField(kernel, field.x, field.y, field.weight)
            assert (perturbation_vector(field, frame).tobytes()
                    == perturbation_vector(copy, frame).tobytes())
            assert held_blocks(copy) == []
            block = field._bus_dy2[len(frame)]
            assert blocks.setdefault(len(frame), block) is block
        assert all(field._bus_dy2 is layout._bus_dy2 for field in children)
        assert sorted(layout._bus_dy2) == [5, 9]
        for buses, block in layout._bus_dy2.items():
            d = gabor._bus_ordinates(buses)[:, None] - layout.y
            assert block.tobytes() == (d * d).tobytes()
            assert not block.flags.writeable

    def test_block_is_made_by_the_first_evaluation(self):
        layout = self.layout()
        field = layout.with_kernel(GaborKernelParams(sigma=0.5, F0=2.0))
        assert field._bus_dy2 == {} and held_blocks(layout) == []
        perturbation_vector(field, np.ones(9))
        assert len(held_blocks(layout)) == 1

    def test_a_field_used_once_holds_no_block(self):
        field = build_field(GaborKernelParams(sigma=0.5, F0=2.0), DEFAULT_IMPULSE_DENSITY,
                            NOISE_DOMAIN, seed=7, pad=LAYOUT_PAD)
        for buses in (9, 5, 9):
            perturbation_vector(field, np.ones(buses))
        assert held_blocks(field) == []

    def test_evaluate_field_reads_no_block(self):
        # Arbitrary query points are not the bus ordinates: the inline path.
        field = self.layout().with_kernel(GaborKernelParams(sigma=0.5, F0=2.0))
        x, y = np.linspace(0.0, 1.2, 9), np.linspace(0.0, 2.0, 9)
        evaluate_field(field, x, y)
        assert field._bus_dy2 == {}


class TestEvaluateField:
    def test_empty_field_is_zero(self):
        assert evaluate_field(EMPTY, 0.3, 0.3) == 0.0

    def test_single_impulse_at_query_point(self):
        p = GaborKernelParams(K=1.4, sigma=1.0, F0=2.0, omega0=0.5)
        field = GaborField(p, [0.4], [0.9], [-1.0])
        assert evaluate_field(field, 0.4, 0.9) == pytest.approx(-1.4, abs=1e-14)

    def test_vectorized_matches_direct_sum(self):
        # accelerated (vectorized) path vs the literal per-impulse oracle
        rng = np.random.default_rng(3)
        for _ in range(10):
            field = random_field(rng)
            for _ in range(20):
                x, y = rng.uniform(0, 1.2), rng.uniform(0, 2.3)
                got = evaluate_field(field, x, y)
                want = direct_sum(field, x, y)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("shape_x, shape_y", [
        ((), ()), ((9,), (9,)), ((2, 3), (2, 3)), ((2, 3), ()), ((3,), (2, 1)),
    ])
    def test_query_shapes_match_kernel_sums(self, shape_x, shape_y):
        rng = np.random.default_rng(41)
        field = random_field(rng)
        qx, qy = rng.uniform(0, 1.2, shape_x), rng.uniform(0, 2.3, shape_y)
        got = evaluate_field(field, qx, qy)
        bx, by = np.broadcast_arrays(qx, qy)
        want = [direct_sum(field, x, y) for x, y in zip(bx.ravel(), by.ravel())]
        assert np.shape(got) == bx.shape
        assert type(got) is float if bx.ndim == 0 else got.dtype == float
        assert np.allclose(np.ravel(got), want, rtol=1e-9, atol=1e-12)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="exp(i phi) equals cos/sin bit for bit under glibc only")
    def test_carrier_equals_separate_cos_sin(self):
        """The one-pass complex carrier against separate np.cos/np.sin calls."""
        rng = np.random.default_rng(42)
        ys = np.log(np.arange(9) + 1.0)
        for seed in range(200):
            kernel = GaborKernelParams(
                K=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.05, 2.0),
                F0=rng.uniform(0.0, 5.0), omega0=rng.uniform(0.0, math.pi * 0.999))
            field = build_field(kernel, DEFAULT_IMPULSE_DENSITY, NOISE_DOMAIN, seed=seed,
                                pad=LAYOUT_PAD)
            xs = rng.uniform(0.8, 1.2, 9)
            fx = 2 * math.pi * kernel.F0 * math.cos(kernel.omega0)
            fy = 2 * math.pi * kernel.F0 * math.sin(kernel.omega0)
            phase, query_phase = fx * field.x + fy * field.y, fx * xs + fy * ys
            amplitude = kernel.K * field.weight
            env = np.exp(-math.pi * kernel.sigma**2 * ((xs[:, None] - field.x) ** 2
                                                      + (ys[:, None] - field.y) ** 2))
            want = (np.cos(query_phase) * (env @ (amplitude * np.cos(phase)))
                    + np.sin(query_phase) * (env @ (amplitude * np.sin(phase))))
            assert np.array_equal(perturbation_vector(field, xs), want)

    def test_boundedness(self):
        rng = np.random.default_rng(4)
        field = random_field(rng)
        bound = sum(abs(im.weight * field.kernel.K) for im in field.impulses)
        xs = rng.uniform(0, 1.2, 500)
        ys = rng.uniform(0, 2.3, 500)
        assert np.max(np.abs(evaluate_field(field, xs, ys))) <= bound + 1e-9


def fsum_field(field, qx, qy):
    """math.fsum of the literal kernel terms at each query point, and of their |terms|."""
    k = field.kernel
    values, scales = [], []
    for px, py in zip(qx, qy):
        dx = px - field.x
        dy = py - field.y
        terms = field.weight * k.K * np.exp(-math.pi * k.sigma**2 * (dx * dx + dy * dy)) * np.cos(
            2 * math.pi * k.F0 * (dx * math.cos(k.omega0) + dy * math.sin(k.omega0)))
        values.append(math.fsum(terms))
        scales.append(math.fsum(np.abs(terms)))
    return np.array(values), np.array(scales)


class TestEvaluateFieldPrecision:
    """The angle-difference evaluation against a math.fsum direct sum.

    Fields have the shipped size (about 1400 impulses over the padded
    domain); with F0 up to 5 the carrier phases reach about 200 rad.
    """

    TOL = 1e-12

    def shipped_field(self, kernel, seed):
        return build_field(kernel, DEFAULT_IMPULSE_DENSITY, NOISE_DOMAIN, seed=seed,
                           pad=LAYOUT_PAD)

    def assert_close(self, field, qx, qy):
        got = evaluate_field(field, qx, qy)
        want, scale = fsum_field(field, qx, qy)
        assert np.all(np.abs(got - want) <= self.TOL * (1.0 + scale))

    def test_random_kernels_at_bus_coordinates(self):
        rng = np.random.default_rng(31)
        bus_y = np.log(np.arange(9) + 1.0)
        for i in range(60):
            kernel = GaborKernelParams(
                K=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.05, 2.0),
                F0=rng.uniform(0.0, 5.0), omega0=rng.uniform(0.0, math.pi * 0.999))
            field = self.shipped_field(kernel, seed=i)
            assert len(field) > 1200
            self.assert_close(field, rng.uniform(0.5, 1.2, 9), bus_y)

    def test_extreme_kernels_across_domain(self):
        rng = np.random.default_rng(32)
        qx, qy = rng.uniform(0.0, 1.2, 25), rng.uniform(0.0, math.log(10.0), 25)
        for sigma in (0.05, 2.0):
            for omega0 in (0.0, math.pi / 4, math.pi * 0.999):
                field = self.shipped_field(GaborKernelParams(sigma=sigma, F0=5.0, omega0=omega0), 5)
                self.assert_close(field, qx, qy)

    def test_sigma_zero_is_a_plain_cosine_sum(self):
        field = self.shipped_field(GaborKernelParams(sigma=0.0, F0=3.7, omega0=0.9), 6)
        self.assert_close(field, np.linspace(0.0, 1.2, 9), np.log(np.arange(9) + 1.0))

    def test_frequency_zero_is_a_gaussian_sum(self):
        field = self.shipped_field(GaborKernelParams(sigma=0.8, F0=0.0, omega0=1.3), 7)
        qx, qy = np.linspace(0.0, 1.2, 9), np.log(np.arange(9) + 1.0)
        self.assert_close(field, qx, qy)
        gauss = [math.fsum(field.weight * np.exp(-math.pi * 0.64 * ((x - field.x) ** 2
                                                                    + (y - field.y) ** 2)))
                 for x, y in zip(qx, qy)]
        assert np.allclose(evaluate_field(field, qx, qy), gauss, rtol=0, atol=1e-12)

    def test_empty_field_keeps_query_shape(self):
        out = evaluate_field(EMPTY, np.ones((2, 3)), np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert not out.any()

    def test_scalar_query_returns_float(self):
        field = self.shipped_field(GaborKernelParams(sigma=0.7, F0=2.3, omega0=1.1), 8)
        got = evaluate_field(field, 0.95, 0.7)
        assert type(got) is float
        assert type(evaluate_field(EMPTY, 0.95, 0.7)) is float
        self.assert_close(field, [0.95], [0.7])
        assert got == pytest.approx(evaluate_field(field, [0.95], [0.7])[0], rel=0, abs=1e-12)

    def test_query_shapes_broadcast(self):
        field = self.shipped_field(GaborKernelParams(sigma=0.7, F0=2.3, omega0=1.1), 9)
        grid = np.linspace(0.0, 1.2, 6).reshape(2, 3)
        for qx, qy in ((grid, 0.4), (0.4, grid)):
            got = evaluate_field(field, qx, qy)
            assert got.shape == (2, 3)
            want, _ = fsum_field(field, *(np.broadcast_to(q, (2, 3)).ravel() for q in (qx, qy)))
            assert np.allclose(got.ravel(), want, rtol=0, atol=1e-11)


class TestBuildField:
    KERNEL = GaborKernelParams(K=1.0, sigma=1.0, F0=1.0, omega0=0.2)

    def test_deterministic(self):
        a = build_field(self.KERNEL, 20.0, DOMAIN, seed=9)
        b = build_field(self.KERNEL, 20.0, DOMAIN, seed=9)
        assert a.kernel == b.kernel
        assert np.array_equal(a.impulses, b.impulses)

    def test_poisson_count_concentration(self):
        density = 50.0
        field = build_field(self.KERNEL, density, DOMAIN, seed=11)
        pad = 3.0 / max(self.KERNEL.sigma, 1.0)
        area = (1.2 + 2 * pad) * (math.log(10.0) + 2 * pad)
        lam = density * area
        assert abs(len(field) - lam) <= 3 * math.sqrt(lam)

    def test_weights_are_balanced_signs(self):
        field = build_field(self.KERNEL, 170.0, DOMAIN, seed=13)
        ws = np.array([im.weight for im in field.impulses])
        assert len(ws) >= 9000  # enough samples for the sign check
        assert set(np.unique(ws)) == {-1.0, 1.0}
        assert abs(np.mean(ws)) < 0.03

    def test_impulses_inside_padded_domain(self):
        field = build_field(self.KERNEL, 20.0, DOMAIN, seed=15)
        pad = 3.0 / max(self.KERNEL.sigma, 1.0)
        for im in field.impulses:
            assert -pad <= im.x <= 1.2 + pad
            assert -pad <= im.y <= math.log(10.0) + pad

    def test_fixed_pad_keeps_layout_independent_of_kernel(self):
        k1 = GaborKernelParams(K=1.0, sigma=0.3, F0=1.0, omega0=0.0)
        k2 = GaborKernelParams(K=1.0, sigma=1.7, F0=4.0, omega0=1.0)
        a = build_field(k1, 20.0, DOMAIN, seed=21, pad=3.0)
        b = build_field(k2, 20.0, DOMAIN, seed=21, pad=3.0)
        assert [(im.x, im.y, im.weight) for im in a.impulses] == \
               [(im.x, im.y, im.weight) for im in b.impulses]

    @pytest.mark.parametrize("density", [0.5, 20.0, DEFAULT_IMPULSE_DENSITY, 170.0])
    def test_columns_equal_a_reference_draw(self, density):
        """Same bits as poisson, uniform x, uniform y and choice([-1, 1]) in turn."""
        for seed in range(25):
            field = build_field(self.KERNEL, density, NOISE_DOMAIN, seed=seed, pad=LAYOUT_PAD)
            rng = np.random.default_rng(seed)
            x_min, x_max, y_min, y_max = NOISE_DOMAIN
            count = rng.poisson(density * (x_max - x_min + 2 * LAYOUT_PAD)
                                * (y_max - y_min + 2 * LAYOUT_PAD))
            want = (rng.uniform(x_min - LAYOUT_PAD, x_max + LAYOUT_PAD, size=count),
                    rng.uniform(y_min - LAYOUT_PAD, y_max + LAYOUT_PAD, size=count),
                    rng.choice([-1.0, 1.0], size=count))
            for got, ref in zip((field.x, field.y, field.weight), want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_columns_are_read_only_contiguous_float64(self):
        for seed in range(5):
            field = build_field(self.KERNEL, 20.0, DOMAIN, seed=seed)
            for column in (field.x, field.y, field.weight):
                assert column.dtype == np.float64
                assert column.flags.c_contiguous and not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0.0

    def test_constructor_copy_evaluates_to_the_same_bits(self):
        frame = np.linspace(0.9, 1.1, 9)
        for seed in range(5):
            field = build_field(self.KERNEL, 20.0, DOMAIN, seed=seed)
            copy = GaborField(field.kernel, field.x, field.y, field.weight)
            assert copy.x is not field.x
            assert (perturbation_vector(copy, frame).tobytes()
                    == perturbation_vector(field, frame).tobytes())

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_field(self.KERNEL, 10.0, (0.0, 0.0, 0.0, 1.0), seed=0)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            build_field(self.KERNEL, 0.0, DOMAIN, seed=0)


class TestPerturbationVector:
    def test_empty_field_gives_zero_vector(self):
        n = perturbation_vector(EMPTY, np.ones(9))
        assert np.array_equal(n, np.zeros(9))

    def test_nine_bus_output_length(self):
        field = build_field(TestBuildField.KERNEL, 20.0, DOMAIN, seed=1)
        assert perturbation_vector(field, np.ones(9)).shape == (9,)

    def test_depends_only_on_absolute_values(self):
        field = build_field(TestBuildField.KERNEL, 20.0, DOMAIN, seed=1)
        frame = np.linspace(0.9, 1.1, 9)
        assert np.array_equal(perturbation_vector(field, frame),
                              perturbation_vector(field, -frame))

    def test_matches_pointwise_evaluation(self):
        field = build_field(TestBuildField.KERNEL, 20.0, DOMAIN, seed=2)
        frame = np.linspace(0.9, 1.1, 9)
        n = perturbation_vector(field, frame)
        for i, v in enumerate(frame):
            assert n[i] == pytest.approx(
                evaluate_field(field, abs(v), math.log(i + 1)), rel=1e-12)

    def test_nonfinite_frame_rejected(self):
        with pytest.raises(ValueError):
            perturbation_vector(EMPTY, [1.0, np.nan])

    def test_bus_ordinates_are_cached_read_only(self):
        ys = gabor._bus_ordinates(9)
        assert gabor._bus_ordinates(9) is ys
        assert np.array_equal(ys, np.log(np.arange(9) + 1.0))
        assert not ys.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ys[0] = 1.0

