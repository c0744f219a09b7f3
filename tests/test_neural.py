import json

import numpy as np
import pytest

from gridevade import neural
from gridevade.neural import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_full,
    init_mlp,
    input_gradient,
    load_checkpoint,
    save_checkpoint,
)


def naive_forward(net, x):
    """Independent plain-loop re-implementation of the forward map."""
    a = np.array(x, dtype=float)
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = np.array([sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j]
                      for j in range(w.shape[1])])
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "tanh":
            a = np.tanh(z)
        elif act == "sigmoid":
            a = 1 / (1 + np.exp(-z))
        else:
            a = z
    return a


def random_net(rng, sizes=None, acts=None):
    if sizes is None:
        depth = rng.integers(1, 4)
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    if acts is None:
        acts = list(rng.choice(["relu", "tanh", "sigmoid", "identity"],
                               size=len(sizes) - 1))
    return init_mlp(sizes, acts, seed=int(rng.integers(1 << 31)))


def flat_params(net):
    return np.concatenate([w.ravel() for w in net.weights] +
                          [b.ravel() for b in net.biases])


def set_flat_params(net, vec):
    pos = 0
    for w in net.weights:
        w[...] = vec[pos : pos + w.size].reshape(w.shape)
        pos += w.size
    for b in net.biases:
        b[...] = vec[pos : pos + b.size]
        pos += b.size


def layer_grads(net, grad):
    """(weight gradients, bias gradients) per layer, read from `grad` through net.layout."""
    return ([grad[w].reshape(shape) for w, shape, _ in net.layout],
            [grad[b] for _, _, b in net.layout])


def flat_grads(net, grad):
    """`grad` in the order of flat_params: every weight, then every bias."""
    weights, biases = layer_grads(net, grad)
    return np.concatenate([g.ravel() for g in weights] + [g.ravel() for g in biases])


def flat_layer_by_layer(weights, biases):
    """Layer arrays in the layout of Mlp.params: w0, b0, w1, b1, ..."""
    return np.concatenate([g.ravel() for pair in zip(weights, biases) for g in pair])


def per_layer_backward(net, output_gradient, cache):
    """The per-layer backward pass: fresh arrays per layer, float relu mask."""
    delta = np.asarray(output_gradient, dtype=float)
    grad_w, grad_b = [None] * len(net.weights), [None] * len(net.biases)
    for k in range(len(net.weights) - 1, -1, -1):
        z, a = cache[k + 1]
        act = net.activations[k]
        if act == "relu":
            d = (z > 0).astype(float)
        elif act == "tanh":
            d = 1.0 - a * a
        elif act == "sigmoid":
            d = a * (1.0 - a)
        else:
            d = np.ones_like(z)
        delta = delta * d
        grad_w[k] = cache[k][1].T @ delta
        grad_b[k] = delta.sum(axis=0)
        delta = delta @ net.weights[k].T
    return grad_w, grad_b, delta


class TestFlatParameters:
    def test_views_share_params(self):
        net = init_mlp([3, 4, 2], ["relu", "identity"], seed=0)
        net.weights[1][2, 1] = 7.5
        net.biases[0][...] = -1.25
        assert 7.5 in net.params
        assert np.count_nonzero(net.params == -1.25) == 4
        assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)

    def test_layout_is_layer_by_layer(self):
        net = init_mlp([3, 4, 2], ["relu", "identity"], seed=1)
        want = np.concatenate([net.weights[0].ravel(), net.biases[0],
                               net.weights[1].ravel(), net.biases[1]])
        assert np.array_equal(net.params, want)

    def test_views_cannot_be_rebound(self):
        net = init_mlp([3, 2], ["identity"], seed=0)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((3, 2))
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(2)
        for attr in ("weights", "biases", "params"):
            with pytest.raises(AttributeError):
                setattr(net, attr, getattr(net, attr))

    def test_constructor_copies(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        net = Mlp([2, 3], ["identity"], [w], [b])
        w[...] = 5.0
        assert np.all(net.weights[0] == 1.0)

    def test_copy_shares_no_memory(self):
        net = init_mlp([3, 4, 2], ["relu", "identity"], seed=2)
        dup = net.copy()
        assert np.array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)
        dup.weights[0][...] = 0.0
        assert np.any(net.weights[0] != 0.0)
        dup.layer_sizes.append(9)
        assert net.layer_sizes == [3, 4, 2]

    def test_layer_count_checked(self):
        with pytest.raises(ValueError, match="one weight matrix"):
            Mlp([2, 3, 1], ["relu", "identity"], [np.zeros((2, 3))], [np.zeros(3)])


class TestInit:
    def test_biases_zero(self):
        net = init_mlp([3, 1], ["sigmoid"], seed=0)
        assert np.array_equal(net.biases[0], np.zeros(1))

    def test_deterministic(self):
        a = init_mlp([4, 8, 2], ["relu", "tanh"], seed=5)
        b = init_mlp([4, 8, 2], ["relu", "tanh"], seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_parameter_count(self):
        net = init_mlp([19, 64, 64, 3], ["relu", "relu", "tanh"], seed=0)
        assert net.params.size == 19 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3 == 5635

    def test_too_few_layers(self):
        with pytest.raises(ValueError):
            init_mlp([3], [], seed=0)


class TestForward:
    def test_zero_net_sigmoid_is_half(self):
        net = init_mlp([4, 3, 2], ["relu", "sigmoid"], seed=0)
        for w in net.weights:
            w[...] = 0.0
        out = forward(net, np.ones(4))
        assert np.allclose(out, 0.5)

    def test_identity_layer(self):
        net = Mlp([3, 3], ["identity"], [np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(forward(net, x), x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            net = random_net(rng)
            x = rng.normal(size=net.layer_sizes[0])
            assert np.allclose(forward(net, x), naive_forward(net, x), atol=1e-12)

    def test_matches_out_of_place_forward(self):
        # forward_full adds the biases in place; the bits are those of the
        # plain expressions.
        rng = np.random.default_rng(14)
        for trial in range(40):
            net = random_net(rng, sizes=[int(rng.integers(2, 9)) for _ in range(4)])
            a = rng.normal(scale=4.0, size=(int(rng.integers(1, 70)), net.layer_sizes[0]))
            got, cache = forward_full(net, a)
            for k, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
                z = a @ w + b
                a = {"relu": lambda: np.maximum(z, 0.0), "tanh": lambda: np.tanh(z),
                     "sigmoid": lambda: 1.0 / (1.0 + np.exp(-z)), "identity": lambda: z}[act]()
                assert np.array_equal(cache[k + 1][0], z), trial
                assert np.array_equal(cache[k + 1][1], a), trial
            assert np.array_equal(got, a), trial

    def test_forward_is_pure(self):
        net = init_mlp([3, 4, 1], ["tanh", "identity"], seed=1)
        before = [w.copy() for w in net.weights]
        forward(net, np.ones(3))
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_dimension_mismatch(self):
        net = init_mlp([3, 1], ["identity"], seed=0)
        with pytest.raises(ValueError, match="input dim"):
            forward(net, np.ones(4))


class TestBackward:
    def test_zero_output_gradient(self):
        net = init_mlp([3, 4, 2], ["relu", "identity"], seed=2)
        grad = backward(net, np.ones(3), np.zeros(2))
        assert grad.shape == net.params.shape
        assert np.all(grad == 0)

    def test_scalar_chain_rule(self):
        # y = w*x with identity activation: dw = x * g
        net = Mlp([1, 1], ["identity"], [np.array([[2.0]])], [np.zeros(1)])
        grad = backward(net, np.array([3.0]), np.array([5.0]))
        (gw,), (gb,) = layer_grads(net, grad)
        assert gw[0, 0] == pytest.approx(15.0)
        assert gb[0] == pytest.approx(5.0)

    def test_finite_difference_all_activations(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            net = random_net(rng)
            x = rng.normal(size=net.layer_sizes[0]) + 0.05  # avoid relu kinks at 0
            g = rng.normal(size=net.layer_sizes[-1])
            grad = backward(net, x, g)
            analytic = flat_grads(net, grad)

            theta = flat_params(net)
            h = 1e-5
            numeric = np.empty_like(theta)
            probe = net.copy()
            for i in range(len(theta)):
                tp = theta.copy(); tp[i] += h
                set_flat_params(probe, tp)
                up = float(np.dot(forward(probe, x), g))
                tm = theta.copy(); tm[i] -= h
                set_flat_params(probe, tm)
                um = float(np.dot(forward(probe, x), g))
                numeric[i] = (up - um) / (2 * h)
            scale = max(np.max(np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-4, f"trial {trial}"

    def test_input_gradient_finite_difference(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, sizes=[5, 8, 3], acts=["tanh", "identity"])
        x = rng.normal(size=5)
        g = rng.normal(size=3)
        input_grad = input_gradient(net, g, forward_full(net, x)[1])
        h = 1e-6
        for i in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i] += h; xm[i] -= h
            num = (np.dot(forward(net, xp), g) - np.dot(forward(net, xm), g)) / (2 * h)
            assert input_grad[i] == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_batched_matches_sum_of_singles(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, sizes=[4, 6, 2], acts=["relu", "identity"])
        X = rng.normal(size=(5, 4))
        G = rng.normal(size=(5, 2))
        batched = backward(net, X, G)
        summed = sum(backward(net, x, g) for x, g in zip(X, G))
        assert np.allclose(batched, summed, atol=1e-12)


    def test_matches_per_layer_backward(self):
        rng = np.random.default_rng(10)
        acts = ["relu", "tanh", "sigmoid", "identity"]
        for trial in range(40):
            net = random_net(rng, sizes=[int(rng.integers(2, 9)) for _ in range(4)],
                             acts=list(rng.choice(acts, size=3)))
            x = rng.normal(size=(int(rng.integers(1, 70)), net.layer_sizes[0]))
            g = rng.normal(size=(len(x), net.layer_sizes[-1]))
            _, cache = forward_full(net, x)
            want_w, want_b, want_in = per_layer_backward(net, g, cache)
            grad = backward(net, x, g, cache=cache)
            got_w, got_b = layer_grads(net, grad)
            assert all(np.array_equal(a, b) for a, b in zip(got_w, want_w)), trial
            assert all(np.array_equal(a, b) for a, b in zip(got_b, want_b)), trial
            assert np.array_equal(grad, flat_layer_by_layer(want_w, want_b))
            assert np.array_equal(input_gradient(net, g, cache), want_in)

    def test_input_gradient_single_vector(self):
        net = init_mlp([4, 5, 2], ["relu", "tanh"], seed=3)
        x = np.array([0.3, -0.1, 0.8, 0.2])
        g = np.array([1.0, -2.0])
        _, cache = forward_full(net, x)
        got = input_gradient(net, g, cache)
        assert got.shape == (4,)
        assert np.array_equal(got, per_layer_backward(net, g[None, :], cache)[2][0])

    @pytest.mark.parametrize("acts", [["tanh", "relu"], ["relu", "sigmoid"]])
    def test_leaves_output_gradient_unchanged(self, acts):
        net = init_mlp([3, 4, 2], acts, seed=6)
        x = np.random.default_rng(6).normal(size=(8, 3))
        g = np.random.default_rng(7).normal(size=(8, 2))
        before = g.copy()
        _, cache = forward_full(net, x)
        assert (cache[-1][0] <= 0).any() and (cache[1][0] <= 0).any()  # the masks zero something
        backward(net, x, g, cache=cache)
        input_gradient(net, g, cache)
        assert np.array_equal(g, before)

    def test_input_gradient_leaves_no_parameter_gradients(self):
        net = init_mlp([3, 4, 1], ["relu", "identity"], seed=4)
        before = net.params.copy()
        _, cache = forward_full(net, np.ones((2, 3)))
        input_gradient(net, np.ones((2, 1)), cache)
        assert np.array_equal(net.params, before)


class TestAdam:
    def test_matches_per_layer_formula(self):
        rng = np.random.default_rng(13)
        net = init_mlp([5, 8, 6, 2], ["relu", "tanh", "identity"], seed=5)
        opt = AdamState.for_net(net, lr=3e-3)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        m_w = [np.zeros_like(w) for w in ref_w]
        v_w = [np.zeros_like(w) for w in ref_w]
        m_b = [np.zeros_like(b) for b in ref_b]
        v_b = [np.zeros_like(b) for b in ref_b]
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        m, v = opt.m, opt.v
        for step in range(1, 21):
            x = rng.normal(size=(16, 5))
            grad = backward(net, x, rng.normal(size=(16, 2)))
            adam_step(opt, net, grad)
            c1, c2 = 1.0 - b1**step, 1.0 - b2**step
            for k, (gw, gb) in enumerate(zip(*layer_grads(net, grad))):
                m_w[k] = b1 * m_w[k] + (1 - b1) * gw
                v_w[k] = b2 * v_w[k] + (1 - b2) * gw * gw
                m_b[k] = b1 * m_b[k] + (1 - b1) * gb
                v_b[k] = b2 * v_b[k] + (1 - b2) * gb * gb
                ref_w[k] -= lr * (m_w[k] / c1) / (np.sqrt(v_w[k] / c2) + eps)
                ref_b[k] -= lr * (m_b[k] / c1) / (np.sqrt(v_b[k] / c2) + eps)
            assert all(np.array_equal(a, b) for a, b in zip(net.weights, ref_w)), step
            assert all(np.array_equal(a, b) for a, b in zip(net.biases, ref_b)), step
        assert opt.m is m and opt.v is v  # updated in place

    def test_zero_gradient_no_change(self):
        net = init_mlp([3, 2], ["identity"], seed=0)
        opt = AdamState.for_net(net, lr=1e-3)
        before = [w.copy() for w in net.weights]
        adam_step(opt, net, np.zeros_like(net.params))
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_constant_gradient_step_approaches_lr(self):
        # with a fixed gradient, bias-corrected Adam steps approach lr in magnitude
        net = Mlp([1, 1], ["identity"], [np.array([[0.0]])], [np.zeros(1)])
        opt = AdamState.for_net(net, lr=0.01)
        g = np.array([3.7, 0.0])  # weight, bias
        prev = 0.0
        for _ in range(200):
            prev = net.weights[0][0, 0]
            adam_step(opt, net, g)
        step = abs(net.weights[0][0, 0] - prev)
        assert step == pytest.approx(0.01, rel=1e-3)
        assert net.weights[0][0, 0] < 0  # follows the gradient sign

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(11)
        nets = [init_mlp([3, 4, 1], ["relu", "identity"], seed=3) for _ in range(2)]
        opts = [AdamState.for_net(n, lr=1e-3) for n in nets]
        for _ in range(50):
            g = rng.normal(size=3)
            for net, opt in zip(nets, opts):
                grad = backward(net, np.ones(3), np.ones(1) * g[0])
                adam_step(opt, net, grad)
        assert all(np.array_equal(a, b)
                   for a, b in zip(nets[0].weights, nets[1].weights))

    def test_parameters_stay_finite_under_bounded_gradients(self):
        net = init_mlp([4, 8, 1], ["tanh", "identity"], seed=4)
        opt = AdamState.for_net(net, lr=1e-3)
        rng = np.random.default_rng(12)
        x = rng.normal(size=4)
        for _ in range(10_000):
            grad = backward(net, x, np.array([1.0]))
            adam_step(opt, net, grad)
        assert all(np.all(np.isfinite(w)) for w in net.weights)
        assert all(np.all(np.isfinite(b)) for b in net.biases)

    def test_shape_mismatch_rejected(self):
        net = init_mlp([3, 2], ["identity"], seed=0)
        opt = AdamState.for_net(net, lr=1e-3)
        for bad in (np.zeros(9), np.zeros((3, 2))):
            with pytest.raises(ValueError, match="mismatch"):
                adam_step(opt, net, bad)
        assert opt.step == 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_mlp([5, 7, 2], ["relu", "sigmoid"], seed=42)
        p = tmp_path / "net.json"
        save_checkpoint(net, p, extra={"note": "test"})
        back, meta = load_checkpoint(p)
        assert meta == {"note": "test"}
        assert back.layer_sizes == net.layer_sizes
        assert back.activations == net.activations
        for a, b in zip(back.weights, net.weights):
            assert np.array_equal(a, b)

    def test_format_version_enforced(self, tmp_path):
        p = tmp_path / "net.json"
        doc = neural.net_to_dict(init_mlp([2, 1], ["identity"], seed=0))
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(p)
