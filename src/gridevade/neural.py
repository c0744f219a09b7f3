"""Minimal fully-connected network engine: forward, backprop, Adam.

Shared by the contingency detector, the DDPG actor, and the DDPG critic.
Backprop is hand-rolled for the fixed MLP topology so the finite-difference
gradient check stays meaningful and the artifact stays dependency-free.

A network keeps all its parameters in one contiguous vector, layer by layer
(weights[0], biases[0], weights[1], ...). A gradient is a vector in the same
layout, so Adam and target-network updates are a few whole-vector operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Mlp",
    "AdamState",
    "init_mlp",
    "forward",
    "forward_full",
    "backward",
    "input_gradient",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

CHECKPOINT_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "identity":
        return z
    raise ValueError(f"unknown activation '{name}'")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d(activation)/dz from the pre-activation z and the output a; not
    called for `identity`, whose derivative is 1."""
    if name == "relu":
        return z > 0  # a boolean mask multiplies as 0.0/1.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation '{name}'")


def _layout(layer_sizes) -> tuple:
    """Per layer, (weight slice, weight shape, bias slice) into the flat vector."""
    layout = []
    pos = 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w_end = pos + n_in * n_out
        layout.append((slice(pos, w_end), (n_in, n_out), slice(w_end, w_end + n_out)))
        pos = w_end + n_out
    return tuple(layout)


class Mlp:
    """Fully-connected network; weights[k] maps layer k to layer k+1.

    The constructor copies `weights` and `biases` into one flat vector
    `params`. `weights` and `biases` are then tuples of views into it: edit
    their elements in place (`net.weights[k][...] = w`); the tuples and
    `params` cannot be rebound. `layout` holds each layer's (weight slice,
    weight shape, bias slice) into `params`; gradients share it.
    """

    def __init__(self, layer_sizes, activations, weights, biases):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("one activation per non-input layer required")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation '{act}'")
        if len(weights) != len(layer_sizes) - 1 or len(biases) != len(layer_sizes) - 1:
            raise ValueError("one weight matrix and one bias vector per non-input layer required")
        for k, (w, b) in enumerate(zip(weights, biases)):
            want = (layer_sizes[k], layer_sizes[k + 1])
            if np.shape(w) != want:
                raise ValueError(f"weight {k} has shape {np.shape(w)}, expected {want}")
            if np.shape(b) != (layer_sizes[k + 1],):
                raise ValueError(f"bias {k} has shape {np.shape(b)}, expected ({want[1]},)")
        self.layer_sizes = list(layer_sizes)
        self.activations = list(activations)
        self.layout = _layout(self.layer_sizes)
        self._params = np.empty(self.layout[-1][2].stop)
        self._weights = tuple(self._params[w].reshape(shape) for w, shape, _ in self.layout)
        self._biases = tuple(self._params[b] for _, _, b in self.layout)
        for view, w in zip(self._weights, weights):
            view[...] = w
        for view, b in zip(self._biases, biases):
            view[...] = b

    @property
    def params(self) -> np.ndarray:
        return self._params

    @property
    def weights(self) -> tuple:
        return self._weights

    @property
    def biases(self) -> tuple:
        return self._biases

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.activations, self.weights, self.biases)


def init_mlp(layer_sizes, activations, seed) -> Mlp:
    """Fan-in-scaled uniform weights, zero biases; deterministic per seed."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return Mlp(list(layer_sizes), list(activations), weights, biases)


def forward_full(net: Mlp, x):
    """Forward pass returning (output, per-layer (z, a) cache).

    Accepts a single input vector or a (batch, dim) matrix.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"input dim {a.shape[1]} does not match layer size {net.layer_sizes[0]}"
        )
    cache = [(None, a)]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w + b
        a = _apply_activation(act, z)
        cache.append((z, a))
    return (a[0] if single else a), cache


def forward(net: Mlp, x):
    """Pure forward map; never mutates the network."""
    out, _ = forward_full(net, x)
    return out


def _backprop(net: Mlp, output_gradient, cache, grad: np.ndarray | None):
    """Chain `output_gradient` back through the cached forward pass.

    With `grad`, writes the parameter gradients into it, laid out like
    `net.params`, and stops there: the last product, d(loss)/d(input), is
    left out. Without, returns d(loss)/d(input).
    """
    g = np.asarray(output_gradient, dtype=float)
    single = g.ndim == 1
    if single:
        g = g[None, :]
    if g.shape[1] != net.layer_sizes[-1]:
        raise ValueError(
            f"output gradient dim {g.shape[1]} does not match layer size {net.layer_sizes[-1]}"
        )
    delta = g
    for k in range(len(net.weights) - 1, -1, -1):
        z, a = cache[k + 1]
        act = net.activations[k]
        if act != "identity":
            d = _activation_grad(act, z, a)
            # Only a product of this pass is scaled in place, never the caller's array.
            if delta is g:
                delta = delta * d
            else:
                delta *= d
        if grad is not None:
            w, shape, b = net.layout[k]
            np.matmul(cache[k][1].T, delta, out=grad[w].reshape(shape))
            delta.sum(axis=0, out=grad[b])
            if k == 0:
                return None
        delta = delta @ net.weights[k].T
    return delta[0] if single else delta


def backward(net: Mlp, x, output_gradient, cache=None) -> np.ndarray:
    """Exact reverse-mode gradient of forward(net, x) in the parameters.

    Returns one vector laid out like `net.params`; `input_gradient` gives
    d(loss)/d(input). `output_gradient` is d(loss)/d(output). Pass the cache
    from forward_full to skip recomputing the forward pass.
    """
    if cache is None:
        _, cache = forward_full(net, x)
    grad = np.empty(net.params.size)
    _backprop(net, output_gradient, cache, grad)
    return grad


def input_gradient(net: Mlp, output_gradient, cache):
    """d(loss)/d(input) of the pass in `cache` (from forward_full); computes
    no parameter gradients."""
    return _backprop(net, output_gradient, cache, None)


@dataclass
class AdamState:
    """Adam's learning rate, step count and accumulators, laid out like Mlp.params."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_net(cls, net: Mlp, lr: float) -> "AdamState":
        return cls(lr=lr, m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(opt: AdamState, net: Mlp, grad: np.ndarray):
    """Standard Adam update with bias correction; updates in place."""
    if grad.shape != net.params.shape:
        raise ValueError(f"gradient shape mismatch: {grad.shape} vs {net.params.shape}")
    opt.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**opt.step
    c2 = 1.0 - b2**opt.step
    opt.m = b1 * opt.m + (1 - b1) * grad
    opt.v = b2 * opt.v + (1 - b2) * grad * grad
    params = net.params
    params -= opt.lr * (opt.m / c1) / (np.sqrt(opt.v / c2) + ADAM_EPSILON)
    return net, opt


def net_to_dict(net: Mlp) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def net_from_dict(doc: dict) -> Mlp:
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')}")
    return Mlp(
        layer_sizes=list(doc["layer_sizes"]),
        activations=list(doc["activations"]),
        weights=[np.array(w) for w in doc["weights"]],
        biases=[np.array(b) for b in doc["biases"]],
    )


def save_checkpoint(net: Mlp, path, extra: dict | None = None) -> None:
    """Write a JSON checkpoint; float round-trips are bit-exact."""
    doc = net_to_dict(net)
    if extra:
        doc["meta"] = extra
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path) -> tuple[Mlp, dict]:
    doc = json.loads(Path(path).read_text())
    return net_from_dict(doc), doc.get("meta", {})
