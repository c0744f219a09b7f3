"""Minimal fully-connected network engine: forward, backprop, Adam.

Shared by the contingency detector, the DDPG actor, and the DDPG critic.
Backprop is hand-rolled for the fixed MLP topology so the finite-difference
gradient check stays meaningful and the artifact stays dependency-free.

A network keeps all its parameters in one contiguous vector, layer by layer
(weights[0], biases[0], weights[1], ...). Gradients use the same layout, so
Adam and target-network updates are a few whole-vector operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Mlp",
    "Gradients",
    "AdamState",
    "init_mlp",
    "forward",
    "forward_full",
    "backward",
    "input_gradient",
    "adam_step",
    "parameter_count",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

CHECKPOINT_FORMAT_VERSION = 1


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
    """d(activation)/dz from the pre-activation z and the output a."""
    if name == "relu":
        return z > 0  # a boolean mask multiplies as 0.0/1.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return np.ones_like(z)
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


def _layer_views(flat: np.ndarray, layout) -> tuple[list, list]:
    """(weights, biases) as lists of reshaped views into `flat`."""
    return ([flat[w].reshape(shape) for w, shape, _ in layout],
            [flat[b] for _, _, b in layout])


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
        self._weights, self._biases = map(tuple, _layer_views(self._params, self.layout))
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


@dataclass
class Gradients:
    """Per-layer gradients plus `flat`, the same values in the layout of Mlp.params.

    `backward` fills `flat` and makes the per-layer arrays views into it;
    built from plain lists, `flat` is their concatenation.
    """

    weights: list
    biases: list
    flat: np.ndarray | None = None

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.concatenate(
                [g.ravel() for pair in zip(self.weights, self.biases) for g in pair])


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


def parameter_count(net: Mlp) -> int:
    return net.params.size


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


def _backprop(net: Mlp, output_gradient, cache, grads: Gradients | None):
    """Chain `output_gradient` back through the cached forward pass.

    Writes the parameter gradients into `grads` unless it is None; returns
    d(loss)/d(input).
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
        delta = delta * _activation_grad(net.activations[k], z, a)
        if grads is not None:
            np.matmul(cache[k][1].T, delta, out=grads.weights[k])
            delta.sum(axis=0, out=grads.biases[k])
        delta = delta @ net.weights[k].T
    return delta[0] if single else delta


def backward(net: Mlp, x, output_gradient, cache=None):
    """Exact reverse-mode gradients of forward(net, x).

    Returns (Gradients, input_gradient). `output_gradient` is d(loss)/d(output).
    Pass the cache from forward_full to skip recomputing the forward pass.
    """
    if cache is None:
        _, cache = forward_full(net, x)
    flat = np.empty(net.params.size)
    grads = Gradients(*_layer_views(flat, net.layout), flat)
    input_grad = _backprop(net, output_gradient, cache, grads)
    return grads, input_grad


def input_gradient(net: Mlp, output_gradient, cache):
    """d(loss)/d(input) of the pass in `cache` (from forward_full), equal to
    backward's second result; computes no parameter gradients."""
    return _backprop(net, output_gradient, cache, None)


@dataclass
class AdamState:
    """Adam accumulators, flat in the layout of Mlp.params."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_net(cls, net: Mlp, lr: float = 1e-3, beta1: float = 0.9,
                beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step=0,
            m=np.zeros_like(net.params), v=np.zeros_like(net.params),
        )


def adam_step(opt: AdamState, net: Mlp, grads: Gradients):
    """Standard Adam update with bias correction; updates in place."""
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        if grads.weights[k].shape != w.shape or grads.biases[k].shape != b.shape:
            raise ValueError(f"gradient shape mismatch at layer {k}")
    if grads.flat.shape != net.params.shape:
        raise ValueError(f"gradient shape mismatch: {grads.flat.shape} vs {net.params.shape}")
    opt.step += 1
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1**opt.step
    c2 = 1.0 - b2**opt.step
    g = grads.flat
    opt.m = b1 * opt.m + (1 - b1) * g
    opt.v = b2 * opt.v + (1 - b2) * g * g
    params = net.params
    params -= opt.lr * (opt.m / c1) / (np.sqrt(opt.v / c2) + opt.epsilon)
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
