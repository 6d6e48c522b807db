"""Minimal numpy MLP with exact reverse-mode gradients, plus Adam.

Layers are (W, b) pairs with W of shape (fan_in, fan_out); hidden layers use
tanh, the output layer is linear. Everything operates on batches (B, dim).
"""

from __future__ import annotations

import numpy as np

LOG_STD_MIN, LOG_STD_MAX = -20.0, 2.0

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def init_layers(sizes, rng, out_scale: float = 0.01):
    """Gaussian fan-in init; the output layer is shrunk so the initial
    network output is near zero."""
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        scale = 1.0 / np.sqrt(fan_in)
        if i == len(sizes) - 2:
            scale *= out_scale
        W = rng.normal(0.0, scale, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append((W, b))
    return layers


def mlp_forward(layers, x):
    """Forward pass; returns (output, caches) with enough state to backprop."""
    h = np.asarray(x, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a batch of shape (B, dim)")
    if h.shape[1] != layers[0][0].shape[0]:
        raise ValueError(f"input dim {h.shape[1]} != layer dim {layers[0][0].shape[0]}")
    caches = []
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = h @ W + b
        a = np.tanh(z) if i < last else z
        caches.append((h, a))
        h = a
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite network output")
    return h, caches


def mlp_backward(layers, caches, dout, grads) -> None:
    """Gradients of sum(dout * output) w.r.t. every layer's W and b, written
    into ``grads``: one (dW, db) pair per layer, shaped like its (W, b)."""
    d = dout
    last = len(layers) - 1
    for i in range(last, -1, -1):
        (W, _), (h_in, a), (dW, db) = layers[i], caches[i], grads[i]
        if i < last:
            d = d * (1.0 - a * a)
        np.matmul(h_in.T, d, out=dW)
        np.add.reduce(d, axis=0, out=db)
        d = d @ W.T


def gaussian_log_prob(mean, log_std, x):
    """Per-sample log density of a diagonal Gaussian, summed over dims."""
    z = (x - mean) / np.exp(log_std)
    return (-0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * z * z).sum(axis=-1)


def gaussian_log_prob_grads(mean, log_std, x, dlogp):
    """Backprop through gaussian_log_prob.

    ``dlogp`` has shape (B,); returns (dmean of shape (B, D), dlog_std of
    shape (D,)).
    """
    std = np.exp(log_std)
    z = (x - mean) / std
    dmean = dlogp[:, None] * z / std
    dlog_std = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
    return dmean, dlog_std


class Adam:
    """Adam over one flat parameter vector, updated in place."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grads
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grads * grads
        params -= self.lr * (self.m / b1t) / (np.sqrt(self.v / b2t) + ADAM_EPS)
