"""Multi-head self-attention and feedforward sublayers: forward maps and VJPs.

The attention map is

    f_attn(X) = sum_h  W_h V_h X softmax_cols((K_h X)^T Q_h X / sqrt(k))

with Q, K, V of shape (k, d) and W of shape (d, k) per head; the feedforward
map is f_ffn(X) = W2 phi(W1 X) applied token-wise (no bias).  Both maps take
a stack of states ``(..., d, n)``; attention's heads are a stack axis too.
Weights may carry leading axes that broadcast against the state's (``(T, 1,
H, k, d)`` over ``(B, d, n)`` gives ``(T, B, d, n)``), each slice with the bits
of its model alone; the materialized Jacobians take one state and one model.

Each forward map returns its output together with the intermediates its
derivative reads: attention the per-head keys, queries, attention and values
``(kz, qz, attn, vz)``, the FFN its pre-activation and activation ``(pre,
act)``.  Each map has one derivative, its vector-Jacobian product, which
takes the state and those intermediates and recomputes none of the forward
pass: the model's reverse sweep calls it on what the forward tape kept, and
the materialized nd x nd Jacobian runs the forward map once and applies the
same VJP to the nd unit output gradients (``jacobian_from_vjp``), rows =
outputs, matching the normalization module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeMismatchError, as_matrix, jacobian_from_vjp, softmax_columns

TANH = "tanh"
RELU = "relu"
ACTIVATIONS = (TANH, RELU)


class ActivationKinkError(ArithmeticError):
    """A ReLU pre-activation landed exactly on the kink; use tanh instead.
    A model's reverse sweep adds the block index."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class AttentionParams:
    """Stacked head weights: q, k, v of shape (..., H, k, d) and w of shape
    (..., H, d, k); leading axes, if any, hold several models."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        q, k, v, w = (np.asarray(m, dtype=np.float64) for m in (self.q, self.k, self.v, self.w))
        for name, m in (("q", q), ("k", k), ("v", v), ("w", w)):
            if m.ndim < 3:
                raise ShapeMismatchError(f"AttentionParams.{name}: expected (..., H, ., .), got {m.shape}")
            object.__setattr__(self, name, m)
        heads, kdim, d = q.shape[-3:]
        if heads < 1:
            raise ShapeMismatchError("AttentionParams: need at least one head")
        if (k.shape[-3:] != (heads, kdim, d) or v.shape[-3:] != (heads, kdim, d)
                or w.shape[-3:] != (heads, d, kdim)):
            raise ShapeMismatchError(
                f"AttentionParams: inconsistent head shapes q={q.shape} k={k.shape} "
                f"v={v.shape} w={w.shape}"
            )

    @property
    def heads(self) -> int:
        return self.q.shape[-3]

    @property
    def key_dim(self) -> int:
        return self.q.shape[-2]

    @property
    def model_dim(self) -> int:
        return self.q.shape[-1]

    @property
    def stacked(self) -> bool:
        return max(m.ndim for m in (self.q, self.k, self.v, self.w)) > 3

    def scaled(self, c_w: float, c_v: float) -> "AttentionParams":
        return AttentionParams(self.q, self.k, self.v * c_v, self.w * c_w)


@dataclass(frozen=True)
class FfnParams:
    """Two-matrix token-wise MLP: w1 (..., m, d), w2 (..., d, m), activation
    tanh or relu; leading axes, if any, hold several models."""

    w1: np.ndarray
    w2: np.ndarray
    activation: str = TANH

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        if w1.ndim < 2 or w2.ndim < 2 or w1.shape[-2:] != (w2.shape[-1], w2.shape[-2]):
            raise ShapeMismatchError(
                f"FfnParams: shapes do not compose d->m->d, got w1={w1.shape} w2={w2.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"FfnParams: unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )

    @property
    def stacked(self) -> bool:
        return self.w1.ndim > 2 or self.w2.ndim > 2

    def scaled(self, c1: float, c2: float) -> "FfnParams":
        return FfnParams(self.w1 * c1, self.w2 * c2, self.activation)


def activation_fn(name: str):
    if name == TANH:
        return np.tanh
    return lambda z: np.maximum(z, 0.0)


def activation_derivative(name: str, pre: np.ndarray, act: np.ndarray) -> np.ndarray:
    """phi'(pre), given the taped ``act = phi(pre)``: tanh' is 1 - act^2."""
    if name == TANH:
        return 1.0 - act ** 2
    if np.any(pre == 0.0):
        raise ActivationKinkError(
            "relu pre-activation is exactly zero; derivative undefined, use tanh"
        )
    return (pre > 0.0).astype(np.float64)


def _check_state(X: np.ndarray, p: AttentionParams | FfnParams) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2:
        raise ShapeMismatchError(f"hidden state must be d x n or (..., d, n), got {X.shape}")
    d_expected = p.model_dim if isinstance(p, AttentionParams) else p.w1.shape[-1]
    if X.shape[-2] != d_expected:
        raise ShapeMismatchError(
            f"hidden state has d={X.shape[-2]} but parameters expect d={d_expected}"
        )
    return X


def _jacobian(X: np.ndarray, p: AttentionParams | FfnParams, forward, vjp) -> np.ndarray:
    """A sublayer's nd x nd Jacobian at one d x n state from one forward pass and its VJP."""
    X = as_matrix(X)
    if p.stacked:
        raise ShapeMismatchError(f"Jacobians take one model's weights, got {type(p).__name__} "
                                 f"with leading axes")
    _, taped = forward(X, p)
    return jacobian_from_vjp(lambda G: vjp(X, *taped, p, G)[0], *X.shape)


def attn_forward(X: np.ndarray, p: AttentionParams):
    """f_attn at the state(s) ``X`` for every head at once (heads are axis
    -3, so a ``(..., d, n)`` stack gives ``(..., H, ., n)`` maps); returns
    ``(output, (kz, qz, attn, vz))``, the output and the per-head keys,
    queries, column-softmax attention and values that ``attn_vjp`` takes."""
    X = _check_state(X, p)
    Xh = X[..., None, :, :]
    kz, qz, vz = p.k @ Xh, p.q @ Xh, p.v @ Xh
    attn = softmax_columns(kz.mT @ qz * (1.0 / math.sqrt(p.key_dim)))
    return np.add.reduce(p.w @ vz @ attn, axis=-3), (kz, qz, attn, vz)


def attn_vjp(Z: np.ndarray, kz: np.ndarray, qz: np.ndarray, attn: np.ndarray, vz: np.ndarray,
             p: AttentionParams, gbar: np.ndarray):
    """Reverse sweep of ``attn_forward`` at ``Z`` from what its forward pass
    taped: given the output gradient ``gbar``, returns the input gradient and
    the per-head weight gradients, recomputing none of the forward pass.

    ``gbar`` may stack more gradients than ``Z`` stacks states (one state,
    many upstream gradients); every result has its leading axes."""
    scale = 1.0 / math.sqrt(p.key_dim)
    g = gbar[..., None, :, :]
    t = p.w.mT @ g
    t_at = t @ attn.mT
    ga = vz.mT @ t
    gs = attn * (ga - np.add.reduce(attn * ga, axis=-2, keepdims=True))
    gkz = qz @ gs.mT * scale
    gqz = kz @ gs * scale
    gz = np.add.reduce(p.v.mT @ t_at + p.k.mT @ gkz + p.q.mT @ gqz, axis=-3)
    Zt = Z[..., None, :, :].mT
    gw = g @ (vz @ attn).mT
    return gz, {"attn.q": gqz @ Zt, "attn.k": gkz @ Zt, "attn.v": t_at @ Zt, "attn.w": gw}


def attn_jacobian_full(X: np.ndarray, p: AttentionParams) -> np.ndarray:
    """nd x nd Jacobian of f_attn at one d x n state, column-major, from
    ``attn_vjp``.  Block (j, i) holds d[f_attn]_j / d x_i; every block
    depends linearly on V and W, which is what makes the pre-norm
    sensitivity scale with the weights and the peri-norm one not."""
    return _jacobian(X, p, attn_forward, attn_vjp)


def ffn_forward(X: np.ndarray, p: FfnParams):
    """f_ffn at the state(s) ``X``; returns ``(output, (pre, act))``, the
    output and the pre-activation and activation that ``ffn_vjp`` takes."""
    X = _check_state(X, p)
    pre = p.w1 @ X
    act = activation_fn(p.activation)(pre)
    return p.w2 @ act, (pre, act)


def ffn_vjp(Z: np.ndarray, pre: np.ndarray, act: np.ndarray, p: FfnParams, gbar: np.ndarray):
    """Reverse sweep of ``ffn_forward`` at ``Z`` from what its forward pass
    taped: (input gradient, weight gradients), stacked like ``gbar`` as in
    ``attn_vjp``."""
    gw2 = gbar @ act.mT
    gpre = (p.w2.mT @ gbar) * activation_derivative(p.activation, pre, act)
    gw1 = gpre @ Z.mT
    gz = p.w1.mT @ gpre
    return gz, {"ffn.w1": gw1, "ffn.w2": gw2}


def ffn_jacobian_blockdiag(X: np.ndarray, p: FfnParams) -> np.ndarray:
    """nd x nd Jacobian of token-wise f_ffn at one d x n state, from
    ``ffn_vjp``: block j is W2 diag(phi'(W1 x_j)) W1 on the diagonal, and
    off-token blocks are zero."""
    return _jacobian(X, p, ffn_forward, ffn_vjp)
