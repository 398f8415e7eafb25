"""LayerNorm and RMSNorm: forward maps, ellipsoid residuals, derivatives.

Both norms act on a single token (a length-d vector); the column-wise kernels
apply them to every token of a d x n hidden state, or of each state of a
stack ``(..., d, n)``, at once, as whole-array operations.  ``gamma`` and
``beta`` may carry leading axes too, which broadcast against the stack's
(parameters ``(T, 1, d)`` over states ``(B, d, n)`` give ``(T, B, d, n)``),
each slice with the bits of one parameter set alone.  Jacobians are
emitted with rows indexed by outputs and columns by inputs, i.e.
``J[a, b] = d out_a / d in_b``; every chain rule downstream of this module
assumes that orientation.

The norms' one derivative is the closed-form VJP ``ln_vjp``, which forms no
Jacobian and carries the LN part of the model's reverse sweep, and so of
every materialized sensitivity.  With c the centered (LayerNorm) or raw
(RMSNorm) token, s its denominator, x^ = c / s, g^ = gamma * gbar and means
over the d entries of a token, the input gradient is

    gx = (g^ - mean(g^) - x^ * mean(x^ * g^)) / s    (RMSNorm drops mean(g^))

and over the tokens of each state ggamma = sum_j x^ * gbar, gbeta = sum_j gbar.
``ln_vjp`` takes the x^ and s its site's forward pass taped, recomputing neither;
``ln_jacobian`` materializes it at one token, as attention's and the FFN's are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeMismatchError, jacobian_from_vjp

LAYERNORM = "layernorm"
RMSNORM = "rmsnorm"
_KINDS = (LAYERNORM, RMSNORM)

DEFAULT_EPSILON = 1e-5


class DegenerateTokenError(ZeroDivisionError):
    """Normalizing a constant (LayerNorm) or zero (RMSNorm) token at eps=0;
    a model's forward pass adds the block index and the LN site."""

    def __init__(self, message: str, token_index: int,
                 block: int | None = None, site: str | None = None):
        super().__init__(message)
        self.token_index = token_index
        self.block = block
        self.site = site


@dataclass(frozen=True)
class LNParams:
    """Per-site normalization parameters.

    ``gamma`` and ``beta`` have length d, with leading axes if they hold
    several sites' parameters; RMSNorm applies no bias, so its
    ``beta`` is stored as zeros whatever is given.  ``epsilon`` is added
    under the square root of the denominator; the exact ellipsoid and
    scaling-law identities hold only at epsilon=0.
    """

    gamma: np.ndarray
    beta: np.ndarray = field(default=None)  # type: ignore[assignment]
    epsilon: float = DEFAULT_EPSILON
    kind: str = LAYERNORM

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64)
        object.__setattr__(self, "gamma", gamma)
        beta = np.zeros_like(gamma) if self.beta is None else np.asarray(self.beta, dtype=np.float64)
        if gamma.ndim < 1 or beta.ndim < 1 or beta.shape[-1] != gamma.shape[-1]:
            raise ValueError(
                f"LNParams: gamma/beta must be equal-length vectors, "
                f"got {gamma.shape} and {beta.shape}"
            )
        object.__setattr__(self, "beta", np.zeros_like(gamma) if self.kind == RMSNORM else beta)
        if not self.epsilon >= 0:
            raise ValueError(f"LNParams: epsilon must be >= 0, got {self.epsilon}")
        if self.kind not in _KINDS:
            raise ValueError(f"LNParams: unknown kind {self.kind!r}, expected one of {_KINDS}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.gamma.ndim > 1 or self.beta.ndim > 1


def _check_dim(A: np.ndarray, p: LNParams) -> None:
    """Refuse columns whose length is not the parameters' d, which numpy would broadcast."""
    if A.shape[-2] != p.gamma.shape[-1]:
        raise ShapeMismatchError(f"{p.kind}: columns of length {A.shape[-2]}, parameters of dim {p.dim}")


def _check_one_set(p: LNParams, name: str) -> None:
    """Refuse parameters with leading axes in ``name``, a map of one parameter set."""
    if p.stacked:
        raise ShapeMismatchError(f"{name} takes one parameter set, got gamma {p.gamma.shape} "
                                 f"and beta {p.beta.shape}")


def as_point(z: np.ndarray, p: LNParams, name: str) -> np.ndarray:
    """``z`` as one float64 token for the one-token map ``name``; ShapeMismatchError if
    ``p`` holds several parameter sets or numpy would broadcast it over ``z``."""
    _check_one_set(p, name)
    z = np.asarray(z, dtype=np.float64)
    _check_dim(z[:, None], p)
    return z


def _column_mean(A: np.ndarray) -> np.ndarray:
    """(..., 1, n) means of the columns: the sum over axis -2, then one division,
    as ``np.mean`` takes it, so the same bits without its wrapper."""
    return np.add.reduce(A, axis=-2, keepdims=True) / A.shape[-2]


def _column_stats(X: np.ndarray, p: LNParams):
    """Centered (LayerNorm) or raw (RMSNorm) columns and their (..., 1, n) denominators.

    A zero denominator raises DegenerateTokenError naming the first such
    column (of the first state of a stack that has one); a single token is
    token index 0.  Only epsilon = 0 can give one: for epsilon > 0,
    fl(mean(c^2) + epsilon) >= epsilon > 0, and a NaN denominator never
    equals 0."""
    _check_dim(X, p)
    if p.kind == LAYERNORM and X.shape[-2] < 2:
        raise ValueError("LayerNorm needs d >= 2")
    c = X - _column_mean(X) if p.kind == LAYERNORM else X
    s = np.sqrt(_column_mean(c * c) + p.epsilon)
    if p.epsilon == 0.0 and (zero := s[..., 0, :] == 0.0).any():
        kind_msg = ("constant token under LayerNorm" if p.kind == LAYERNORM
                    else "zero token under RMSNorm")
        index = int(np.nonzero(zero)[-1][0])
        raise DegenerateTokenError(
            f"division by zero: {kind_msg} with epsilon=0 at token index {index}", index)
    return c, s


def ln_forward(x: np.ndarray, p: LNParams) -> np.ndarray:
    """Normalize one token: gamma * (x - mu) / sqrt(var + eps) + beta.

    RMSNorm skips the mean subtraction and the bias: gamma * x / rms(x).
    """
    x = np.asarray(x, dtype=np.float64)
    c, s = _column_stats(x[:, None], p)
    z = p.gamma * (c[:, 0] / s[0])
    return z + p.beta if p.kind == LAYERNORM else z


def ln_forward_columns(X: np.ndarray, p: LNParams):
    """Apply ``ln_forward`` to every column of a d x n hidden state or a stack of them;
    returns ``(z, (xhat, s))``, the output and the statistics ``ln_vjp`` takes."""
    c, s = _column_stats(np.asarray(X, dtype=np.float64), p)
    xhat = c / s
    z = p.gamma[..., None] * xhat
    return (z + p.beta[..., None] if p.kind == LAYERNORM else z), (xhat, s)


def ellipsoid_residual(z: np.ndarray, p: LNParams) -> float:
    """Quadratic-form residual of z against the norm's output ellipsoid.

    LayerNorm outputs satisfy (z - beta)^T Gamma^-2 (z - beta) = d exactly
    when epsilon=0; RMSNorm outputs satisfy z^T Gamma^-2 z = d.  Returns the
    quadratic form minus d, so membership means a zero residual.
    """
    z = as_point(z, p, "ellipsoid_residual")
    if np.any(p.gamma == 0.0):
        raise ValueError("ellipsoid_residual: gamma has a zero entry, Gamma^-2 undefined")
    w = (z - p.beta) / p.gamma
    return float(w @ w - z.shape[0])


def ln_jacobian(x: np.ndarray, p: LNParams) -> np.ndarray:
    """d x d Jacobian of the normalization map at one token, rows = outputs,
    from ``ln_vjp``.  At eps=0 the map is (-1)-homogeneous, J(c x) = J(x) / c
    for c > 0, and LayerNorm's J annihilates the constant direction."""
    _check_one_set(p, "ln_jacobian")
    _, (xhat, s) = ln_forward_columns(np.asarray(x, dtype=np.float64)[:, None], p)
    return jacobian_from_vjp(lambda G: ln_vjp(xhat, s, p, G)[0], p.dim, 1)


def ln_vjp(xhat: np.ndarray, s: np.ndarray, p: LNParams, gbar: np.ndarray):
    """Closed-form backward pass of column-wise normalization (module docstring).

    Given a site's statistics ``(xhat, s)`` and the loss gradient ``gbar``
    with respect to its outputs, returns ``(gx, ggamma, gbeta)``; ``gbeta`` is
    None for RMSNorm.  For a stack ``(..., d, n)`` the parameter gradients are
    per state, of shape (..., d); a stack of gradients over one state broadcasts."""
    gbar = np.asarray(gbar, dtype=np.float64)
    _check_dim(xhat, p)
    _check_dim(gbar, p)
    ghat = p.gamma[..., None] * gbar
    proj = xhat * _column_mean(xhat * ghat)
    ggamma = np.add.reduce(xhat * gbar, axis=-1)
    if p.kind == RMSNORM:
        return (ghat - proj) / s, ggamma, None
    return (ghat - _column_mean(ghat) - proj) / s, ggamma, np.add.reduce(gbar, axis=-1)
