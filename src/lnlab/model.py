"""Transformer blocks under a normalization placement with residual step scaling.

A block applies the attention sublayer and then the feedforward sublayer,
each wrapped in up to three LN stages, switched on by the placement's row
``(norm_in, norm_out, norm_sum)`` of ``STAGES``:

    z   = LN_in(x)            if norm_in,  else x
    y   = LN_out(f(z))        if norm_out, else f(z)
    out = LN_out(x + dt * y)  if norm_sum, else x + dt * y

    off : (F, F, F)  out = x + dt * f(x)
    pre : (T, F, F)  out = x + dt * f(LN_in(x))
    peri: (T, T, F)  out = x + dt * LN_out(f(LN_in(x)))
    post: (F, F, T)  out = LN_out(x + dt * f(x))

The output and sum stages share the ``*_out`` LN site.  ``dt`` multiplies
the sublayer output inside the residual sum for every placement and dt;
dt = 1 gives the unscaled sum bit for bit, as 1.0 * y is y.  The forward pass
(``_apply_sublayer``) and the reverse sweep (``_sublayer_backward``) are
the only maps that branch on the row, ``ModelConfig.stages``: a
materialized per-block sensitivity is the reverse sweep applied to the nd
unit output gradients, so a new placement is one new row.  The tape keeps
what the sweep reads, each state once, so the sweep recomputes no part of
the forward pass.  Its records are named tuples, one ``SublayerTrace`` per
sublayer and one ``BlockTrace`` of two per block: per sublayer x, z, out,
the intermediates the bare map's VJP reads (attention's per-head kz, qz,
attn, vz; the FFN's pre and act) and the statistics (xhat, s) of each LN
site it ran, which its VJP reads in place of the site's input.  A config's
``stages`` and ``sites`` are worked out once per config, not per block, and
the sweep keys each site's gradients from one table of names.
``states`` (X_0 ... X_D) is read from the traces, and
``model_forward`` copies only X_0.  Callers that read only X_D call
``push_forward`` instead: the same checked block loop and errors, holding one
block's trace at a time, so a forward-only pass never holds the tape.

Hidden states are d x n, or a stack ``(..., d, n)`` of independent states
(a minibatch): the forward pass and the reverse sweep map each state of a
stack on its own, with the same bits as running it alone, and the reverse
sweep returns per-state parameter gradients with the same leading axes.
Weights may carry leading axes as well (a tensor without them is shared):
a block with ``(T, ...)`` tensors maps a d x n state to ``(T, d, n)``, each
slice with the bits of its model alone, as ``gradcheck``'s finite differences
use.  The materialized nd x nd sensitivities take one d x n state of one model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import attention as attn_mod
from . import normalization as norm
from .numerics import (
    NonFiniteError,
    RngStream,
    ShapeMismatchError,
    jacobian_from_vjp,
    spectral_norm,
)

OFF = "off"
PRE = "pre"
PERI = "peri"
POST = "post"

ATTN_IN = "attn_in"
ATTN_OUT = "attn_out"
FFN_IN = "ffn_in"
FFN_OUT = "ffn_out"
_SITES = {"attn": (ATTN_IN, ATTN_OUT), "ffn": (FFN_IN, FFN_OUT)}  # (in, out/sum)
# the flat names of each site's (gamma, beta), as params_to_flat and the reverse sweep key them
_LN_KEYS = {site: (f"ln.{site}.gamma", f"ln.{site}.beta") for pair in _SITES.values() for site in pair}


class Stages(NamedTuple):
    """Which LN stages wrap each sublayer: its input, its output, the residual sum."""

    norm_in: bool
    norm_out: bool
    norm_sum: bool


STAGES = {
    OFF: Stages(False, False, False),
    PRE: Stages(True, False, False),
    PERI: Stages(True, True, False),
    POST: Stages(False, False, True),
}
PLACEMENTS = tuple(STAGES)

# nd x nd sensitivities are desk-scale objects; refuse to materialize beyond this.
MATERIALIZE_LIMIT = 64

# the default cause of a DivergenceError, as training outcomes record it
NONFINITE_STATE = "nonfinite_state"


class DivergenceError(FloatingPointError):
    """A run left the finite range: by default the forward pass produced a
    non-finite hidden state at ``block``; ``cause`` names other predicates."""

    def __init__(self, message: str, block: int | None, cause: str = NONFINITE_STATE):
        super().__init__(message)
        self.block = block
        self.cause = cause


class PlacementError(ValueError):
    """A check or operation was asked for an incompatible placement."""


@dataclass(frozen=True)
class ModelConfig:
    """A model's shape and placement; defaults are the CLI's and the suites' desk scale."""

    d: int = 6
    n: int = 4
    k: int = 4
    m: int = 8
    heads: int = 1
    depth: int = 8
    placement: str = PERI
    delta_t: float = 1.0
    activation: str = attn_mod.TANH
    epsilon: float = norm.DEFAULT_EPSILON

    def __post_init__(self):
        if self.placement not in STAGES:
            raise PlacementError(f"unknown placement {self.placement!r}, expected one of {PLACEMENTS}")
        if not (0.0 < self.delta_t <= 1.0):
            raise ValueError(f"delta_t must lie in (0, 1], got {self.delta_t}")
        for name in ("d", "n", "k", "m", "heads", "depth"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.activation not in attn_mod.ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {attn_mod.ACTIVATIONS}"
            )
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def nd(self) -> int:
        return self.d * self.n

    @cached_property
    def stages(self) -> Stages:
        return STAGES[self.placement]

    @cached_property
    def sites(self) -> tuple[str, ...]:
        st = self.stages
        sites: list[str] = []
        for site_in, site_out in _SITES.values():
            if st.norm_in:
                sites.append(site_in)
            if st.norm_out or st.norm_sum:
                sites.append(site_out)
        return tuple(sites)


@dataclass(frozen=True)
class BlockParams:
    """Weights of one block: attention heads, FFN matrices, and the LN sites
    demanded by the placement (and only those)."""

    attn: attn_mod.AttentionParams
    ffn: attn_mod.FfnParams
    ln: dict[str, norm.LNParams] = field(default_factory=dict)


def validate_block(b: BlockParams, cfg: ModelConfig, index: int) -> None:
    if b.ln.keys() != set(cfg.sites):
        raise ValueError(
            f"block {index}: LN sites {sorted(b.ln)} do not match placement "
            f"{cfg.placement!r} which demands {sorted(cfg.sites)}"
        )
    if b.attn.model_dim != cfg.d or b.attn.key_dim != cfg.k or b.attn.heads != cfg.heads:
        raise ShapeMismatchError(
            f"block {index}: attention shapes (H={b.attn.heads}, k={b.attn.key_dim}, "
            f"d={b.attn.model_dim}) do not match config (H={cfg.heads}, k={cfg.k}, d={cfg.d})"
        )
    if b.ffn.w1.shape[-2:] != (cfg.m, cfg.d):
        raise ShapeMismatchError(
            f"block {index}: ffn w1 has shape {b.ffn.w1.shape}, expected ({cfg.m}, {cfg.d})"
        )
    for site, p in b.ln.items():
        if p.dim != cfg.d:
            raise ShapeMismatchError(f"block {index}: LN site {site} has dim {p.dim} != d={cfg.d}")
    if b.ffn.activation != cfg.activation:
        raise ValueError(f"block {index}: ffn activation {b.ffn.activation!r} does not match "
                         f"config activation {cfg.activation!r}")


def params_to_flat(b: BlockParams) -> dict[str, np.ndarray]:
    """Flatten a block's tensors into named arrays (views, not copies)."""
    flat = {"attn.q": b.attn.q, "attn.k": b.attn.k, "attn.v": b.attn.v, "attn.w": b.attn.w,
            "ffn.w1": b.ffn.w1, "ffn.w2": b.ffn.w2}
    for site in sorted(b.ln):
        p = b.ln[site]
        gamma_key, beta_key = _LN_KEYS[site]
        flat[gamma_key] = p.gamma
        if p.kind == norm.LAYERNORM:
            flat[beta_key] = p.beta
    return flat


def flat_to_params(flat: dict[str, np.ndarray], template: BlockParams) -> BlockParams:
    """Rebuild a BlockParams from named arrays, shapes taken from ``template``."""
    attn = attn_mod.AttentionParams(
        flat["attn.q"], flat["attn.k"], flat["attn.v"], flat["attn.w"]
    )
    ffn = attn_mod.FfnParams(flat["ffn.w1"], flat["ffn.w2"], template.ffn.activation)
    ln = {}
    for site, p in template.ln.items():
        gamma_key, beta_key = _LN_KEYS[site]
        ln[site] = norm.LNParams(flat[gamma_key], flat.get(beta_key, p.beta), p.epsilon, p.kind)
    return BlockParams(attn, ffn, ln)


def random_block_params(
    cfg: ModelConfig,
    gen: np.random.Generator,
    weight_scale: float = 1.0,
    ln_kind: str = norm.LAYERNORM,
) -> BlockParams:
    """Standard init: weights ~ normal(0, scale/sqrt(fan_in)), gamma=1, beta=0."""
    d, k, m, heads = cfg.d, cfg.k, cfg.m, cfg.heads
    sd = weight_scale / np.sqrt(d)
    attn = attn_mod.AttentionParams(
        q=gen.normal(0.0, sd, size=(heads, k, d)),
        k=gen.normal(0.0, sd, size=(heads, k, d)),
        v=gen.normal(0.0, sd, size=(heads, k, d)),
        w=gen.normal(0.0, weight_scale / np.sqrt(k), size=(heads, d, k)),
    )
    ffn = attn_mod.FfnParams(
        w1=gen.normal(0.0, sd, size=(m, d)),
        w2=gen.normal(0.0, weight_scale / np.sqrt(m), size=(d, m)),
        activation=cfg.activation,
    )
    ln = {
        site: norm.LNParams(np.ones(d), np.zeros(d), cfg.epsilon, ln_kind)
        for site in cfg.sites
    }
    return BlockParams(attn, ffn, ln)


def random_model(
    cfg: ModelConfig, stream: RngStream, weight_scale: float = 1.0,
    ln_kind: str = norm.LAYERNORM,
) -> list[BlockParams]:
    return [
        random_block_params(cfg, stream.child(i).generator(), weight_scale, ln_kind)
        for i in range(cfg.depth)
    ]


class SublayerTrace(NamedTuple):
    """What the reverse sweep reads of one placement-wrapped sublayer application."""

    x: np.ndarray                      # sublayer input
    core_in: np.ndarray                # what the bare map was applied to: LN_in(x), else x
    core: tuple                        # what the bare map's VJP reads: (kz, qz, attn, vz) or (pre, act)
    ln_in: tuple | None                # (xhat, s) of LN_in(x), norm_in only
    ln_out: tuple | None               # (xhat, s) of LN_out(f(core_in)), or of the sum if norm_sum
    out: np.ndarray


class BlockTrace(NamedTuple):
    attn: SublayerTrace
    ffn: SublayerTrace


@dataclass(frozen=True)
class ForwardTape:
    """Complete forward record, each state held once: replaying it reproduces X_D bit-exactly."""

    cfg: ModelConfig
    params: tuple[BlockParams, ...]
    traces: tuple[BlockTrace, ...]

    @property
    def depth(self) -> int:
        return len(self.traces)

    @property
    def states(self) -> tuple[np.ndarray, ...]:  # X_0 ... X_D
        return (self.traces[0].attn.x, *(t.ffn.out for t in self.traces))

    @property
    def x_final(self) -> np.ndarray:
        return self.traces[-1].ffn.out


def _ln_at_site(X: np.ndarray, p: norm.LNParams, block: int, site: str):
    try:
        return norm.ln_forward_columns(X, p)
    except norm.DegenerateTokenError as exc:
        raise norm.DegenerateTokenError(
            f"block {block}, site {site}: {exc}", exc.token_index, block, site
        ) from exc


def _apply_sublayer(
    X: np.ndarray, b: BlockParams, cfg: ModelConfig, which: str, block: int
) -> SublayerTrace:
    st = cfg.stages
    f = attn_mod.attn_forward if which == "attn" else attn_mod.ffn_forward
    weights = b.attn if which == "attn" else b.ffn
    site_in, site_out = _SITES[which]
    z, ln_in = _ln_at_site(X, b.ln[site_in], block, site_in) if st.norm_in else (X, None)
    (y, core), ln_out = f(z, weights), None
    if st.norm_out:
        y, ln_out = _ln_at_site(y, b.ln[site_out], block, site_out)
    out = X + cfg.delta_t * y
    if st.norm_sum:
        out, ln_out = _ln_at_site(out, b.ln[site_out], block, site_out)
    return SublayerTrace(X, z, core, ln_in, ln_out, out)


def block_forward(X: np.ndarray, b: BlockParams, cfg: ModelConfig, index: int = 0):
    """One block; returns (X_next, BlockTrace).  LN errors are tagged with the
    block index and site; non-finite math surfaces as NonFiniteError."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-2:] != (cfg.d, cfg.n):
        raise ShapeMismatchError(
            f"block {index}: hidden state has shape {X.shape}, expected (..., {cfg.d}, {cfg.n})"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        attn_trace = _apply_sublayer(X, b, cfg, "attn", index)
        ffn_trace = _apply_sublayer(attn_trace.out, b, cfg, "ffn", index)
    return ffn_trace.out, BlockTrace(attn_trace, ffn_trace)


def _checked_blocks(X0: np.ndarray, params: list[BlockParams], cfg: ModelConfig):
    """The checked block loop: validates the blocks and the input, then yields
    each block's trace in turn.  Raises DivergenceError with the first
    offending block index if any state goes non-finite (-1 for X_0)."""
    if len(params) != cfg.depth:
        raise ValueError(f"expected {cfg.depth} blocks, got {len(params)}")
    if not np.isfinite(X0).all():
        raise DivergenceError("input state is non-finite", block=-1)
    for i, b in enumerate(params):
        validate_block(b, cfg, i)
    x = X0
    for i, b in enumerate(params):
        try:
            x, trace = block_forward(x, b, cfg, index=i)
        except NonFiniteError as exc:
            raise DivergenceError(f"block {i}: {exc}", block=i) from exc
        if not np.isfinite(x).all():
            raise DivergenceError(f"block {i} produced a non-finite state", block=i)
        yield trace


def model_forward(X0: np.ndarray, params: list[BlockParams], cfg: ModelConfig) -> ForwardTape:
    """Run all blocks on one state or a stack ``(..., d, n)``, recording every
    block's trace for the reverse sweep."""
    # a copy: the tape must not see later writes to the caller's array
    traces = tuple(_checked_blocks(np.array(X0, dtype=np.float64), params, cfg))
    return ForwardTape(cfg, tuple(params), traces)


def push_forward(X0: np.ndarray, params: list[BlockParams], cfg: ModelConfig) -> np.ndarray:
    """X_D of ``model_forward``, with its checks and errors, for callers that
    read nothing else: it holds one block's trace at a time, not the tape."""
    for trace in _checked_blocks(np.asarray(X0, dtype=np.float64), params, cfg):
        pass
    return trace.ffn.out


# ---------------------------------------------------------------------------
# Analytic sensitivities
# ---------------------------------------------------------------------------

def sublayer_sensitivity(tape: ForwardTape, i: int, which: str) -> np.ndarray:
    """nd x nd Jacobian of one placement-wrapped sublayer of block i: its
    reverse sweep applied to the nd unit output gradients."""
    cfg = tape.cfg
    nd = cfg.nd
    if nd > MATERIALIZE_LIMIT:
        raise ValueError(
            f"refusing to materialize a {nd}x{nd} sensitivity "
            f"(limit {MATERIALIZE_LIMIT}); use param_gradients for large models"
        )
    if tape.x_final.ndim != 2:  # a stack of states, or of models: weights with leading axes stack X_D
        raise ShapeMismatchError(f"sensitivities take one d x n state of one model, got {tape.x_final.shape}")
    if not (0 <= i < tape.depth):
        raise IndexError(f"block index {i} out of range for depth {tape.depth}")
    if which not in _SITES:
        raise ValueError(f"unknown sublayer {which!r}; expected 'attn' or 'ffn'")
    trace = getattr(tape.traces[i], which)
    b = tape.params[i]
    return jacobian_from_vjp(lambda G: _sublayer_backward(trace, b, cfg, which, G, {}), cfg.d, cfg.n)


def local_sensitivity(tape: ForwardTape, i: int) -> np.ndarray:
    """nd x nd block Jacobian d vec(X_{i+1}) / d vec(X_i), rows = outputs."""
    return sublayer_sensitivity(tape, i, "ffn") @ sublayer_sensitivity(tape, i, "attn")


# ---------------------------------------------------------------------------
# Parameter gradients (reverse sweep over the tape)
# ---------------------------------------------------------------------------

def _ln_backward(
    stats: tuple, p: norm.LNParams, site: str, g: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    """VJP through the LN at ``site`` from its taped statistics: records its
    parameter gradients in ``grads`` and returns the gradient at its input."""
    gamma_key, beta_key = _LN_KEYS[site]
    gx, grads[gamma_key], gbeta = norm.ln_vjp(*stats, p, g)
    if gbeta is not None:
        grads[beta_key] = gbeta
    return gx


def _sublayer_backward(
    trace: SublayerTrace, b: BlockParams, cfg: ModelConfig, which: str, g: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backprop one placement-wrapped sublayer: records its parameter
    gradients in ``grads`` and returns the gradient at its input."""
    st = cfg.stages
    vjp = attn_mod.attn_vjp if which == "attn" else attn_mod.ffn_vjp
    weights = b.attn if which == "attn" else b.ffn
    site_in, site_out = _SITES[which]
    if st.norm_sum:
        g = _ln_backward(trace.ln_out, b.ln[site_out], site_out, g, grads)
    gupdate = cfg.delta_t * g
    if st.norm_out:
        gupdate = _ln_backward(trace.ln_out, b.ln[site_out], site_out, gupdate, grads)
    gcore, fgrads = vjp(trace.core_in, *trace.core, weights, gupdate)
    grads.update(fgrads)
    if st.norm_in:
        gcore = _ln_backward(trace.ln_in, b.ln[site_in], site_in, gcore, grads)
    return g + gcore


def backward(tape: ForwardTape, upstream: np.ndarray):
    """Reverse sweep: returns (per-block gradient dicts, gradient at X_0).

    ``upstream`` is the loss gradient at X_D, shaped like the tape's states.
    On a stack of states every parameter gradient has the stack's leading
    axes, one gradient per state.  A relu kink is raised as
    ActivationKinkError naming its block.  Per-block parameter Jacobians are
    never materialized; everything is vector-Jacobian products.
    """
    cfg = tape.cfg
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != tape.x_final.shape:
        raise ShapeMismatchError(f"upstream gradient has shape {g.shape}, expected {tape.x_final.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteError("upstream gradient is non-finite")
    all_grads: list[dict[str, np.ndarray]] = [{} for _ in range(tape.depth)]
    for i in range(tape.depth - 1, -1, -1):
        try:
            for which in ("ffn", "attn"):
                g = _sublayer_backward(
                    getattr(tape.traces[i], which), tape.params[i], cfg, which, g, all_grads[i]
                )
        except attn_mod.ActivationKinkError as exc:
            raise attn_mod.ActivationKinkError(f"block {i}: {exc}", block=i) from exc
    return all_grads, g


def param_gradients(tape: ForwardTape, upstream: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Gradients of a scalar loss with respect to every block's parameter
    tensors, given the loss gradient at X_D."""
    grads, _ = backward(tape, upstream)
    return grads


# ---------------------------------------------------------------------------
# Simplified pre-norm chain (attention-only, single head, RMSNorm)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainResult:
    states: tuple[np.ndarray, ...]
    mean_abs: float
    bound_rhs: float
    factors: np.ndarray

    @property
    def x_final(self) -> np.ndarray:
        return self.states[-1]


def simplified_pre_chain(
    X0: np.ndarray,
    weights: list[np.ndarray],
    gammas: list[np.ndarray],
    attn_q: list[np.ndarray] | None = None,
    attn_k: list[np.ndarray] | None = None,
) -> ChainResult:
    """Attention-only pre-norm chain with merged d x d weights.

        X_{i+1} = X_i + W_i @ RMSNorm(X_i; gamma_i) @ A_i

    where A_i is column-stochastic: uniform attention when no query/key
    matrices are supplied, otherwise softmax((K Xhat)^T Q Xhat / sqrt(k))
    with Xhat the normalized state and k >= 1 the row count of Q.  RMSNorm is the model's
    ``ln_forward_columns`` at epsilon = 0 (denominators s), whose errors name layer i as
    their block.  Alongside the terminal mean absolute value, returns the product upper bound

        (1/sqrt(nd)) * prod_i (1 + sqrt(n) |gamma_i|_inf max_j |x_{i,j}|^-1 |W_i|_2) * |X_0|_F

    whose per-layer factors, with |x_{i,j}| = sqrt(d) s_{i,j}, are reported for growth inspection.
    """
    X = np.asarray(X0, dtype=np.float64)
    d, n = X.shape
    depth = len(weights)
    if len(gammas) != depth:
        raise ValueError(f"need one gamma per layer: {len(gammas)} != {depth}")
    if (attn_q is None) != (attn_k is None):
        raise ValueError("attn_q and attn_k must be supplied together")
    if attn_q is not None and not len(attn_q) == len(attn_k) == depth:
        raise ValueError(f"need one query and one key matrix per layer: "
                         f"{len(attn_q)} and {len(attn_k)} != {depth}")
    states = [X.copy()]
    factors = np.empty(depth)
    for i in range(depth):
        w = np.asarray(weights[i], dtype=np.float64)
        gamma = np.asarray(gammas[i], dtype=np.float64)
        if w.shape != (d, d) or gamma.shape != (d,):
            raise ShapeMismatchError(
                f"layer {i}: merged weight must be {d}x{d} and gamma ({d},), got {w.shape} and {gamma.shape}")
        if attn_q is not None and not (np.ndim(attn_q[i]) == 2 and np.shape(attn_q[i])[1] == d
                                       and np.shape(attn_k[i]) == np.shape(attn_q[i])
                                       and np.shape(attn_q[i])[0] >= 1):
            raise ShapeMismatchError(f"layer {i}: query and key must both be (k, {d}), "
                                     f"got {np.shape(attn_q[i])} and {np.shape(attn_k[i])}")
        rms = norm.LNParams(gamma, epsilon=0.0, kind=norm.RMSNORM)
        xhat, (_, s) = _ln_at_site(X, rms, i, ATTN_IN)
        if attn_q is None:
            a = np.full((n, n), 1.0 / n)
        else:
            scores = (attn_k[i] @ xhat).T @ (attn_q[i] @ xhat) / np.sqrt(attn_q[i].shape[0])
            a = attn_mod.softmax_columns(scores)
        factors[i] = 1.0 + (
            np.sqrt(n)
            * np.max(np.abs(gamma))
            * (1.0 / (np.sqrt(d) * s.min()))
            * spectral_norm(w)
        )
        X = X + w @ xhat @ a
        states.append(X.copy())
    nd = d * n
    bound_rhs = float(np.prod(factors) * np.linalg.norm(states[0]) / np.sqrt(nd))
    mean_abs = float(np.mean(np.abs(X)))
    return ChainResult(tuple(states), mean_abs, bound_rhs, factors)
