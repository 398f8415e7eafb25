"""Bound checkers and invariance tests for the stability analysis.

Every check returns a BoundReport carrying the left-hand side, the
right-hand side, and the margin rhs - lhs, so near-violations show up in
the CSV output instead of vanishing into a boolean.  A check admits a model
by its placement's stage row ``(norm_in, norm_out, norm_sum)``, never by
its name.  The growth, data-wise, pathwise and W_p bounds need
``norm_out and not norm_sum``: every residual update passes through an
output LN and the sum is not renormalized.  Of the existing rows only peri
meets it.  The bounds are:

    MA(X_D)  <=  |X_0|_F / sqrt(nd) + 2 D dt (gamma_max + beta_max)
    Var(X_D) <= (|X_0|_F + 2 D dt sqrt(nd) (gamma_max + beta_max))^2 / (nd - 1)
    Var(x)   <=  E[(|X_0|_F + 2 D dt sqrt(nd) (gamma_max + beta_max))^2]      (data-wise)
    |X_D^a - X_D^b|_F <= |X_0^a - X_0^b|_F + 4 D dt sqrt(nd) gamma_max       (pathwise)
    W_p(mu_D, nu_D)   <= 2^((p-1)/p) (C(p) W_p(mu_0, nu_0) + 4 D dt sqrt(nd) gamma_max)

with gamma_max/beta_max maxima of the inf-norms over all output-LN sites.
The residual scale dt sharpens every D-dependent term.  The rescaling
probe needs ``norm_in and not norm_sum`` (pre and peri): with ``norm_out``
the sensitivity is invariant, without it the update scales by c1 * c2.

Every bound check takes ``(inputs, params, cfg)`` and pushes each sample set
through one stacked ``push_forward``, which keeps no tape, taking each input's
norm on its own slice (a stacked norm can differ in the last bit).  The
growth and pathwise suites call none of these checks: they push many models'
stacks as one population (``_population``), a growth model's stack being
``[x0, *inputs]``, and take each model's rows from its own slices through the
row functions that ``peri_growth_check``, ``datawise_variance_check`` and
``pathwise_stability_check`` call.  The rescaling probe reads nothing of the
tape's layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from .attention import RELU, ActivationKinkError
from .model import (
    ATTN_OUT,
    FFN_OUT,
    BlockParams,
    ChainResult,
    ForwardTape,
    ModelConfig,
    PlacementError,
    Stages,
    model_forward,
    push_forward,
    sublayer_sensitivity,
)
from .numerics import (
    Moments, ShapeMismatchError, check_order, check_sample_count, moments, wasserstein_exact,
)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality; the bound holds on this instance iff margin >= 0."""

    check: str
    placement: str
    depth: int
    delta_t: float
    gamma_max: float
    beta_max: float
    lhs: float
    rhs: float
    seed: int = 0

    @classmethod
    def for_model(
        cls, check: str, cfg: ModelConfig, gmax: float, bmax: float,
        lhs: float, rhs: float, seed: int,
    ) -> BoundReport:
        """A row for a model under ``cfg`` with output-LN extrema ``gmax``, ``bmax``."""
        return cls(
            check=check, placement=cfg.placement, depth=cfg.depth, delta_t=cfg.delta_t,
            gamma_max=gmax, beta_max=bmax, lhs=float(lhs), rhs=float(rhs), seed=seed,
        )

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_row(self) -> dict:
        return {
            "check": self.check,
            "placement": self.placement,
            "D": self.depth,
            "delta_t": self.delta_t,
            "gamma_max": self.gamma_max,
            "beta_max": self.beta_max,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "seed": self.seed,
        }


def output_ln_extrema(params: list[BlockParams]) -> tuple[float, float]:
    """(gamma_max, beta_max): maxima of |gamma|_inf and |beta|_inf over all
    output-LN sites of all blocks."""
    gmax = 0.0
    bmax = 0.0
    found = False
    for b in params:
        for site in (ATTN_OUT, FFN_OUT):
            p = b.ln.get(site)
            if p is None:
                continue
            if p.stacked:
                raise ShapeMismatchError(f"output-LN site {site} holds stacked parameters "
                                         f"{p.gamma.shape}; bound constants are per model")
            found = True
            gmax = max(gmax, float(np.abs(p.gamma).max()))
            bmax = max(bmax, float(np.abs(p.beta).max()))
    if not found:
        raise PlacementError("no output-LN sites present; bound constants undefined")
    return gmax, bmax


def c_hat(p: float, nd: int) -> float:
    """Norm-equivalence constant relating the entrywise p-norm to Frobenius.

    (nd)^|1/2 - 1/p|, exactly 1 at p = 2, where the exponent is 0.0.
    """
    check_order(p)
    return float(nd ** abs(0.5 - 1.0 / p))


def layer_moments(tape: ForwardTape) -> list[Moments]:
    """Per-layer (MA, Var, frob) series of length D + 1."""
    return [moments(x) for x in tape.states]


def _admit(cfg: ModelConfig, check: str, need: str) -> Stages:
    """The stage row of ``cfg.placement`` if it has stage ``need`` and does not
    renormalize the residual sum; PlacementError otherwise."""
    st = cfg.stages
    if not getattr(st, need) or st.norm_sum:
        raise PlacementError(
            f"{check} needs {need} and not norm_sum; placement {cfg.placement!r} has {st}"
        )
    return st


def _output_ln_gate(cfg: ModelConfig, params: list[BlockParams], check: str) -> tuple[float, float]:
    """Admit a model whose every residual update passes through an output LN
    into an unnormalized sum; return its output-LN extrema."""
    _admit(cfg, check, "norm_out")
    return output_ln_extrema(params)


def _growth_rows(
    x0: np.ndarray, x_d: np.ndarray, cfg: ModelConfig, gmax: float, bmax: float, seed: int
) -> list[BoundReport]:
    """The peri_ma_growth and peri_var_growth rows of ``x0`` and its terminal state ``x_d``."""
    nd = cfg.nd
    x0_frob = float(np.linalg.norm(x0))
    terminal = moments(x_d)
    ma_rhs = x0_frob / np.sqrt(nd) + 2.0 * cfg.depth * cfg.delta_t * (gmax + bmax)
    var_rhs = (x0_frob + 2.0 * cfg.depth * cfg.delta_t * np.sqrt(nd) * (gmax + bmax)) ** 2 / (nd - 1)
    return [
        BoundReport.for_model("peri_ma_growth", cfg, gmax, bmax, terminal.mean_abs, ma_rhs, seed),
        BoundReport.for_model("peri_var_growth", cfg, gmax, bmax, terminal.var, var_rhs, seed),
    ]


def _datawise_row(
    inputs, x_d: np.ndarray, cfg: ModelConfig, gmax: float, bmax: float,
    entry: tuple[int, int], seed: int,
) -> BoundReport:
    """The datawise_variance row of ``inputs`` and their terminal states ``x_d``."""
    scale = 2.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * (gmax + bmax)
    values = x_d[:, entry[0], entry[1]]
    rhs_terms = [(float(np.linalg.norm(x0)) + scale) ** 2 for x0 in inputs]
    lhs = np.var(values, ddof=1)
    return BoundReport.for_model("datawise_variance", cfg, gmax, bmax, lhs, np.mean(rhs_terms), seed)


def peri_growth_check(
    x0: np.ndarray, params: list[BlockParams], cfg: ModelConfig, seed: int = 0
) -> list[BoundReport]:
    """Terminal MA and entry variance against the linear/quadratic growth bounds."""
    gmax, bmax = _output_ln_gate(cfg, params, "peri_growth_check")
    return _growth_rows(x0, push_forward(x0, params, cfg), cfg, gmax, bmax, seed)


def datawise_variance_check(
    inputs: np.ndarray | list[np.ndarray],
    params: list[BlockParams],
    cfg: ModelConfig,
    entry: tuple[int, int],
    seed: int = 0,
) -> BoundReport:
    """Variance of one terminal entry across N inputs vs the quadratic bound."""
    gmax, bmax = _output_ln_gate(cfg, params, "datawise_variance_check")
    if len(inputs) < 2:
        raise ValueError("datawise_variance_check: need at least 2 samples")
    if not (0 <= entry[0] < cfg.d and 0 <= entry[1] < cfg.n):
        raise IndexError(f"datawise_variance_check: entry {entry} out of range for a {cfg.d} x {cfg.n} state")
    x_d = push_forward(np.stack(inputs), params, cfg)
    return _datawise_row(inputs, x_d, cfg, gmax, bmax, entry, seed)


def _growth_pair_rows(stack: np.ndarray, entry: tuple[int, int], pushed: np.ndarray, cfg: ModelConfig,
                      gmax: float, bmax: float, seed: int) -> list[BoundReport]:
    """``peri_growth_check``'s and ``datawise_variance_check``'s rows of ``stack`` = ``[x0, *inputs]``
    and its terminal states ``pushed``: slice 0 gives the moments, slices 1..N the variance."""
    x0, inputs = stack[0], stack[1:]
    return [
        *_growth_rows(x0, pushed[0], cfg, gmax, bmax, seed),
        _datawise_row(inputs, pushed[1:], cfg, gmax, bmax, entry, seed),
    ]


def _pathwise_row(stack: np.ndarray, pushed: np.ndarray, cfg: ModelConfig,
                  gmax: float, bmax: float, seed: int) -> BoundReport:
    """The pathwise_stability row of the input pair ``stack`` and its terminal states ``pushed``."""
    lhs = np.linalg.norm(pushed[0] - pushed[1])
    rhs = np.linalg.norm(stack[0] - stack[1]) + 4.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * gmax
    return BoundReport.for_model("pathwise_stability", cfg, gmax, bmax, lhs, rhs, seed)


def pathwise_stability_check(
    x0a: np.ndarray,
    x0b: np.ndarray,
    params: list[BlockParams],
    cfg: ModelConfig,
    seed: int = 0,
) -> BoundReport:
    """Terminal Frobenius deviation of two inputs vs the pathwise bound."""
    gmax, bmax = _output_ln_gate(cfg, params, "pathwise_stability_check")
    stack = np.stack([x0a, x0b])
    return _pathwise_row(stack, push_forward(stack, params, cfg), cfg, gmax, bmax, seed)


def _population(stacks: np.ndarray, cfgs: list[ModelConfig], blocks, check: str):
    """``(X_D, gamma_max, beta_max)`` of ``model._push_population`` under ``cfgs``
    (one delta_t): each member's extrema are ``output_ln_extrema`` of its own
    model, the maxima over its own slices of its own blocks' output LNs."""
    _admit(cfgs[0], check, "norm_out")
    gmax, bmax = np.zeros(len(cfgs)), np.zeros(len(cfgs))

    def folded(j: int, live: int) -> BlockParams:
        b = blocks(j, live)
        for site in (ATTN_OUT, FFN_OUT):
            for most, t in ((gmax, b.ln[site].gamma), (bmax, b.ln[site].beta)):
                own = np.maximum.reduce(np.abs(t).reshape(live, -1), axis=1)  # of each member's slice
                np.maximum(most[:live], own, out=most[:live])
        return b

    pushed = model_mod._push_population(stacks, folded, [c.depth for c in cfgs], cfgs[0])
    return pushed, gmax, bmax


def wasserstein_stability_check(
    mu0: np.ndarray,
    nu0: np.ndarray,
    params: list[BlockParams],
    cfg: ModelConfig,
    p: float = 2.0,
    seed: int = 0,
) -> BoundReport:
    """Exact W_p between pushforward sample clouds vs the propagation bound.

    ``mu0``/``nu0`` are stacks of N inputs each (N, d, n).  N at most
    ``MAX_OT_SAMPLES`` and 1 <= p < inf are checked before anything is
    pushed forward.
    The pushforwards are the terminal states; both optimal transport
    problems are solved exactly with the assignment solver.
    """
    gmax, bmax = _output_ln_gate(cfg, params, "wasserstein_stability_check")
    mu0 = np.asarray(mu0, dtype=np.float64)
    nu0 = np.asarray(nu0, dtype=np.float64)
    if mu0.ndim != 3 or mu0.shape != nu0.shape:
        raise ShapeMismatchError(
            f"wasserstein_stability_check: need two (N, d, n) stacks, got {mu0.shape} and {nu0.shape}"
        )
    check_sample_count(len(mu0))
    norm_equivalence = c_hat(p, cfg.nd)  # refuses p before the pushforward
    mu_d = push_forward(mu0, params, cfg)
    nu_d = push_forward(nu0, params, cfg)
    lhs = wasserstein_exact(mu_d, nu_d, p)
    w0 = wasserstein_exact(mu0, nu0, p)
    rhs = 2.0 ** ((p - 1.0) / p) * (
        norm_equivalence * w0 + 4.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * gmax
    )
    return BoundReport.for_model(f"wasserstein_w{p:g}", cfg, gmax, bmax, lhs, rhs, seed)


@dataclass(frozen=True)
class RescaleResult:
    """Outcome of a weight-rescaling probe on one sublayer's sensitivity.

    Peri: ``max_abs_dev`` is the entrywise deviation after rescaling (zero up
    to epsilon effects).  Pre: ``scale_ratio`` is the fitted scalar relating
    the non-identity parts, expected c1 * c2.
    """

    max_abs_dev: float
    scale_ratio: float


def rescale_invariance_test(
    params: list[BlockParams],
    cfg: ModelConfig,
    x_in: np.ndarray,
    scales: tuple[float, float],
    sublayer: str,
) -> RescaleResult:
    """Compare one sublayer's local sensitivity in block 0, run as a depth-1
    model (later blocks are neither checked nor pushed), before and after
    scaling its weights by (c1, c2): (W, V) for attention, (W1, W2) for the
    FFN.  relu is positively homogeneous, so a relu FFN needs c1 > 0; a c1 * pre
    that underflows to 0 lands on the kink, which the sensitivity refuses."""
    st = _admit(cfg, "rescale_invariance_test", "norm_in")
    c1, c2 = scales
    b = params[0]
    if sublayer == "ffn" and b.ffn.activation == RELU and not c1 > 0:
        raise ActivationKinkError(f"relu rescaling needs c1 > 0, got {c1}; use tanh")
    one = replace(cfg, depth=1)
    before = sublayer_sensitivity(model_forward(x_in, [b], one), 0, sublayer)
    scaled_block = replace(b, **{sublayer: getattr(b, sublayer).scaled(c1, c2)})
    after = sublayer_sensitivity(model_forward(x_in, [scaled_block], one), 0, sublayer)

    if st.norm_out:
        return RescaleResult(
            max_abs_dev=float(np.abs(after - before).max()), scale_ratio=float("nan")
        )
    eye = np.eye(cfg.nd)
    base = (before - eye) / cfg.delta_t
    scaled = (after - eye) / cfg.delta_t
    denom = float((base * base).sum())
    if denom == 0.0:
        raise ValueError("rescale_invariance_test: sublayer sensitivity equals identity")
    ratio = float((scaled * base).sum() / denom)
    return RescaleResult(
        max_abs_dev=float(np.abs(scaled - ratio * base).max()), scale_ratio=ratio
    )


def pre_exponential_bound(chain: ChainResult, seed: int = 0) -> BoundReport:
    """Terminal MA of the simplified pre-norm chain vs its product bound."""
    return BoundReport(
        check="pre_exponential", placement=model_mod.PRE, depth=len(chain.factors),
        delta_t=1.0, gamma_max=float("nan"), beta_max=float("nan"),
        lhs=chain.mean_abs, rhs=chain.bound_rhs, seed=seed,
    )


def dro_bound(
    train_loss: float,
    lipschitz: float,
    radius: float,
    depth: int,
    delta_t: float,
    nd: int,
    gamma_max: float,
) -> float:
    """Deterministic robustness bound on the loss over a Wasserstein ball:

        train_loss + L * (C(1) * r + 4 D dt sqrt(nd) gamma_max)

    with C(1) = ``c_hat(1, nd)`` = sqrt(nd), the C(p) that
    ``wasserstein_stability_check`` uses at p = 1.
    """
    for name, value in (("lipschitz", lipschitz), ("radius", radius), ("gamma_max", gamma_max)):
        if not value >= 0:
            raise ValueError(f"dro_bound: {name} must be >= 0, got {value}")
    return float(
        train_loss
        + lipschitz * (c_hat(1.0, nd) * radius + 4.0 * depth * delta_t * np.sqrt(nd) * gamma_max)
    )
