"""Desk-scale transformer engine with configurable layer-normalization
placement, residual step scaling, and a numerical stability diagnostics
suite (analytic Jacobians, growth and transport bounds, divergence trials).
"""

from .attention import AttentionParams, FfnParams, attn_forward, ffn_forward
from .control import hamiltonian_maximizer, integrate_projected_flow, postln_projection
from .diagnostics import BoundReport, dro_bound, layer_moments, peri_growth_check
from .model import (
    BlockParams,
    ForwardTape,
    ModelConfig,
    block_forward,
    local_sensitivity,
    model_forward,
    param_gradients,
    simplified_pre_chain,
)
from .normalization import LNParams, ellipsoid_residual, ln_forward, ln_jacobian
from .numerics import (
    Moments,
    RngStream,
    min_cost_assignment,
    moments,
    softmax_columns,
    spectral_norm,
    wasserstein_exact,
)
from .training import TrainConfig, TrialOutcome, make_task, stability_trial, train_run

__version__ = "0.1.0"
