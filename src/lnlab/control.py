"""Optimal-control constructions on the normalization ellipsoid.

Three pieces: the closed-form maximizer of the linear Hamiltonian over the
ellipsoid (the trained peri-norm velocity field), the tangent-space
projection that keeps post-norm dynamics on the ellipsoid, and an explicit
Euler integrator for the projected flow with an exact radial retraction.
"""

from __future__ import annotations

import numpy as np

from .normalization import LNParams, as_point, ellipsoid_residual
from .numerics import NonFiniteError, RngStream, ShapeMismatchError


class ZeroAdjointError(ValueError):
    """A column of the adjoint field is zero; the maximizer is undefined there."""

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column


def hamiltonian_maximizer(
    P: np.ndarray, gamma_out: np.ndarray, beta_out: np.ndarray | None = None
) -> np.ndarray:
    """Column-wise maximizer of -<P, f> over the output ellipsoid.

    For each adjoint column p_j the unique optimum is

        f*_j = -sqrt(d) Gamma^2 p_j / sqrt(p_j^T Gamma^2 p_j) + beta

    whose columns sit exactly on the ellipsoid
    (f - beta)^T Gamma^-2 (f - beta) = d.
    """
    P = np.asarray(P, dtype=np.float64)
    gamma_out = np.asarray(gamma_out, dtype=np.float64)
    beta = np.zeros_like(gamma_out) if beta_out is None else np.asarray(beta_out, dtype=np.float64)
    if P.ndim != 2 or gamma_out.shape != P.shape[:1] or beta.shape != P.shape[:1]:
        raise ShapeMismatchError(
            f"adjoint field {P.shape} incompatible with gamma {gamma_out.shape} and beta {beta.shape}"
        )
    if np.any(gamma_out == 0.0):
        raise ValueError("hamiltonian_maximizer: gamma has a zero entry")
    d = P.shape[0]
    g2p = (gamma_out**2)[:, None] * P
    quad = np.einsum("ij,ij->j", P, g2p)
    if np.any(quad <= 0.0):
        j = int(np.argmin(quad))
        raise ZeroAdjointError(f"adjoint column {j} is zero; maximizer undefined", j)
    return -np.sqrt(d) * g2p / np.sqrt(quad)[None, :] + beta[:, None]


def postln_projection(x: np.ndarray, f: np.ndarray, p: LNParams) -> np.ndarray:
    """Project a velocity onto the ellipsoid's tangent space at x.

        f  ->  f - [ (x-b)^T G^-2 f / (x-b)^T G^-2 (x-b) ] (x-b)

    Orthogonality is with respect to the Gamma^-2 inner product, so the
    quadratic form (x-b)^T G^-2 (x-b) is constant along the projected flow.
    """
    x = as_point(x, p, "postln_projection")
    f = as_point(f, p, "postln_projection")
    c = x - p.beta
    ginv2 = 1.0 / p.gamma**2
    quad = float(c @ (ginv2 * c))
    if quad == 0.0:
        raise ValueError("postln_projection: x equals the ellipsoid center")
    coeff = float(c @ (ginv2 * f)) / quad
    return f - coeff * c


def radial_reprojection(y: np.ndarray, p: LNParams) -> np.ndarray:
    """Exact retraction onto the ellipsoid: radial rescale about the center."""
    c = as_point(y, p, "radial_reprojection") - p.beta
    quad = float((c / p.gamma) @ (c / p.gamma))
    if quad == 0.0:
        raise ValueError("radial_reprojection: point coincides with the center")
    return p.beta + c * np.sqrt(p.dim / quad)


def integrate_projected_flow(
    x0: np.ndarray,
    field,
    p: LNParams,
    steps: int,
    h: float,
    reproject: bool = True,
) -> np.ndarray:
    """Euler steps x <- x + h * proj(x, field(x)) along the ellipsoid.

    With ``reproject`` each iterate is radially retracted, so every residual
    stays at rounding level; without it the per-step residual drift is
    exactly h^2 * v^T Gamma^-2 v (second order in h), which is what the
    step-halving diagnostics measure.  Returns the (steps+1, d) trajectory.
    """
    x = np.asarray(x0, dtype=np.float64)
    res0 = abs(ellipsoid_residual(x, p))
    if res0 > 1e-9:
        raise ValueError(f"integrate_projected_flow: x0 off the ellipsoid (residual {res0:g})")
    out = np.empty((steps + 1, x.shape[0]))
    out[0] = x
    for s in range(steps):
        v = np.asarray(field(x), dtype=np.float64)
        if not np.isfinite(v).all():
            raise NonFiniteError(f"integrate_projected_flow: field non-finite at step {s}")
        x = x + h * postln_projection(x, v, p)
        if reproject:
            x = radial_reprojection(x, p)
        out[s + 1] = x
    return out


def sample_ellipsoid(p: LNParams, stream: RngStream, count: int) -> np.ndarray:
    """Random points on the ellipsoid: standard normals mapped through Gamma,
    rescaled to quadratic-form radius d, shifted by the center.  Returns (d, count)."""
    gen = stream.generator()
    z = gen.standard_normal((p.dim, count))
    degenerate = (z == 0.0).all(axis=0)
    z[0, degenerate] = 1.0  # measure-zero guard
    c = p.gamma[:, None] * z
    quad = (z * z).sum(axis=0)
    return p.beta[:, None] + c * np.sqrt(p.dim / quad)[None, :]
