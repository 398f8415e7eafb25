"""Finite-difference validation of every analytic derivative in the engine.

Central differences with step h = 1e-6 * (1 + |x|_inf) balance truncation
against rounding in float64.  Each category draws random desk-scale
instances and reports the Frobenius-relative error between the analytic
object and its finite-difference counterpart: ``layernorm`` and ``rmsnorm``
check the LN VJP at one token, ``attention``, ``ffn`` and ``block`` the VJPs
of the sublayers and of a whole block (the reverse sweep), each materialized
over the unit output gradients; ``params`` checks the reverse sweep's
parameter gradients.

``fd_jacobian`` runs all 2 * size perturbed points, +e0, -e0, +e1, ..., as
one stack through one call: the column kernel for the norms, and through
``fd_state_jacobian`` and ``fd_param_gradients``, which acceptance criterion 1
also runs, a ``(T, d, n)`` state stack or one ``push_forward`` per tensor.
Each slice has the bits of its own call, so the rows are a per-entry loop's.
"""

from __future__ import annotations

import numpy as np

from . import attention as attn_mod
from . import model as model_mod
from . import normalization as norm
from .numerics import RngStream, vec
from .parallel import map_indexed

CATEGORIES = ("layernorm", "rmsnorm", "attention", "ffn", "block", "params")


def fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector map, rows = outputs.

    ``f`` maps a stack ``(T, size)`` of points to ``(T, out)``; it is called
    once, on the 2 * size points x + h e_b and x - h e_b interleaved."""
    x = np.asarray(x, dtype=np.float64)
    h = 1e-6 * (1.0 + float(np.abs(x).max()))
    steps = np.eye(x.size)[:, None, :] * np.array([[h], [-h]])  # steps[b] = (h e_b, -h e_b)
    values = f((x + steps).reshape(2 * x.size, x.size)).reshape(x.size, 2, -1)
    # C order, as stacking the columns gives: rel_error's norms read memory order
    return np.ascontiguousarray(((values[:, 0] - values[:, 1]) / (2.0 * h)).T)


def fd_state_jacobian(f, X: np.ndarray) -> np.ndarray:
    """Central-difference nd x nd Jacobian of a map of d x n states, in vec
    layout; ``f`` maps a ``(T, d, n)`` stack and is called once, on 2 nd states."""
    d, n = X.shape
    # column-major points (..., nd) <-> states (..., d, n), as vec and unvec
    stacked = lambda v: f(v.reshape(*v.shape[:-1], n, d).mT).mT.reshape(v.shape)
    return fd_jacobian(stacked, vec(X))


def fd_param_gradients(params: list, cfg, X: np.ndarray, C: np.ndarray, block: int) -> dict:
    """Central-difference gradient of <C, X_D> by each tensor of ``params[block]``:
    one ``push_forward`` per tensor, stacked to ``(2 * size, *shape)``."""
    flat = model_mod.params_to_flat(params[block])

    def loss(name: str, value: np.ndarray) -> np.ndarray:
        """<C, X_D> of each model a ``(..., *shape)`` tensor stack holds, summed
        per slice as one model's call sums it; shaped (..., 1)."""
        plist = list(params)
        plist[block] = model_mod.flat_to_params({**flat, name: value}, params[block])
        XD = model_mod.push_forward(X, plist, cfg)
        return np.reshape([(C * x).sum() for x in XD.reshape(-1, cfg.d, cfg.n)], XD.shape[:-2] + (1,))

    return {
        name: fd_jacobian(lambda v: loss(name, v.reshape(*v.shape[:-1], *arr.shape)),
                          arr.ravel()).reshape(arr.shape)
        for name, arr in flat.items()
    }


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def _rand_cfg(gen: np.random.Generator) -> model_mod.ModelConfig:
    return model_mod.ModelConfig(
        d=int(gen.integers(3, 9)),
        n=int(gen.integers(2, 6)),
        k=int(gen.integers(2, 5)),
        m=int(gen.integers(3, 9)),
        heads=int(gen.integers(1, 3)),
        depth=int(gen.integers(1, 5)),
        placement=model_mod.PLACEMENTS[int(gen.integers(len(model_mod.PLACEMENTS)))],
        delta_t=float(gen.uniform(0.1, 1.0)),
        activation="tanh",
        epsilon=1e-5,
    )


def check_instance(category: str, seed: int, instance: int) -> dict:
    """One randomized FD-vs-analytic comparison; returns a gradcheck row."""
    stream = RngStream(seed, 10).child(instance)
    gen = stream.generator()
    cfg = _rand_cfg(gen)

    if category in ("layernorm", "rmsnorm"):
        kind = norm.LAYERNORM if category == "layernorm" else norm.RMSNORM
        eps = float(gen.choice([0.0, 1e-5]))
        # LayerNorm at d = 2 is locally constant; FD cannot resolve a zero
        # Jacobian in relative terms, so that case is covered by exact tests
        d = max(cfg.d, 3) if kind == norm.LAYERNORM else cfg.d
        p = norm.LNParams(
            gen.normal(1.0, 0.3, size=d), gen.normal(0.0, 0.3, size=d), eps, kind
        )
        x = gen.normal(size=d)
        while np.std(x) < 0.1:
            # near-constant tokens sit below the FD step's resolution
            x = gen.normal(size=d)
        # each point a one-token state, as ``ln_forward`` normalizes it
        f = lambda v: norm.ln_forward_columns(v[..., None], p)[0][..., 0]
        err = rel_error(norm.ln_jacobian(x, p), fd_jacobian(f, x))

    elif category in ("attention", "ffn", "block"):
        # a map of the (d, n) state and its analytic Jacobian in vec layout
        if category == "block":
            params = model_mod.random_model(cfg, stream.child(1))
            f = lambda X: model_mod.block_forward(X, params[0], cfg)[0]
            jacobian = lambda X: model_mod.local_sensitivity(model_mod.model_forward(X, params, cfg), 0)
        elif category == "attention":
            p = model_mod.random_block_params(cfg, gen).attn
            f = lambda X: attn_mod.attn_forward(X, p)[0]
            jacobian = lambda X: attn_mod.attn_jacobian_full(X, p)
        else:
            p = model_mod.random_block_params(cfg, gen).ffn
            f = lambda X: attn_mod.ffn_forward(X, p)[0]
            jacobian = lambda X: attn_mod.ffn_jacobian_blockdiag(X, p)
        X = gen.normal(size=(cfg.d, cfg.n))
        err = rel_error(jacobian(X), fd_state_jacobian(f, X))

    elif category == "params":
        params = model_mod.random_model(cfg, stream.child(1))
        X = gen.normal(size=(cfg.d, cfg.n))
        C = gen.normal(size=(cfg.d, cfg.n))  # loss(X_D) = <C, X_D>
        grads = model_mod.param_gradients(model_mod.model_forward(X, params, cfg), C)
        block = int(gen.integers(cfg.depth))
        fd = fd_param_gradients(params, cfg, X, C, block)
        err = max(rel_error(grads[block][name], g) for name, g in fd.items())

    else:
        raise ValueError(f"unknown gradcheck category {category!r}")
    return {
        "category": category, "instance": instance, "d": cfg.d, "n": cfg.n,
        "heads": cfg.heads, "depth": cfg.depth, "rel_err": err, "seed": seed,
    }


def run_all(instances: int, seed: int) -> list[dict]:
    """``instances`` rows of each category, category by category."""
    return [
        row
        for category in CATEGORIES
        for row in map_indexed(lambda i: check_instance(category, seed, i), instances)
    ]
