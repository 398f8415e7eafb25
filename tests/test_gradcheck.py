import numpy as np
import pytest

from oracles import central_diff_jacobian, central_diff_scalar_grad, relative_error, richardson_scalar_grad

from lnlab import cli, gradcheck
from lnlab.attention import attn_forward, ffn_forward
from lnlab.model import (
    PLACEMENTS,
    ModelConfig,
    block_forward,
    flat_to_params,
    model_forward,
    param_gradients,
    params_to_flat,
    random_model,
)
from lnlab.numerics import RngStream, unvec, vec


def test_one_call_on_interleaved_points():
    x = np.array([1.0, -2.0, 0.5])
    calls = []

    def f(points):
        calls.append(points)
        return np.stack([points.sum(axis=-1), (points ** 2).sum(axis=-1)], axis=-1)

    jac = gradcheck.fd_jacobian(f, x)
    h = 1e-6 * 3.0
    steps = [s * h * e for e in np.eye(3) for s in (1.0, -1.0)]
    assert len(calls) == 1 and np.array_equal(calls[0], x + np.array(steps))
    assert jac.shape == (2, 3) and jac.flags.c_contiguous
    assert np.array_equal(jac, central_diff_jacobian(lambda v: f(v[None])[0], x))


def test_rel_error_is_the_difference_over_the_larger_norm():
    a = np.array([3.0, 4.0])
    assert gradcheck.rel_error(a, -a) == 2.0
    assert gradcheck.rel_error(np.zeros(2), a) == gradcheck.rel_error(a, np.zeros(2)) == 1.0
    assert gradcheck.rel_error(a, 2.0 * a) == 0.5
    assert gradcheck.rel_error(np.zeros(2), np.zeros(2)) == 0.0


@pytest.mark.parametrize("category", gradcheck.CATEGORIES)
def test_rows_equal_the_per_entry_loop(category, monkeypatch):
    """Every row of seeds 0-59 is repr-equal to the one the per-entry loop
    gives on the same maps, called one point at a time."""
    stacked = [repr(gradcheck.check_instance(category, seed, 0)) for seed in range(60)]
    monkeypatch.setattr(gradcheck, "fd_jacobian", central_diff_jacobian)
    assert stacked == [repr(gradcheck.check_instance(category, seed, 0)) for seed in range(60)]


def _model_loss(params, cfg, X, C, block, name, flat):
    """<C, X_D> as a float of one model whose ``name`` tensor in ``block`` is replaced."""

    def loss(value):
        plist = list(params)
        plist[block] = flat_to_params({**flat, name: value}, params[block])
        return float((C * model_forward(X, plist, cfg).x_final).sum())

    return loss


@pytest.mark.parametrize("seed", range(12))
def test_stacked_differences_equal_the_per_entry_loops(seed):
    """On a random model of every placement, the stacked state Jacobians and
    parameter gradients are the arrays of the per-entry oracle loops."""
    gen = RngStream(seed, 40).generator()
    cfg = ModelConfig(
        d=int(gen.integers(3, 7)), n=int(gen.integers(2, 5)), k=int(gen.integers(2, 4)),
        m=int(gen.integers(3, 6)), heads=int(gen.integers(1, 3)), depth=int(gen.integers(1, 4)),
        placement=PLACEMENTS[seed % len(PLACEMENTS)], delta_t=float(gen.uniform(0.1, 1.0)),
    )
    params = random_model(cfg, RngStream(seed, 41))
    X, C = gen.normal(size=(2, cfg.d, cfg.n))
    b = params[0]
    for f in (lambda Z: attn_forward(Z, b.attn)[0], lambda Z: ffn_forward(Z, b.ffn)[0],
              lambda Z: block_forward(Z, b, cfg)[0]):
        loop = central_diff_jacobian(lambda v: vec(f(unvec(v, cfg.d, cfg.n))), vec(X))
        assert np.array_equal(gradcheck.fd_state_jacobian(f, X), loop)
    block = int(gen.integers(cfg.depth))
    flat = params_to_flat(params[block])
    stacked = gradcheck.fd_param_gradients(params, cfg, X, C, block)
    assert list(stacked) == list(flat)
    for name, arr in flat.items():
        h = 1e-6 * (1.0 + float(np.abs(arr).max()))
        loop = central_diff_scalar_grad(_model_loss(params, cfg, X, C, block, name, flat), arr, h=h)
        assert np.array_equal(stacked[name], loop)


@pytest.mark.parametrize("seed, instance", [(65, 1), (23, 8)])
def test_params_instances_over_tolerance_are_resolved_by_a_wider_step(seed, instance):
    """``lnlab gradcheck``'s params rows of these instances read rel_err 7.7e-4
    and 8.5e-5, over PARAM_TOLERANCE, on a correct reverse sweep: at d = 3 and
    n = 2 the attention q and k gradients are 1e-6 to 4e-5 in norm, and a
    2-point difference at h = 1e-6 rounds above the tolerance there.  A
    Richardson-extrapolated difference at h = 1e-3 (1 + |x|_inf) and h / 2
    agrees with every tensor's analytic gradient to the tolerance."""
    stream = RngStream(seed, 10).child(instance)
    gen = stream.generator()
    cfg = gradcheck._rand_cfg(gen)  # check_instance's draws, in its order
    params = random_model(cfg, stream.child(1))
    X, C = gen.normal(size=(cfg.d, cfg.n)), gen.normal(size=(cfg.d, cfg.n))
    grads = param_gradients(model_forward(X, params, cfg), C)
    block = int(gen.integers(cfg.depth))
    assert (cfg.d, cfg.n) == (3, 2)
    flat = params_to_flat(params[block])
    for name, arr in flat.items():
        h = 1e-3 * (1.0 + float(np.abs(arr).max()))
        fd = richardson_scalar_grad(_model_loss(params, cfg, X, C, block, name, flat), arr, h)
        assert relative_error(grads[block][name], fd) <= cli.PARAM_TOLERANCE, name
