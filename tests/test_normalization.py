import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    central_diff_jacobian,
    ln_vjp_at,
    mean_ln_input_grad,
    mean_ln_stats,
    relative_error,
    scripted_ln_jacobian,
    scripted_ln_vjp,
)

from lnlab.normalization import (
    LAYERNORM,
    RMSNORM,
    DegenerateTokenError,
    LNParams,
    _column_stats,
    ellipsoid_residual,
    ln_forward,
    ln_forward_columns,
    ln_jacobian,
    ln_vjp,
)
from lnlab.numerics import RngStream, ShapeMismatchError


def plain(d, eps=0.0, kind=LAYERNORM):
    return LNParams(np.ones(d), np.zeros(d), eps, kind)


def random_params(gen, d, eps=0.0, kind=LAYERNORM):
    gamma = gen.normal(1.0, 0.4, size=d)
    gamma[np.abs(gamma) < 0.05] = 0.3
    beta = gen.normal(0.0, 0.5, size=d) if kind == LAYERNORM else None
    return LNParams(gamma, beta, eps, kind)


def spread_token(gen, d, scale=1.0):
    """Random token kept away from the constant direction, where the pinned
    finite-difference step is too coarse for the normalization curvature."""
    x = gen.normal(scale=scale, size=d)
    while np.std(x) < 0.1 * scale:
        x = gen.normal(scale=scale, size=d)
    return x


class TestForward:
    def test_already_standardized(self):
        out = ln_forward(np.array([1.0, -1.0]), plain(2))
        assert np.array_equal(out, [1.0, -1.0])

    def test_hand_layernorm(self):
        out = ln_forward(np.array([2.0, 0.0]), plain(2))
        assert np.allclose(out, [1.0, -1.0], atol=1e-15)

    def test_hand_rmsnorm(self):
        out = ln_forward(np.array([3.0, 4.0]), plain(2, kind=RMSNORM))
        assert np.allclose(out, [0.848528137423857, 1.131370849898476], atol=1e-15)

    def test_gamma_beta_applied(self):
        p = LNParams(np.array([2.0, 3.0]), np.array([1.0, -1.0]), 0.0, LAYERNORM)
        out = ln_forward(np.array([2.0, 0.0]), p)
        assert np.allclose(out, [2.0 * 1 + 1, 3.0 * (-1) - 1], atol=1e-15)

    def test_rmsnorm_stores_no_bias(self):
        p = LNParams(np.ones(3), np.full(3, 2.0), 0.0, RMSNORM)
        assert np.array_equal(p.beta, np.zeros(3))
        with pytest.raises(ValueError, match="equal-length"):
            LNParams(np.ones(3), np.ones(2), 0.0, RMSNORM)

    def test_degenerate_constant_token(self):
        with pytest.raises(DegenerateTokenError, match="token index 0$") as exc:
            ln_forward(np.array([3.0, 3.0]), plain(2))
        assert exc.value.token_index == 0

    def test_degenerate_zero_rms(self):
        with pytest.raises(DegenerateTokenError):
            ln_forward(np.zeros(3), plain(3, kind=RMSNORM))

    def test_degenerate_error_names_token(self):
        X = np.array([[1.0, 2.0], [0.5, 2.0]])  # column 1 constant
        with pytest.raises(DegenerateTokenError, match="token index 1") as exc:
            ln_forward_columns(X, plain(2))
        assert exc.value.token_index == 1

    def test_epsilon_smooths_degenerate(self):
        out = ln_forward(np.array([3.0, 3.0]), plain(2, eps=1e-5))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("eps", [-1e-5, float("nan")])
    def test_out_of_range_epsilon_raises(self, eps):
        with pytest.raises(ValueError, match=rf"^LNParams: epsilon must be >= 0, got {eps}$"):
            plain(2, eps=eps)

    def test_columns_match_tokenwise(self):
        gen = RngStream(5).generator()
        X = gen.normal(size=(4, 6))
        p = random_params(gen, 4)
        cols, _ = ln_forward_columns(X, p)
        for j in range(6):
            assert np.array_equal(cols[:, j], ln_forward(X[:, j], p))


class TestParameterDim:
    # numpy would broadcast a length-1 gamma and beta over any token
    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    @pytest.mark.parametrize("call", [
        ln_forward,
        lambda x, p: ln_forward_columns(x[:, None], p),
        ln_jacobian,
        lambda x, p: ln_vjp(x[:, None], np.ones((1, 1)), p, np.ones((3, 1))),
        ellipsoid_residual,
    ], ids=["ln_forward", "ln_forward_columns", "ln_jacobian", "ln_vjp", "ellipsoid_residual"])
    def test_mismatched_dim_raises(self, call, kind):
        with pytest.raises(ShapeMismatchError, match="columns of length 3, parameters of dim 1"):
            call(np.array([1.0, 2.0, 4.0]), plain(1, kind=kind))

    def test_vjp_gradient_dim_checked(self):
        xhat = np.array([[1.0], [-1.0]])
        with pytest.raises(ShapeMismatchError, match="columns of length 1"):
            ln_vjp(xhat, np.ones((1, 1)), plain(2), np.ones((1, 1)))


class TestEllipsoid:
    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_membership_random(self, kind, d):
        gen = RngStream(d * 1000 + (kind == RMSNORM)).generator()
        p = random_params(gen, d, kind=kind)
        for _ in range(200):
            z = ln_forward(gen.normal(scale=3.0, size=d), p)
            assert abs(ellipsoid_residual(z, p)) <= 1e-10

    def test_center(self):
        gen = RngStream(1).generator()
        p = random_params(gen, 5)
        assert ellipsoid_residual(p.beta, p) == pytest.approx(-5.0, abs=1e-12)

    def test_quadratic_scaling(self):
        gen = RngStream(2).generator()
        p = random_params(gen, 6)
        z = ln_forward(gen.normal(size=6), p)
        stretched = p.beta + 2.0 * (z - p.beta)
        assert ellipsoid_residual(stretched, p) == pytest.approx(3 * 6, rel=1e-12)

    def test_zero_gamma_rejected(self):
        p = LNParams(np.array([1.0, 0.0]), np.zeros(2), 0.0, LAYERNORM)
        with pytest.raises(ValueError, match="gamma"):
            ellipsoid_residual(np.ones(2), p)


class TestJacobian:
    def test_d2_output_locally_constant(self):
        # at d=2 the standardized vector is (sign, -sign): the map is locally
        # constant and both the analytic Jacobian and finite differences vanish
        p = plain(2)
        x = np.array([1.0, -1.0])
        analytic = ln_jacobian(x, p)
        fd = central_diff_jacobian(lambda v: ln_forward(v, p), x)
        assert np.allclose(analytic, 0.0, atol=1e-15)
        assert np.allclose(fd, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    def test_is_the_vjp_materialized(self, kind):
        # one derivative per map: the Jacobian's row a is ln_vjp of the unit
        # gradient on output a, bit for bit
        gen = RngStream(19).generator()
        for _ in range(100):
            d = int(gen.integers(2, 17))
            p = random_params(gen, d, eps=float(gen.choice([0.0, 1e-5])), kind=kind)
            x = spread_token(gen, d, 10.0 ** gen.uniform(-3.0, 3.0))
            rows = [ln_vjp_at(x[:, None], p, e[:, None])[0][:, 0] for e in np.eye(d)]
            assert np.array_equal(ln_jacobian(x, p), np.stack(rows))

    @pytest.mark.parametrize("jacobian", [ln_jacobian, scripted_ln_jacobian],
                             ids=["ln_jacobian", "scripted_ln_jacobian"])
    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    @pytest.mark.parametrize("eps", [0.0, 1e-5])
    def test_matches_finite_differences(self, kind, eps, jacobian):
        # LayerNorm at d = 2 is locally constant (Jacobian 0), so a relative
        # comparison is ill-posed there; that case is pinned exactly above
        gen = RngStream(17 + int(eps > 0)).generator()
        dmin = 3 if kind == LAYERNORM else 2
        for t in range(250):
            d = int(gen.integers(dmin, 9))
            p = random_params(gen, d, eps=eps, kind=kind)
            scale = gen.uniform(0.5, 3.0)
            x = spread_token(gen, d, scale)
            analytic = jacobian(x, p)
            fd = central_diff_jacobian(lambda v: ln_forward(v, p), x)
            assert relative_error(analytic, fd) <= 1e-6

    @pytest.mark.parametrize("c", [2.0, 10.0, 1e3])
    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    def test_inverse_scaling_law(self, c, kind):
        # d >= 3 for LayerNorm: at d = 2 the Jacobian vanishes identically
        # and the relative bound would compare rounding noise to itself
        gen = RngStream(23).generator()
        dmin = 3 if kind == LAYERNORM else 2
        for _ in range(50):
            d = int(gen.integers(dmin, 9))
            p = random_params(gen, d, kind=kind)
            x = spread_token(gen, d)
            base = ln_jacobian(x, p)
            dev = np.linalg.norm(ln_jacobian(c * x, p) - base / c)
            assert dev <= 1e-12 * np.linalg.norm(base)

    def test_rows_annihilate_constants(self):
        gen = RngStream(29).generator()
        for _ in range(100):
            d = int(gen.integers(2, 9))
            p = random_params(gen, d)
            jac = ln_jacobian(gen.normal(size=d), p)
            assert np.abs(jac @ np.ones(d)).max() <= 1e-10

    def test_flat_at_large_spread(self):
        p = plain(4)
        x = np.array([1e3, -1e3, 2e3, -2e3])
        analytic = ln_jacobian(x, p)
        fd = central_diff_jacobian(lambda v: ln_forward(v, p), x)
        assert np.abs(analytic).max() < 1e-2
        assert relative_error(analytic, fd) <= 1e-6

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTokenError):
            ln_jacobian(np.array([1.0, 1.0]), plain(2))

    @pytest.mark.parametrize("call", [ln_jacobian, ellipsoid_residual], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("gamma, beta", [
        (np.ones((2, 3)), np.zeros(3)), (np.ones(3), np.zeros((1, 3)))], ids=["gamma", "beta"])
    def test_stacked_parameters_rejected(self, call, gamma, beta):
        p = LNParams(gamma, beta)
        with pytest.raises(ShapeMismatchError, match="^" + re.escape(
                f"{call.__name__} takes one parameter set, got gamma {gamma.shape} and beta {beta.shape}")):
            call(np.array([1.0, 2.0, 4.0]), p)


class TestVjp:
    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    def test_gamma_beta_gradients_match_fd(self, kind):
        gen = RngStream(37).generator()
        d, n = 4, 3
        p = random_params(gen, d, eps=1e-5, kind=kind)
        X = gen.normal(size=(d, n))
        C = gen.normal(size=(d, n))

        gx, ggamma, gbeta = ln_vjp_at(X, p, C)

        def loss_gamma(gamma):
            q = LNParams(gamma, p.beta, p.epsilon, p.kind)
            return float((C * ln_forward_columns(X, q)[0]).sum())

        fd_gamma = central_diff_jacobian(lambda g: np.array([loss_gamma(g)]), p.gamma)[0]
        assert relative_error(ggamma, fd_gamma) <= 1e-6

        def loss_x(v):
            return float((C * ln_forward_columns(v.reshape(d, n, order="F"), p)[0]).sum())

        fd_x = central_diff_jacobian(
            lambda v: np.array([loss_x(v)]), X.reshape(-1, order="F")
        )[0].reshape(d, n, order="F")
        assert relative_error(gx, fd_x) <= 1e-6

        if kind == LAYERNORM:
            assert np.allclose(gbeta, C.sum(axis=1), atol=1e-12)
        else:
            assert gbeta is None


# rounding allowance of the column kernels against the per-token oracle: a
# length-d sum of terms bounded by 2 |gamma|_inf |gbar_j|_inf / s_j, with slack
def _tol(d: int) -> float:
    return 4 * d * np.finfo(np.float64).eps


@st.composite
def column_cases(draw):
    """(X, p, gbar): d in 2..16, n in 1..8, both kinds, eps 0 or 1e-5, and
    input scales log-uniform over 1e-3..1e3."""
    d = draw(st.integers(2, 16))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from([LAYERNORM, RMSNORM]))
    eps = draw(st.sampled_from([0.0, 1e-5]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    p = random_params(gen, d, eps=eps, kind=kind)
    return gen.normal(scale=scale, size=(d, n)), p, gen.normal(size=(d, n))


@st.composite
def taped_cases(draw):
    """(X, p, gbar) on the three shapes the model's LN sites see: one state
    with its gradient, a (B, d, n) stack with one gradient per state, and
    the nd stacked gradients of a materialized sensitivity over one state."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([LAYERNORM, RMSNORM]))
    eps = draw(st.sampled_from([0.0, 1e-5]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    p = random_params(gen, d, eps=eps, kind=kind)
    shape = draw(st.sampled_from(["state", "stack", "gradients"]))
    lead = (draw(st.integers(1, 3)),) if shape == "stack" else ()
    X = gen.normal(scale=scale, size=(*lead, d, n))
    glead = (d * n,) if shape == "gradients" else lead
    return X, p, gen.normal(size=(*glead, d, n))


def _denominators(X, p):
    c = X - X.mean(axis=0) if p.kind == LAYERNORM else X
    return np.sqrt(np.mean(c * c, axis=0) + p.epsilon)


class TestColumnKernels:
    @settings(max_examples=300)
    @given(column_cases())
    def test_vjp_matches_per_token_oracle(self, case):
        X, p, gbar = case
        d, n = X.shape
        gx, ggamma, gbeta = ln_vjp_at(X, p, gbar)
        ref_gx, ref_ggamma, ref_gbeta = scripted_ln_vjp(X, p, gbar)
        gmax = np.abs(gbar).max(axis=0)
        scale = np.abs(p.gamma).max() * gmax / _denominators(X, p)
        assert np.all(np.abs(gx - ref_gx).max(axis=0) <= _tol(d) * scale)
        # |xhat| <= sqrt(d) entrywise, so each ggamma term is at most sqrt(d) |gbar_j|
        assert np.abs(ggamma - ref_ggamma).max() <= _tol(n) * np.sqrt(d) * gmax.sum()
        if p.kind == LAYERNORM:
            assert np.abs(gbeta - ref_gbeta).max() <= _tol(n) * gmax.sum()
        else:
            assert gbeta is None and ref_gbeta is None

    @settings(max_examples=200)
    @given(taped_cases())
    def test_taped_statistics_are_bit_exact(self, case):
        # the forward pass tapes (xhat, s) once; its output and the VJP fed
        # them must equal those built from statistics recomputed from the input
        X, p, gbar = case
        z, (xhat, s) = ln_forward_columns(X, p)
        c, s_input = _column_stats(X, p)
        recomputed_z = p.gamma[:, None] * (c / s_input)
        if p.kind == LAYERNORM:
            recomputed_z = recomputed_z + p.beta[:, None]
        assert np.array_equal(z, recomputed_z)
        taped = ln_vjp(xhat, s, p, gbar)
        recomputed = ln_vjp(c / s_input, s_input, p, gbar)
        for got, want in zip(taped, recomputed):
            assert (got is None and want is None) or np.array_equal(got, want)
        assert taped[0].shape == np.broadcast_shapes(X.shape, gbar.shape)

    @settings(max_examples=300)
    @given(taped_cases())
    def test_column_means_are_np_mean_bits(self, case):
        # the kernels' sum-then-divide means take np.mean's bits, so a
        # regrouping of the gradient's terms shows here, not only in bit pins
        X, p, gbar = case
        for got, want in zip(_column_stats(X, p), mean_ln_stats(X, p)):
            assert np.array_equal(got, want)
        assert np.array_equal(ln_vjp_at(X, p, gbar)[0], mean_ln_input_grad(X, p, gbar))

    @settings(max_examples=300)
    @given(column_cases())
    def test_forward_matches_tokenwise(self, case):
        X, p, _ = case
        d, n = X.shape
        cols, _ = ln_forward_columns(X, p)
        tokens = np.stack([ln_forward(X[:, j], p) for j in range(n)], axis=1)
        if d < 8:
            # one sequential sum per column either way: the same bits
            assert np.array_equal(cols, tokens)
        else:
            # |xhat| <= sqrt(d) entrywise
            bound = _tol(d) * (np.abs(p.gamma).max() * np.sqrt(d) + np.abs(p.beta).max())
            assert np.abs(cols - tokens).max() <= bound

    @pytest.mark.parametrize("kind", [LAYERNORM, RMSNORM])
    @given(st.integers(2, 8), st.data())
    def test_first_degenerate_column_reported(self, kind, n, data):
        d = 4
        first = data.draw(st.integers(0, n - 2))
        later = data.draw(st.integers(first + 1, n - 1))
        gen = RngStream(n * 100 + first * 10 + later).generator()
        X = np.stack([spread_token(gen, d) for _ in range(n)], axis=1)
        degenerate = np.full(d, 2.5) if kind == LAYERNORM else np.zeros(d)
        X[:, first] = degenerate
        X[:, later] = degenerate
        p = random_params(gen, d, kind=kind)
        # the statistics pass refuses the token; ln_vjp only reads what it taped
        with pytest.raises(DegenerateTokenError, match=f"token index {first}$") as exc:
            ln_forward_columns(X, p)
        assert exc.value.token_index == first


@st.composite
def parameter_stack_cases(draw):
    """(states, parameters, upstream gradients) where T = 1..6 parameter sets
    sit on a leading axis of gamma, of beta (LayerNorm only) or of both: d
    2..8, n 1..5, epsilon 0 or 1e-5, over one state (parameters ``(T, d)``)
    or a stack of B = 1..3 states (``(T, 1, d)``)."""
    kind = draw(st.sampled_from([LAYERNORM, RMSNORM]))
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([0.0, 1e-5]))
    models = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    stacked = draw(st.sampled_from(["gamma", "beta", "both"] if kind == LAYERNORM else ["gamma"]))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    lead = (models,) + (1,) * len(batch)
    gamma = gen.normal(1.0, 0.4, size=lead + (d,) if stacked != "beta" else (d,))
    beta = gen.normal(0.0, 0.5, size=lead + (d,) if stacked != "gamma" else (d,))
    X = gen.normal(size=batch + (d, n))
    return X, LNParams(gamma, beta, eps, kind), gen.normal(size=(models,) + batch + (d, n))


class TestParameterAxes:
    """gamma and beta with leading axes normalize each slice as the call with
    that one parameter set does: the output and all three VJP results have its
    bits."""

    @settings(max_examples=300)
    @given(parameter_stack_cases())
    def test_slices_equal_per_parameter_calls(self, case):
        X, p, G = case
        z, (xhat, s) = ln_forward_columns(X, p)
        stacked = ln_vjp(xhat, s, p, G)
        d = p.dim
        for t in range(G.shape[0]):
            gamma, beta = (v if v.ndim == 1 else v.reshape(-1, d)[t] for v in (p.gamma, p.beta))
            one = LNParams(gamma, beta, p.epsilon, p.kind)
            z_t, (xhat_t, s_t) = ln_forward_columns(X, one)
            assert np.array_equal(z[t], z_t)
            assert np.array_equal(xhat, xhat_t) and np.array_equal(s, s_t)
            for got, want in zip(stacked, ln_vjp(xhat_t, s_t, one, G[t])):
                if want is None:
                    assert got is None
                else:
                    assert got[t].shape == want.shape and np.array_equal(got[t], want)
