import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    central_diff_jacobian,
    per_head_attn_forward,
    per_head_attn_vjp,
    recompute_attn_vjp,
    recompute_ffn_vjp,
    relative_error,
    scripted_attention,
    scripted_attention_jacobian,
    scripted_ffn,
    scripted_ffn_jacobian,
)

from lnlab.attention import (
    ActivationKinkError,
    AttentionParams,
    FfnParams,
    attn_forward,
    attn_jacobian_full,
    attn_vjp,
    ffn_forward,
    ffn_jacobian_blockdiag,
    ffn_vjp,
)
from lnlab.numerics import RngStream, ShapeMismatchError, unvec, vec


def random_attention(gen, d, k, heads):
    return AttentionParams(
        q=gen.normal(0, 1 / np.sqrt(d), size=(heads, k, d)),
        k=gen.normal(0, 1 / np.sqrt(d), size=(heads, k, d)),
        v=gen.normal(0, 1 / np.sqrt(d), size=(heads, k, d)),
        w=gen.normal(0, 1 / np.sqrt(k), size=(heads, d, k)),
    )


def random_ffn(gen, d, m, activation="tanh"):
    return FfnParams(
        w1=gen.normal(0, 1 / np.sqrt(d), size=(m, d)),
        w2=gen.normal(0, 1 / np.sqrt(m), size=(d, m)),
        activation=activation,
    )


class TestAttnForward:
    def test_zero_logits_give_column_mean(self):
        gen = RngStream(0).generator()
        d, n, k = 3, 4, 2
        p = random_attention(gen, d, k, 1)
        p = AttentionParams(np.zeros_like(p.q), np.zeros_like(p.k), p.v, p.w)
        X = gen.normal(size=(d, n))
        out = attn_forward(X, p)[0]
        mean_col = (p.w[0] @ p.v[0] @ X).mean(axis=1)
        for j in range(n):
            assert np.allclose(out[:, j], mean_col, atol=1e-14)

    def test_single_token(self):
        gen = RngStream(1).generator()
        p = random_attention(gen, 3, 2, 2)
        x = gen.normal(size=(3, 1))
        expected = sum(p.w[h] @ p.v[h] @ x for h in range(2))
        assert np.allclose(attn_forward(x, p)[0], expected, atol=1e-14)

    def test_hand_set_weights_vs_scripted_eval(self):
        q = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        k = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        v = np.array([[[1.0, 2.0], [-1.0, 0.0]]])
        w = np.array([[[2.0, 0.0], [1.0, 1.0]]])
        p = AttentionParams(q, k, v, w)
        X = np.array([[1.0, -1.0], [0.5, 2.0]])
        assert np.allclose(attn_forward(X, p)[0], scripted_attention(X, q, k, v, w), atol=1e-14)

    def test_random_vs_scripted_eval(self):
        gen = RngStream(2).generator()
        for _ in range(20):
            d, n, k, heads = (int(gen.integers(2, 6)) for _ in range(4))
            p = random_attention(gen, d, k, heads)
            X = gen.normal(size=(d, n))
            assert np.allclose(
                attn_forward(X, p)[0], scripted_attention(X, p.q, p.k, p.v, p.w), atol=1e-13
            )

    def test_shape_mismatch(self):
        p = random_attention(RngStream(3).generator(), 3, 2, 1)
        with pytest.raises(ShapeMismatchError):
            attn_forward(np.zeros((4, 2)), p)


class TestAttnJacobian:
    def test_zero_weights_zero_jacobian(self):
        p = AttentionParams(*(np.zeros((1, 2, 3)),) * 3, np.zeros((1, 3, 2)))
        X = RngStream(4).generator().normal(size=(3, 3))
        assert np.array_equal(attn_jacobian_full(X, p), np.zeros((9, 9)))

    def test_all_blocks_match_fd(self):
        gen = RngStream(5).generator()
        for _ in range(30):
            d = int(gen.integers(2, 9))
            n = int(gen.integers(2, 6))
            k = int(gen.integers(2, 5))
            heads = int(gen.integers(1, 3))
            p = random_attention(gen, d, k, heads)
            X = gen.normal(size=(d, n))
            full_fd = central_diff_jacobian(
                lambda v: vec(attn_forward(unvec(v, d, n), p)[0]), vec(X)
            )
            assert relative_error(attn_jacobian_full(X, p), full_fd) <= 1e-6

    def test_matches_blockwise_loop(self):
        # the broadcast form reorders the loop's sums, so allow a few hundred ulps
        gen = RngStream(7).generator()
        for _ in range(50):
            d, n, k, heads = (int(gen.integers(1, 7)) for _ in range(4))
            p = random_attention(gen, d, k, heads)
            X = gen.normal(scale=3.0, size=(d, n))
            reference = scripted_attention_jacobian(X, p.q, p.k, p.v, p.w)
            assert relative_error(attn_jacobian_full(X, p), reference) <= 1e-13

    def test_stacked_weights_rejected(self):
        p = random_attention(RngStream(8).generator(), 3, 2, 1)
        stacked = AttentionParams(p.q, p.k, np.stack([p.v, p.v]), p.w)
        with pytest.raises(ShapeMismatchError, match="one model's weights, got AttentionParams"):
            attn_jacobian_full(np.ones((3, 2)), stacked)

    def test_linear_in_w_and_v(self):
        gen = RngStream(6).generator()
        p = random_attention(gen, 4, 3, 2)
        X = gen.normal(size=(4, 3))
        base = attn_jacobian_full(X, p)
        for c1, c2 in ((10.0, 10.0), (1000.0, 0.01), (2.0, -3.0)):
            scaled = attn_jacobian_full(X, p.scaled(c1, c2))
            assert relative_error(scaled, c1 * c2 * base) <= 1e-12


class TestFfnForward:
    def test_identity_relu_on_nonnegative(self):
        p = FfnParams(np.eye(3), np.eye(3), "relu")
        X = np.abs(RngStream(8).generator().normal(size=(3, 4)))
        assert np.array_equal(ffn_forward(X, p)[0], X)

    def test_zero_first_layer(self):
        p = FfnParams(np.zeros((4, 3)), RngStream(9).generator().normal(size=(3, 4)), "tanh")
        assert np.array_equal(ffn_forward(np.ones((3, 2)), p)[0], np.zeros((3, 2)))

    def test_random_vs_scripted_eval(self):
        gen = RngStream(10).generator()
        for activation in ("tanh", "relu"):
            p = random_ffn(gen, 4, 6, activation)
            X = gen.normal(size=(4, 3))
            assert np.allclose(
                ffn_forward(X, p)[0], scripted_ffn(X, p.w1, p.w2, activation), atol=1e-14
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            FfnParams(np.zeros((4, 3)), np.zeros((2, 4)), "tanh")


class TestFfnJacobian:
    def test_tanh_identity_at_zero(self):
        p = FfnParams(np.eye(3), np.eye(3), "tanh")
        jac = ffn_jacobian_blockdiag(np.zeros((3, 2)), p)
        assert np.allclose(jac, np.eye(6), atol=1e-15)

    def test_matches_fd_tanh(self):
        gen = RngStream(11).generator()
        for _ in range(30):
            d, m, n = int(gen.integers(2, 8)), int(gen.integers(2, 8)), int(gen.integers(2, 5))
            p = random_ffn(gen, d, m)
            X = gen.normal(size=(d, n))
            fd = central_diff_jacobian(lambda v: vec(ffn_forward(unvec(v, d, n), p)[0]), vec(X))
            assert relative_error(ffn_jacobian_blockdiag(X, p), fd) <= 1e-6

    def test_relu_positive_homogeneity(self):
        gen = RngStream(12).generator()
        p = random_ffn(gen, 4, 5, "relu")
        X = gen.normal(size=(4, 3))
        base = ffn_jacobian_blockdiag(X, p)
        for c1, c2 in ((10.0, 10.0), (1000.0, 0.01)):
            scaled = ffn_jacobian_blockdiag(X, p.scaled(c1, c2))
            assert relative_error(scaled, c1 * c2 * base) <= 1e-12

    def test_stacked_weights_rejected(self):
        p = random_ffn(RngStream(8).generator(), 3, 4)
        stacked = FfnParams(p.w1[None], p.w2, p.activation)
        with pytest.raises(ShapeMismatchError, match="one model's weights, got FfnParams"):
            ffn_jacobian_blockdiag(np.ones((3, 2)), stacked)

    def test_relu_kink_rejected(self):
        p = FfnParams(np.eye(2), np.eye(2), "relu")
        X = np.array([[0.0, 1.0], [1.0, 1.0]])  # exact zero pre-activation at token 0
        with pytest.raises(ActivationKinkError, match="tanh"):
            ffn_jacobian_blockdiag(X, p)


@st.composite
def sublayer_cases(draw):
    """(X, attention params, FFN params): d in 2..8, n in 1..6, heads in 1..3,
    key and hidden widths 1..4 and 1..8, tanh or relu."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 6))
    heads = draw(st.integers(1, 3))
    activation = draw(st.sampled_from(["tanh", "relu"]))
    scale = draw(st.sampled_from([0.3, 1.0, 3.0]))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    attn = random_attention(gen, d, int(gen.integers(1, 5)), heads)
    ffn = random_ffn(gen, d, int(gen.integers(1, 9)), activation)
    return gen.normal(scale=scale, size=(d, n)), attn, ffn


class TestJacobiansFromVjps:
    """The Jacobians the library builds from its VJPs against the closed forms."""

    @settings(max_examples=200)
    @given(sublayer_cases())
    def test_attention_matches_blockwise_loop(self, case):
        X, p, _ = case
        reference = scripted_attention_jacobian(X, p.q, p.k, p.v, p.w)
        assert relative_error(attn_jacobian_full(X, p), reference) <= 1e-13

    @settings(max_examples=200)
    @given(sublayer_cases())
    def test_ffn_matches_per_token_loop(self, case):
        X, _, p = case
        d, n = X.shape
        jac = ffn_jacobian_blockdiag(X, p)
        reference = scripted_ffn_jacobian(X, p.w1, p.w2, p.activation)
        assert relative_error(jac, reference) <= 1e-13
        off_token = ~np.eye(n, dtype=bool)
        assert np.all(jac.reshape(n, d, n, d).transpose(0, 2, 1, 3)[off_token] == 0.0)


@st.composite
def head_axis_cases(draw):
    """(states, upstream gradients, attention params): heads 1..3, d 2..8,
    n 1..5, key width 1..4, weights scaled by 1e-3..1e2, and a lone state,
    a stack of 2 or a (3, 2) stack of states."""
    heads = draw(st.integers(1, 3))
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e2]))
    lead = draw(st.sampled_from([(), (2,), (3, 2)]))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    kdim = int(gen.integers(1, 5))
    q, k, v = (gen.normal(scale=scale, size=(heads, kdim, d)) for _ in range(3))
    p = AttentionParams(q, k, v, gen.normal(scale=scale, size=(heads, d, kdim)))
    return gen.normal(size=lead + (d, n)), gen.normal(size=lead + (d, n)), p


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_vjp(got, want):
    """The input gradient and every weight gradient of two VJPs, bit for bit."""
    (gz, grads), (gz_ref, grads_ref) = got, want
    assert same_bits(gz, gz_ref)
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        assert same_bits(grads[name], grads_ref[name]), name


class TestHeadAxis:
    """Heads as a stack axis give the per-head loop's bits: the forward map,
    the input gradient and all four weight gradients."""

    @settings(max_examples=300)
    @given(head_axis_cases())
    def test_forward_and_vjp_bits_match_per_head_loop(self, case):
        Z, G, p = case
        assert same_bits(attn_forward(Z, p)[0], per_head_attn_forward(Z, p))
        d, n = Z.shape[-2:]
        lone = Z.reshape(-1, d, n)[0]
        # a stack of states with one gradient each, then one state under the
        # nd stacked gradients that ``jacobian_from_vjp`` passes
        stacked = RngStream(0).generator().normal(size=(n * d, d, n))
        for state, gbar in ((Z, G), (lone, stacked)):
            gz, grads = attn_vjp(state, *attn_forward(state, p)[1], p, gbar)
            assert_same_vjp((gz, grads), per_head_attn_vjp(state, p, gbar))


@st.composite
def taped_vjp_cases(draw):
    """(states, upstream gradients, attention params, FFN params): heads
    1..3, d 2..8, n 1..5, key and hidden widths 1..4 and 1..8, weights scaled
    by 1e-3..1e2, tanh or relu, a lone state or a stack of B = 1..4 states,
    and, for relu, sometimes a zero token, whose pre-activation is exactly
    the kink."""
    heads = draw(st.integers(1, 3))
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e2]))
    lead = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    activation = draw(st.sampled_from(["tanh", "relu"]))
    kink = draw(st.booleans())
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    kdim, m = int(gen.integers(1, 5)), int(gen.integers(1, 9))
    q, k, v = (gen.normal(scale=scale, size=(heads, kdim, d)) for _ in range(3))
    attn = AttentionParams(q, k, v, gen.normal(scale=scale, size=(heads, d, kdim)))
    ffn = FfnParams(gen.normal(scale=scale, size=(m, d)), gen.normal(scale=scale, size=(d, m)),
                    activation)
    Z = gen.normal(size=lead + (d, n))
    if kink:
        Z[..., :, 0] = 0.0
    return Z, gen.normal(size=lead + (d, n)), attn, ffn


class TestTapedVjps:
    """The VJPs fed their forward pass's intermediates give the bits of the
    VJPs that recompute them from the state: the input gradient and every
    weight gradient, and the same relu kink error."""

    @settings(max_examples=300)
    @given(taped_vjp_cases())
    def test_taped_vjps_equal_recompute_from_state(self, case):
        Z, G, attn, ffn = case
        d, n = Z.shape[-2:]
        lone = Z.reshape(-1, d, n)[0]
        # a stack of states with one gradient each, then one state under the
        # nd stacked gradients that ``jacobian_from_vjp`` passes
        stacked = RngStream(0).generator().normal(size=(n * d, d, n))
        for state, gbar in ((Z, G), (lone, stacked)):
            taped = attn_vjp(state, *attn_forward(state, attn)[1], attn, gbar)
            assert_same_vjp(taped, recompute_attn_vjp(state, attn, gbar))
            record = ffn_forward(state, ffn)[1]
            if ffn.activation == "relu" and np.any(record[0] == 0.0):
                with pytest.raises(ActivationKinkError, match="tanh"):
                    recompute_ffn_vjp(state, ffn, gbar)
                with pytest.raises(ActivationKinkError, match="tanh"):
                    ffn_vjp(state, *record, ffn, gbar)
            else:
                assert_same_vjp(ffn_vjp(state, *record, ffn, gbar),
                                recompute_ffn_vjp(state, ffn, gbar))


@st.composite
def weight_stack_cases(draw):
    """(states, upstream gradients, attention params, FFN params) where T =
    1..6 models sit on a leading axis of one weight tensor or of all of them:
    heads 1..3, d 2..8, n 1..5, key and hidden widths 1..4 and 1..8, tanh or
    relu, over one state (weights ``(T, ...)``) or a stack of B = 1..3 states
    (weights ``(T, 1, ...)``); the gradients are ``(T, [B,] d, n)``."""
    heads = draw(st.integers(1, 3))
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    models = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    activation = draw(st.sampled_from(["tanh", "relu"]))
    attn_stacked = draw(st.sampled_from(["q", "k", "v", "w", "all"]))
    ffn_stacked = draw(st.sampled_from(["w1", "w2", "all"]))
    gen = RngStream(draw(st.integers(0, 2**32 - 1))).generator()
    kdim, m = int(gen.integers(1, 5)), int(gen.integers(1, 9))
    lead = (models,) + (1,) * len(batch)

    def tensor(name, stacked, shape):
        return gen.normal(size=lead + shape if stacked in (name, "all") else shape)

    attn = AttentionParams(*(tensor(name, attn_stacked, (heads, kdim, d)) for name in "qkv"),
                           tensor("w", attn_stacked, (heads, d, kdim)))
    ffn = FfnParams(tensor("w1", ffn_stacked, (m, d)), tensor("w2", ffn_stacked, (d, m)), activation)
    return gen.normal(size=batch + (d, n)), gen.normal(size=(models,) + batch + (d, n)), attn, ffn


def one_model(p, t):
    """Model t of stacked sublayer weights; a tensor without leading axes is shared."""
    def pick(m, core):
        return m if m.ndim == core else m.reshape(-1, *m.shape[-core:])[t]

    if isinstance(p, AttentionParams):
        return AttentionParams(*(pick(m, 3) for m in (p.q, p.k, p.v, p.w)))
    return FfnParams(pick(p.w1, 2), pick(p.w2, 2), p.activation)


class TestWeightAxes:
    """Weights with leading axes map each model as the per-model call does:
    for every slice the output, the input gradient and every weight gradient
    have its bits."""

    @settings(max_examples=300)
    @given(weight_stack_cases())
    def test_slices_equal_per_model_calls(self, case):
        Z, G, attn, ffn = case
        for p, forward, vjp in ((attn, attn_forward, attn_vjp), (ffn, ffn_forward, ffn_vjp)):
            out, taped = forward(Z, p)
            gz, grads = vjp(Z, *taped, p, G)
            for t in range(G.shape[0]):
                model = one_model(p, t)
                out_t, taped_t = forward(Z, model)
                assert same_bits(out[t], out_t)
                assert_same_vjp((gz[t], {name: g[t] for name, g in grads.items()}),
                                vjp(Z, *taped_t, model, G[t]))
