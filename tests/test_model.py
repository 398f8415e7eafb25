import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    central_diff_jacobian,
    central_diff_scalar_grad,
    gradient_product,
    relative_error,
    scripted_pre_chain,
    scripted_sublayer,
    zero_weight_block,
)

from lnlab import model as mdl
from lnlab.attention import attn_forward, ffn_forward
from lnlab.model import (
    DivergenceError,
    ModelConfig,
    backward,
    block_forward,
    flat_to_params,
    local_sensitivity,
    model_forward,
    param_gradients,
    params_to_flat,
    push_forward,
    random_model,
    simplified_pre_chain,
    sublayer_sensitivity,
)
from lnlab.normalization import DegenerateTokenError, LNParams, ellipsoid_residual, ln_forward_columns
from lnlab.numerics import RngStream, spectral_norm, unvec, vec


def cfg_for(placement, d=4, n=3, depth=2, dt=0.5, eps=1e-5, activation="tanh"):
    return ModelConfig(
        d=d, n=n, k=3, m=5, heads=2, depth=depth,
        placement=placement, delta_t=dt, activation=activation, epsilon=eps,
    )


def placements_and_kinds():
    """(placement, ln_kind) cases.  LayerNorm cases are identified by the
    bare placement; off has no LN site, so it runs once."""
    cases = [pytest.param(p, "layernorm", id=p) for p in ("off", "pre", "peri", "post")]
    return cases + [pytest.param(p, "rmsnorm", id=f"{p}-rmsnorm") for p in ("pre", "peri", "post")]


def _columnwise(p):
    return None if p is None else (lambda Z: ln_forward_columns(Z, p)[0])


class TestBlockForward:
    @pytest.mark.parametrize("placement", ["off", "pre", "peri"])
    def test_zero_weights_pure_skip(self, placement):
        cfg = cfg_for(placement, dt=0.37)
        block = zero_weight_block(cfg)
        X = RngStream(0).generator().normal(size=(4, 3))
        out, _ = block_forward(X, block, cfg)
        assert np.array_equal(out, X)

    def test_peri_zero_weights_eps_smoothed(self):
        cfg = cfg_for("peri", eps=1e-5)
        block = zero_weight_block(cfg)
        X = RngStream(1).generator().normal(size=(4, 3))
        out, trace = block_forward(X, block, cfg)
        # LN^out(0) = beta = 0 so the residual updates vanish exactly
        assert np.array_equal(out, X)
        y = ln_forward_columns(attn_forward(trace.attn.core_in, block.attn)[0], block.ln["attn_out"])[0]
        assert np.array_equal(y, np.zeros((4, 3)))

    def test_post_columns_on_output_ellipsoid(self):
        cfg = cfg_for("post", eps=0.0)
        params = random_model(cfg, RngStream(2))
        X = RngStream(3).generator().normal(size=(4, 3))
        out, _ = block_forward(X, params[0], cfg)
        site = params[0].ln["ffn_out"]
        for j in range(3):
            assert abs(ellipsoid_residual(out[:, j], site)) <= 1e-9

    def test_post_every_layer_on_its_ellipsoid(self):
        cfg = cfg_for("post", eps=0.0, depth=5)
        params = random_model(cfg, RngStream(40))
        X = RngStream(41).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        for i in range(1, cfg.depth + 1):
            site = params[i - 1].ln["ffn_out"]
            for j in range(3):
                assert abs(ellipsoid_residual(tape.states[i][:, j], site)) <= 1e-9

    def test_delta_t_one_recovers_unscaled_composition(self):
        cfg = cfg_for("peri", dt=1.0)
        params = random_model(cfg, RngStream(4))
        X = RngStream(5).generator().normal(size=(4, 3))
        out, trace = block_forward(X, params[0], cfg)
        b = params[0]
        manual = trace.attn.x + ln_forward_columns(attn_forward(trace.attn.core_in, b.attn)[0], b.ln["attn_out"])[0]
        manual = manual + ln_forward_columns(ffn_forward(trace.ffn.core_in, b.ffn)[0], b.ln["ffn_out"])[0]
        assert np.array_equal(out, manual)

    def test_degenerate_ln_error_carries_block_and_site(self):
        cfg = cfg_for("pre", eps=0.0)
        block = zero_weight_block(cfg)
        X = np.ones((4, 3))  # constant tokens break LayerNorm at eps=0
        with pytest.raises(DegenerateTokenError, match=r"block 7.*attn_in"):
            block_forward(X, block, cfg, index=7)


class TestPlacementSemantics:
    @pytest.mark.parametrize("placement,ln_kind", placements_and_kinds())
    @pytest.mark.parametrize("dt", [1.0, 0.7])
    def test_block_forward_matches_scripted_formulas(self, placement, ln_kind, dt):
        cfg = cfg_for(placement, dt=dt)
        for seed in range(5):
            b = random_model(cfg, RngStream(300 + seed), ln_kind=ln_kind)[0]
            X = RngStream(400 + seed).generator().normal(size=(4, 3))
            expected = X
            for which, f in (("attn", lambda Z: attn_forward(Z, b.attn)[0]),
                             ("ffn", lambda Z: ffn_forward(Z, b.ffn)[0])):
                ln_in = _columnwise(b.ln.get(f"{which}_in"))
                ln_out = _columnwise(b.ln.get(f"{which}_out"))
                expected = scripted_sublayer(placement, expected, f, ln_in, ln_out, dt)
            out, _ = block_forward(X, b, cfg)
            if dt == 1.0:
                assert np.array_equal(out, expected)
            else:
                assert relative_error(out, expected) <= 1e-14


class TestModelForward:
    def test_depth_one_reduces_to_block(self):
        cfg = cfg_for("peri", depth=1)
        params = random_model(cfg, RngStream(6))
        X = RngStream(7).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        out, _ = block_forward(X, params[0], cfg)
        assert np.array_equal(tape.x_final, out)

    def test_zero_weight_model_identity(self):
        cfg = cfg_for("pre", depth=5)
        params = [zero_weight_block(cfg) for _ in range(5)]
        X = RngStream(8).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        assert np.array_equal(tape.x_final, X)

    def test_deterministic_replay_bit_exact(self):
        cfg = cfg_for("peri", d=4, n=3, depth=8)
        params = random_model(cfg, RngStream(9))
        X = RngStream(10).generator().normal(size=(4, 3))
        a = model_forward(X, params, cfg)
        b = model_forward(X, params, cfg)
        assert np.array_equal(a.x_final, b.x_final)
        # replaying the tape block by block reproduces every recorded state
        for i in range(cfg.depth):
            out, _ = block_forward(a.states[i], params[i], cfg, index=i)
            assert np.array_equal(out, a.states[i + 1])

    def test_wrong_depth_rejected(self):
        cfg = cfg_for("peri", depth=3)
        params = random_model(cfg, RngStream(11))
        with pytest.raises(ValueError, match="blocks"):
            model_forward(np.zeros((4, 3)), params[:2], cfg)

    @pytest.mark.parametrize("scaled, message", [
        # an overflowing value path leaves block 1's output non-finite
        (("v", "w"), "^block 1 produced a non-finite state$"),
        # overflowing scores make the softmax refuse its input inside block 1
        (("q", "k"), "^block 1: softmax_columns: input contains non-finite entries$"),
    ], ids=["values", "scores"])
    def test_divergence_reports_first_block(self, scaled, message):
        cfg = cfg_for("off", depth=3, dt=1.0)
        params = random_model(cfg, RngStream(12))
        huge = params[1].attn
        params[1] = mdl.BlockParams(
            replace(huge, **{name: getattr(huge, name) * 1e200 for name in scaled}),
            params[1].ffn, params[1].ln,
        )
        with pytest.raises(DivergenceError, match=message) as exc:
            model_forward(np.ones((4, 3)), params, cfg)
        assert (exc.value.block, exc.value.cause) == (1, mdl.NONFINITE_STATE)

    def test_nonfinite_input_state_is_block_minus_one(self):
        cfg = cfg_for("peri", depth=2)
        X = np.ones((4, 3))
        X[2, 1] = np.nan
        with pytest.raises(DivergenceError, match="input state") as exc:
            model_forward(X, random_model(cfg, RngStream(12)), cfg)
        assert (exc.value.block, exc.value.cause) == (-1, mdl.NONFINITE_STATE)

    def test_sites_validated(self):
        cfg = cfg_for("peri")
        wrong = zero_weight_block(cfg_for("pre"))
        with pytest.raises(ValueError, match="sites"):
            model_forward(np.zeros((4, 3)), [wrong, wrong], cfg)

    @pytest.mark.parametrize("drawn_under, ln, match", [
        (dict(k=2), None, r"attention shapes \(H=2, k=2, d=4\) do not match config \(H=2, k=3, d=4\)"),
        (dict(m=6), None, r"ffn w1 has shape \(6, 4\), expected \(5, 4\)"),
        ({}, np.ones(3), "LN site attn_in has dim 3 != d=4"),
        (dict(activation="relu"), None, "ffn activation 'relu' does not match config activation 'tanh'"),
    ], ids=["attention", "w1", "ln_dim", "activation"])
    def test_mismatched_block_refused(self, drawn_under, ln, match):
        cfg = cfg_for("peri")
        wrong = random_model(replace(cfg, **drawn_under), RngStream(12))[0]
        if ln is not None:
            wrong.ln[mdl.ATTN_IN] = LNParams(ln)
        with pytest.raises(ValueError, match=f"^block 1: {match}$"):
            model_forward(np.zeros((4, 3)), [random_model(cfg, RngStream(12))[0], wrong], cfg)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)])
    def test_mutating_the_input_leaves_the_tape_alone(self, shape):
        cfg = cfg_for("peri", depth=2)
        params = random_model(cfg, RngStream(13))
        gen = RngStream(14).generator()
        X, C = gen.normal(size=shape), gen.normal(size=shape)
        tape = model_forward(X, params, cfg)
        x0 = tape.states[0].copy()
        _, gx = backward(tape, C)
        X *= 3.0
        assert np.array_equal(tape.states[0], x0)
        assert np.array_equal(backward(tape, C)[1], gx)


def forward_error(forward, X, params, cfg):
    """What ``forward`` raises on a state it refuses: type, message, block, site."""
    with pytest.raises((DivergenceError, DegenerateTokenError)) as exc:
        forward(X, params, cfg)
    return type(exc.value), str(exc.value), exc.value.block, getattr(exc.value, "site", None)


class TestPushForward:
    """``push_forward`` gives the tape's terminal state, and refuses what
    ``model_forward`` refuses with the same error, block and site."""

    @pytest.mark.parametrize("placement", mdl.PLACEMENTS)
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3)])
    def test_equals_the_tapes_terminal_state(self, placement, shape):
        cfg = cfg_for(placement, depth=3)
        params = random_model(cfg, RngStream(30))
        X = RngStream(31).generator().normal(size=shape)
        assert np.array_equal(push_forward(X, params, cfg), model_forward(X, params, cfg).x_final)

    @pytest.mark.parametrize("placement, ln_kind", placements_and_kinds())
    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)])
    def test_one_stacked_tensor_gives_each_models_state(self, placement, ln_kind, shape):
        # gradcheck's stacked finite differences: one tensor of one block holds
        # T models on a leading axis, after any axes of the state stack
        cfg = cfg_for(placement, depth=3)
        params = random_model(cfg, RngStream(32), ln_kind=ln_kind)
        X = RngStream(33).generator().normal(size=shape)
        lead = (1,) * (len(shape) - 2)
        for name, value in params_to_flat(params[1]).items():
            values = value + RngStream(34).generator().normal(scale=0.1, size=(3,) + value.shape)
            stacked = list(params)
            stacked[1] = flat_to_params({**params_to_flat(params[1]),
                                         name: values.reshape((3,) + lead + value.shape)}, params[1])
            XD = push_forward(X, stacked, cfg)
            for t in range(3):
                one = list(params)
                one[1] = flat_to_params({**params_to_flat(params[1]), name: values[t]}, params[1])
                assert np.array_equal(XD[t], push_forward(X, one, cfg)), name

    def test_nonfinite_input_refused_alike(self):
        cfg = cfg_for("peri", depth=2)
        params = random_model(cfg, RngStream(12))
        X = np.ones((2, 4, 3))
        X[1, 2, 1] = np.nan
        error = forward_error(push_forward, X, params, cfg)
        assert error == forward_error(model_forward, X, params, cfg)
        assert error[0] is DivergenceError and error[2] == -1

    def test_nonfinite_block_refused_alike(self):
        cfg = cfg_for("off", depth=3, dt=1.0)
        params = random_model(cfg, RngStream(12))
        params[1] = mdl.BlockParams(params[1].attn.scaled(1e200, 1e200), params[1].ffn, params[1].ln)
        error = forward_error(push_forward, np.ones((4, 3)), params, cfg)
        assert error == forward_error(model_forward, np.ones((4, 3)), params, cfg)
        assert error[0] is DivergenceError and error[2] == 1


class TestRandomModel:
    @pytest.mark.parametrize("placement, ln_kind", placements_and_kinds())
    def test_no_two_tensors_share_memory(self, placement, ln_kind):
        # training updates every tensor in place, so two tensors that shared
        # memory would each take the other's update
        cfg = cfg_for(placement, depth=3)
        tensors = [
            t for b in random_model(cfg, RngStream(5), ln_kind=ln_kind)
            for t in params_to_flat(b).values()
        ]
        for i, a in enumerate(tensors):
            for b in tensors[i + 1:]:
                assert not np.shares_memory(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 3),
        st.integers(1, 4), st.sampled_from(mdl.PLACEMENTS), st.sampled_from(["layernorm", "rmsnorm"]),
        st.integers(0, 2**16),
    )
    def test_layout_rows_are_the_flat_tensors(self, d, n, k, m, heads, depth, placement, ln_kind, seed):
        # an RMSNorm site has no beta in params_to_flat, though LNParams stores zeros for it
        cfg = ModelConfig(d=d, n=n, k=k, m=m, heads=heads, depth=depth, placement=placement)
        slots = mdl._layout(cfg, ln_kind)[0]
        rows, blocks = mdl._draw_model(cfg, RngStream(seed), ln_kind=ln_kind)
        assert [s.span.start for s in slots] == [0] + [s.span.stop for s in slots[:-1]]
        assert rows.shape == (depth, slots[-1].span.stop)
        for row, block, b in zip(rows, blocks, random_model(cfg, RngStream(seed), ln_kind=ln_kind)):
            flat = params_to_flat(b)
            assert [s.name for s in slots] == list(flat)
            for s in slots:
                tensor = row[s.span].reshape(s.shape)
                assert np.array_equal(tensor, flat[s.name])
                decayed = s.fan_in is not None  # what train_run's decay factors read
                assert decayed == s.name.startswith(("attn.", "ffn."))
                if not decayed:  # gamma = 1, beta = +0.0
                    assert np.array_equal(tensor, np.full(d, float(s.name.endswith(".gamma"))))
                    assert not np.signbit(tensor).any()
            for tensor in params_to_flat(block).values():  # the blocks view the rows
                assert np.shares_memory(tensor, row)


class TestModelConfig:
    @pytest.mark.parametrize("field, value, match", [
        pytest.param(field, value, match, id=f"{field}-{value}") for field, value, match in [
            ("activation", "sigmoid", "activation"), ("epsilon", -1e-3, "epsilon"),
            ("epsilon", float("nan"), "epsilon"), ("delta_t", float("nan"), "delta_t"),
            ("depth", 0, "^depth must be >= 1, got 0$"), ("depth", float("nan"), "depth"),
            ("d", 0, "^d must be >= 1, got 0$"), ("n", -2, "^n must be >= 1, got -2$"),
            ("k", 0, "^k must be >= 1, got 0$"), ("m", 0, "^m must be >= 1, got 0$"),
            ("heads", 0, "^heads must be >= 1, got 0$"),
            ("heads", float("nan"), "^heads must be >= 1, got nan$"),
        ]
    ])
    def test_bad_field_rejected_on_construction(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            replace(cfg_for("peri"), **{field: value})


class TestLocalSensitivity:
    def test_zero_weight_pre_block_identity(self):
        cfg = cfg_for("pre")
        params = [zero_weight_block(cfg) for _ in range(2)]
        X = RngStream(13).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        assert np.allclose(local_sensitivity(tape, 0), np.eye(12), atol=1e-15)

    @pytest.mark.parametrize("placement,ln_kind", placements_and_kinds())
    @pytest.mark.parametrize("eps", [0.0, 1e-5])
    def test_matches_fd_all_placements(self, placement, ln_kind, eps):
        for seed in range(25):
            cfg = cfg_for(placement, eps=eps, dt=0.7)
            params = random_model(cfg, RngStream(100 + seed), ln_kind=ln_kind)
            X = RngStream(200 + seed).generator().normal(size=(4, 3))
            tape = model_forward(X, params, cfg)
            fd = central_diff_jacobian(
                lambda v: vec(block_forward(unvec(v, 4, 3), params[0], cfg)[0]), vec(X)
            )
            assert relative_error(local_sensitivity(tape, 0), fd) <= 1e-6

    def test_peri_rescale_invariance_exact(self):
        cfg = cfg_for("peri", eps=0.0, activation="relu")
        params = random_model(cfg, RngStream(14))
        X = RngStream(15).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        before = sublayer_sensitivity(tape, 0, "attn")
        b = params[0]
        scaled = mdl.BlockParams(b.attn.scaled(10.0, 10.0), b.ffn, b.ln)
        tape2 = model_forward(X, [scaled, params[1]], cfg)
        after = sublayer_sensitivity(tape2, 0, "attn")
        assert np.abs(after - before).max() <= 1e-10

    def test_pre_nonidentity_scales_with_weights(self):
        cfg = cfg_for("pre", eps=0.0)
        params = random_model(cfg, RngStream(16))
        X = RngStream(17).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        before = sublayer_sensitivity(tape, 0, "attn") - np.eye(12)
        b = params[0]
        scaled = mdl.BlockParams(b.attn.scaled(10.0, 10.0), b.ffn, b.ln)
        tape2 = model_forward(X, [scaled, params[1]], cfg)
        after = sublayer_sensitivity(tape2, 0, "attn") - np.eye(12)
        assert relative_error(after, 100.0 * before) <= 1e-8

    @pytest.mark.parametrize("i", [-1, 2])
    @pytest.mark.parametrize("sensitivity", [
        local_sensitivity,
        lambda tape, i: sublayer_sensitivity(tape, i, "attn"),
        lambda tape, i: sublayer_sensitivity(tape, i, "ffn"),
    ], ids=["block", "attn", "ffn"])
    def test_block_index_out_of_range(self, sensitivity, i):
        cfg = cfg_for("peri")
        tape = model_forward(np.ones((4, 3)), random_model(cfg, RngStream(18)), cfg)
        with pytest.raises(IndexError, match=f"^block index {i} out of range for depth 2$"):
            sensitivity(tape, i)

    def test_unknown_sublayer_rejected(self):
        cfg = cfg_for("peri")
        tape = model_forward(np.ones((4, 3)), random_model(cfg, RngStream(18)), cfg)
        with pytest.raises(ValueError, match="^unknown sublayer 'mlp'; expected 'attn' or 'ffn'$"):
            sublayer_sensitivity(tape, 0, "mlp")

    def test_materialize_limit(self):
        cfg = ModelConfig(d=9, n=8, k=2, m=3, heads=1, depth=1, placement="off")
        params = random_model(cfg, RngStream(18))
        tape = model_forward(np.ones((9, 8)), params, cfg)
        with pytest.raises(ValueError, match="materialize"):
            local_sensitivity(tape, 0)

    @pytest.mark.parametrize("sensitivity", [
        local_sensitivity,
        lambda tape, i: sublayer_sensitivity(tape, i, "attn"),
        lambda tape, i: sublayer_sensitivity(tape, i, "ffn"),
    ], ids=["block", "attn", "ffn"])
    def test_stacked_weights_rejected(self, sensitivity):
        cfg = cfg_for("peri")
        params = random_model(cfg, RngStream(18))
        b = params[1]
        gamma = np.stack([b.ln["ffn_in"].gamma, 2.0 * b.ln["ffn_in"].gamma])
        params[1] = replace(b, ln={**b.ln, "ffn_in": replace(b.ln["ffn_in"], gamma=gamma)})
        tape = model_forward(np.ones((4, 3)), params, cfg)
        with pytest.raises(mdl.ShapeMismatchError, match=r"one d x n state of one model, got \(2, 4, 3\)"):
            sensitivity(tape, 1)

    def test_stacked_tape_rejected(self):
        cfg = cfg_for("peri")
        params = random_model(cfg, RngStream(18))
        tape = model_forward(RngStream(19).generator().normal(size=(2, 4, 3)), params, cfg)
        with pytest.raises(mdl.ShapeMismatchError, match="one d x n state"):
            local_sensitivity(tape, 0)


class TestGradientProduct:
    def test_single_factor(self):
        cfg = cfg_for("peri", depth=3)
        params = random_model(cfg, RngStream(19))
        X = RngStream(20).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        assert np.array_equal(gradient_product(tape, 2), local_sensitivity(tape, 2))

    @pytest.mark.parametrize("placement", ["off", "pre", "peri", "post"])
    def test_matches_fd_of_composite(self, placement):
        cfg = cfg_for(placement, d=3, n=2, depth=4, dt=0.6)
        params = random_model(cfg, RngStream(21))
        X = RngStream(22).generator().normal(size=(3, 2))
        tape = model_forward(X, params, cfg)

        def composite(v):
            t = model_forward(unvec(v, 3, 2), params, cfg)
            return vec(t.x_final)

        fd = central_diff_jacobian(composite, vec(X))
        assert relative_error(gradient_product(tape, 0), fd) <= 1e-5

    def test_delta_t_contracts_toward_identity(self):
        hits = 0
        for seed in range(20):
            cfg1 = ModelConfig(d=6, n=4, k=4, m=8, heads=1, depth=6, placement="peri", delta_t=1.0)
            cfg01 = replace(cfg1, delta_t=0.1)
            params = random_model(cfg1, RngStream(seed))
            X = RngStream(seed, 9).generator().normal(size=(6, 4))
            j1 = gradient_product(model_forward(X, params, cfg1), 0)
            j01 = gradient_product(model_forward(X, params, cfg01), 0)
            eye = np.eye(24)
            hits += int(np.linalg.norm(j01 - eye) < np.linalg.norm(j1 - eye))
        assert hits == 20


class TestParamGradients:
    def test_zero_upstream_gives_zero(self):
        cfg = cfg_for("peri")
        params = random_model(cfg, RngStream(23))
        tape = model_forward(np.ones((4, 3)), params, cfg)
        grads = param_gradients(tape, np.zeros((4, 3)))
        assert all(np.all(g == 0) for block in grads for g in block.values())

    @pytest.mark.parametrize("placement,ln_kind", placements_and_kinds())
    def test_every_entry_matches_fd(self, placement, ln_kind):
        cfg = cfg_for(placement, d=3, n=2, depth=2, dt=0.8)
        params = random_model(cfg, RngStream(24), ln_kind=ln_kind)
        X = RngStream(25).generator().normal(size=(3, 2))
        C = RngStream(26).generator().normal(size=(3, 2))
        tape = model_forward(X, params, cfg)
        grads = param_gradients(tape, C)
        for bi in range(cfg.depth):
            flat = {k: v.copy() for k, v in params_to_flat(params[bi]).items()}
            for name, arr in flat.items():
                def loss(a):
                    trial = dict(flat)
                    trial[name] = a
                    plist = list(params)
                    plist[bi] = flat_to_params(trial, params[bi])
                    return float((C * model_forward(X, plist, cfg).x_final).sum())

                fd = central_diff_scalar_grad(loss, arr)
                assert relative_error(grads[bi][name], fd) <= 1e-5, (placement, bi, name)
        if ln_kind == "rmsnorm":
            assert not any(name.endswith(".beta") for block in grads for name in block)

    def test_off_placement_is_plain_residual_net(self):
        # freezing all LN sites reproduces a plain residual network gradient
        cfg = cfg_for("off", d=3, n=2, depth=2)
        params = random_model(cfg, RngStream(27))
        assert params[0].ln == {}
        X = RngStream(28).generator().normal(size=(3, 2))
        C = RngStream(29).generator().normal(size=(3, 2))
        tape = model_forward(X, params, cfg)
        grads = param_gradients(tape, C)
        names = set(grads[0])
        assert names == {"attn.q", "attn.k", "attn.v", "attn.w", "ffn.w1", "ffn.w2"}

    def test_consistent_with_gradient_product(self):
        cfg = cfg_for("peri", depth=3)
        params = random_model(cfg, RngStream(30))
        X = RngStream(31).generator().normal(size=(4, 3))
        C = RngStream(32).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        _, gx0 = mdl.backward(tape, C)
        expected = unvec(gradient_product(tape, 0).T @ vec(C), 4, 3)
        assert relative_error(gx0, expected) <= 1e-12


class TestStackedSweep:
    """A stack (B, d, n) runs each state as if alone: its slices of the forward
    tape, the parameter gradients and the input gradient carry the same bits."""

    @settings(max_examples=120)
    @given(
        st.integers(2, 16), st.integers(1, 8), st.integers(1, 3), st.integers(1, 5),
        st.sampled_from(["off", "pre", "peri", "post"]), st.sampled_from(["layernorm", "rmsnorm"]),
        st.sampled_from(["tanh", "relu"]), st.integers(0, 2**16),
    )
    def test_slices_equal_per_state_runs(self, d, n, heads, batch, placement, ln_kind,
                                         activation, seed):
        cfg = ModelConfig(d=d, n=n, k=3, m=5, heads=heads, depth=2, placement=placement,
                          delta_t=0.5, activation=activation)
        params = random_model(cfg, RngStream(seed), ln_kind=ln_kind)
        gen = RngStream(seed, 1).generator()
        X, C = gen.normal(size=(batch, d, n)), gen.normal(size=(batch, d, n))
        tape = model_forward(X, params, cfg)
        grads, gx = backward(tape, C)
        for b in range(batch):
            one = model_forward(X[b], params, cfg)
            one_grads, one_gx = backward(one, C[b])
            assert all(np.array_equal(s[b], t) for s, t in zip(tape.states, one.states))
            assert np.array_equal(gx[b], one_gx)
            for block, one_block in zip(grads, one_grads):
                assert block.keys() == one_block.keys()
                assert all(np.array_equal(block[k][b], one_block[k]) for k in block)

    def test_stacked_upstream_must_match_the_tape(self):
        cfg = cfg_for("peri")
        tape = model_forward(np.ones((2, 4, 3)), random_model(cfg, RngStream(27)), cfg)
        with pytest.raises(mdl.ShapeMismatchError, match=r"expected \(2, 4, 3\)"):
            backward(tape, np.ones((4, 3)))

    def test_upstream_is_shaped_like_the_states(self):
        cfg = cfg_for("peri")
        tape = model_forward(np.ones((4, 3)), random_model(cfg, RngStream(27)), cfg)
        with pytest.raises(mdl.ShapeMismatchError, match=r"expected \(4, 3\)"):
            backward(tape, np.ones(12))

    def test_nonfinite_upstream_raises(self):
        cfg = cfg_for("peri")
        tape = model_forward(np.ones((4, 3)), random_model(cfg, RngStream(27)), cfg)
        upstream = np.ones((4, 3))
        upstream[0, 2] = np.inf
        with pytest.raises(mdl.NonFiniteError, match="upstream gradient is non-finite"):
            backward(tape, upstream)


class TestSimplifiedPreChain:
    def test_zero_weights_constant(self):
        gen = RngStream(33).generator()
        X0 = gen.normal(size=(4, 3))
        res = simplified_pre_chain(X0, [np.zeros((4, 4))] * 3, [np.ones(4)] * 3)
        assert np.array_equal(res.x_final, X0)
        assert np.array_equal(res.factors, np.ones(3))
        assert res.mean_abs <= res.bound_rhs + 1e-15

    def test_cauchy_schwarz_at_depth_zero(self):
        gen = RngStream(34).generator()
        X0 = gen.normal(size=(4, 3))
        res = simplified_pre_chain(X0, [], [])
        assert res.mean_abs <= np.linalg.norm(X0) / np.sqrt(12) + 1e-15
        flat = np.full((4, 3), 2.0)
        res_eq = simplified_pre_chain(flat, [], [])
        assert res_eq.mean_abs == pytest.approx(np.linalg.norm(flat) / np.sqrt(12), abs=1e-15)

    def test_random_chain_margin_nonnegative(self):
        for seed in range(50):
            gen = RngStream(seed, 40).generator()
            d, n, depth = 4, 3, 16
            X0 = gen.normal(size=(d, n))
            ws = [gen.normal(0, 1 / np.sqrt(d), size=(d, d)) for _ in range(depth)]
            gs = [np.abs(gen.normal(1.0, 0.2, size=d)) + 0.1 for _ in range(depth)]
            qs = [gen.normal(0, 0.5, size=(3, d)) for _ in range(depth)]
            ks = [gen.normal(0, 0.5, size=(3, d)) for _ in range(depth)]
            res = simplified_pre_chain(X0, ws, gs, qs, ks)
            assert res.bound_rhs - res.mean_abs >= 0

    def test_spectral_three_growth(self):
        gen = RngStream(35).generator()
        d, n = 4, 3
        X0 = gen.normal(size=(d, n))
        rhs = {}
        for depth in (4, 8, 16):
            ws = []
            for _ in range(depth):
                w = gen.normal(size=(d, d))
                ws.append(w * (3.0 / np.linalg.svd(w, compute_uv=False)[0]))
            res = simplified_pre_chain(X0, ws, [np.ones(d)] * depth)
            rhs[depth] = res.bound_rhs / np.linalg.norm(X0)
        assert rhs[8] / rhs[4] >= 2.0**4 and rhs[16] / rhs[8] >= 2.0**8

    def test_short_gamma_rejected(self):
        # numpy would broadcast a length-1 gamma over all three rows
        X0 = np.arange(1.0, 7.0).reshape(3, 2)
        with pytest.raises(mdl.ShapeMismatchError, match=r"layer 0: .* got \(3, 3\) and \(1,\)"):
            simplified_pre_chain(X0, [np.eye(3)], [np.ones(1)])

    @pytest.mark.parametrize("gammas, qs, ks, match", [
        ([np.ones(3)], None, None, "need one gamma per layer: 1 != 2"),
        ([np.ones(3)] * 2, [np.eye(3)] * 2, None, "attn_q and attn_k must be supplied together"),
        ([np.ones(3)] * 2, [np.eye(3)], [np.eye(3)], "need one query and one key matrix per layer: 1 and 1 != 2"),
        ([np.ones(3)] * 2, [np.eye(3)] * 3, [np.eye(3)] * 2,
         "need one query and one key matrix per layer: 3 and 2 != 2"),
    ], ids=["gamma_count", "q_without_k", "short_qk", "long_q"])
    def test_mismatched_lists_rejected(self, gammas, qs, ks, match):
        X0 = np.arange(1.0, 7.0).reshape(3, 2)
        with pytest.raises(ValueError, match=f"^{match}$"):
            simplified_pre_chain(X0, [np.eye(3)] * 2, gammas, qs, ks)

    @pytest.mark.parametrize("q, k, got", [
        (np.ones((2, 4)), np.ones((2, 3)), r"\(2, 4\) and \(2, 3\)"),
        (np.ones((2, 3)), np.ones((3, 3)), r"\(2, 3\) and \(3, 3\)"),
        (np.ones(3), np.ones(3), r"\(3,\) and \(3,\)"),
    ], ids=["query_width", "key_count", "vector"])
    def test_bad_query_key_shape_rejected(self, q, k, got):
        X0 = np.arange(1.0, 7.0).reshape(3, 2)
        qs, ks = [np.ones((2, 3)), q], [np.ones((2, 3)), k]
        with pytest.raises(mdl.ShapeMismatchError, match=f"^layer 1: query and key must both be \\(k, 3\\), got {got}$"):
            simplified_pre_chain(X0, [np.eye(3)] * 2, [np.ones(3)] * 2, qs, ks)

    def test_query_key_without_rows_rejected(self):
        X0 = np.arange(1.0, 7.0).reshape(3, 2)
        qs, ks = [np.ones((2, 3)), np.ones((0, 3))], [np.ones((2, 3)), np.ones((0, 3))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the 1/sqrt(k) scale divides by zero
            with pytest.raises(mdl.ShapeMismatchError, match=r"^layer 1: query and key .* got \(0, 3\)"):
                simplified_pre_chain(X0, [np.eye(3)] * 2, [np.ones(3)] * 2, qs, ks)

    def test_zero_column_rejected(self):
        X0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateTokenError, match="token index 1") as exc:
            simplified_pre_chain(X0, [np.eye(2)], [np.ones(2)])
        assert (exc.value.block, exc.value.token_index) == (0, 1)


class TestStackedPreChain:
    """A stack of chains gives each chain the bits of the per-chain loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5), st.integers(2, 9), st.integers(1, 8), st.integers(0, 6),
        st.sampled_from([None, 1, 3]), st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]), st.integers(0, 2**16),
    )
    @example(chains=3, d=9, n=1, depth=4, key_dim=3, scale=1.0, seed=0)  # n = 1, d >= 8: pairwise sums
    @example(chains=2, d=8, n=1, depth=3, key_dim=None, scale=1e3, seed=1)
    def test_each_chain_equals_the_oracle(self, chains, d, n, depth, key_dim, scale, seed):
        gen = RngStream(seed, 41).generator()
        X0 = scale * gen.normal(size=(chains, d, n))
        ws = gen.normal(0.0, 1.0 / np.sqrt(d), size=(depth, chains, d, d))
        gs = np.abs(gen.normal(1.0, 0.2, size=(depth, chains, d))) + 0.1
        qk = () if key_dim is None else tuple(gen.normal(0.0, 0.5, size=(2, depth, chains, key_dim, d)))
        res = simplified_pre_chain(X0, ws, gs, *qk)
        assert res.factors.shape == (chains, depth) and len(res.states) == depth + 1
        assert res.mean_abs.shape == res.bound_rhs.shape == (chains,)
        for t in range(chains):
            one = [a[:, t] for a in (ws, gs, *qk)]
            want = scripted_pre_chain(X0[t], *one)
            for got in (res[t], simplified_pre_chain(X0[t], *one)):
                assert all(np.array_equal(a, b) for a, b in zip(got.states, want.states, strict=True))
                assert np.array_equal(got.factors, want.factors)
                assert type(got.mean_abs) is type(got.bound_rhs) is float
                assert (got.mean_abs, got.bound_rhs) == (want.mean_abs, want.bound_rhs)

    def test_two_leading_axes(self):
        gen = RngStream(43).generator()
        X0 = gen.normal(size=(2, 3, 4, 3))
        ws = gen.normal(0.0, 0.5, size=(5, 2, 3, 4, 4))
        gs = np.abs(gen.normal(1.0, 0.2, size=(5, 2, 3, 4))) + 0.1
        res = simplified_pre_chain(X0, ws, gs)
        assert res.factors.shape == (2, 3, 5) and res.mean_abs.shape == (2, 3)
        for ix in np.ndindex(2, 3):
            want = scripted_pre_chain(X0[ix], *(a[(slice(None), *ix)] for a in (ws, gs)))
            assert np.array_equal(res[ix].x_final, want.x_final) and res[ix].bound_rhs == want.bound_rhs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 8), st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**16))
    def test_stacked_svd_is_each_matrix_svd(self, chains, d, scale, seed):
        w = scale * RngStream(seed, 42).generator().normal(size=(chains, d, d))
        stacked = np.linalg.svd(w, compute_uv=False)
        for t in range(chains):
            assert np.array_equal(stacked[t], np.linalg.svd(w[t], compute_uv=False))
            assert stacked[t, 0] == spectral_norm(w[t])

    def test_a_chain_degenerate_anywhere_raises_at_the_first_such_layer(self):
        # chain 0 cancels to zero at layer 1; chain 1 has a zero token at layer 0
        X0 = np.ones((2, 4, 3))
        X0[1, :, 2] = 0.0
        ws = np.stack([-np.eye(4), np.eye(4)])[:, None].repeat(2, axis=1)
        gs = np.ones((2, 2, 4))
        with pytest.raises(DegenerateTokenError, match="token index 0") as first:
            simplified_pre_chain(X0[0], ws[:, 0], gs[:, 0])
        with pytest.raises(DegenerateTokenError, match="token index 2") as stacked:
            simplified_pre_chain(X0, ws, gs)
        assert (first.value.block, stacked.value.block) == (1, 0)

    def test_stacked_shapes_refused(self):
        X0 = np.ones((2, 3, 2))
        with pytest.raises(mdl.ShapeMismatchError, match=r"^layer 0: merged weight must be \(2, 3, 3\)"):
            simplified_pre_chain(X0, [np.eye(3)], [np.ones((2, 3))])
        qs = [np.ones((3, 2, 3))]
        with pytest.raises(mdl.ShapeMismatchError, match=r"^layer 0: query and key must both be \(2, k, 3\), "
                                                         r"got \(3, 2, 3\) and \(3, 2, 3\)$"):
            simplified_pre_chain(X0, [np.eye(3)[None].repeat(2, 0)], [np.ones((2, 3))], qs, qs)
