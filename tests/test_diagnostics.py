from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scripted_pre_chain, scripted_terminal_states, zero_weight_block

from lnlab import diagnostics as diag
from lnlab import model, suites
from lnlab.attention import ActivationKinkError
from lnlab.model import (
    ModelConfig,
    PlacementError,
    Stages,
    model_forward,
    push_forward,
    random_model,
    simplified_pre_chain,
)
from lnlab.normalization import DegenerateTokenError, LNParams
from lnlab.numerics import MAX_OT_SAMPLES, RngStream, ShapeMismatchError, moments, wasserstein_exact


def peri_cfg(depth=8, dt=1.0, **kw):
    base = dict(d=4, n=3, k=3, m=5, heads=1, placement="peri", delta_t=dt, depth=depth)
    base.update(kw)
    return ModelConfig(**base)


class TestLayerMoments:
    def test_zero_weight_model_constant_series(self):
        cfg = peri_cfg(depth=4)
        params = [zero_weight_block(cfg) for _ in range(4)]
        X = RngStream(0).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        series = diag.layer_moments(tape)
        assert len(series) == 5
        assert all(m == series[0] for m in series)

    def test_matches_moments_definitionally(self):
        cfg = peri_cfg(depth=3)
        params = random_model(cfg, RngStream(1))
        tape = model_forward(RngStream(2).generator().normal(size=(4, 3)), params, cfg)
        for state, mo in zip(tape.states, diag.layer_moments(tape)):
            assert mo == moments(state)

    def test_delta_t_shrinks_every_increment(self):
        for seed in range(20):
            cfg1 = peri_cfg(depth=12, dt=1.0, d=6, n=4, k=4, m=8)
            cfg01 = replace(cfg1, delta_t=0.1)
            params = random_model(cfg1, RngStream(seed))
            X = RngStream(seed, 9).generator().normal(size=(6, 4))
            t1 = model_forward(X, params, cfg1)
            t01 = model_forward(X, params, cfg01)
            inc1 = [np.linalg.norm(t1.states[i + 1] - t1.states[i]) for i in range(12)]
            inc01 = [np.linalg.norm(t01.states[i + 1] - t01.states[i]) for i in range(12)]
            assert all(a < b for a, b in zip(inc01, inc1))


class TestGrowthBounds:
    def test_margins_nonnegative_random_models(self):
        reports = suites.run_growth_suite(30, seed=0)
        assert all(r.margin >= -1e-9 for r in reports)

    def test_gamma_zero_collapses_rhs(self):
        cfg = peri_cfg(depth=3, epsilon=1e-5)
        params = random_model(cfg, RngStream(3))
        for b in params:
            for site in ("attn_out", "ffn_out"):
                b.ln[site] = LNParams(np.zeros(4), np.zeros(4), 1e-5, "layernorm")
        X = RngStream(4).generator().normal(size=(4, 3))
        tape = model_forward(X, params, cfg)
        assert np.array_equal(tape.x_final, X)  # output LN emits beta = 0 only
        ma_report = diag.peri_growth_check(X, params, cfg)[0]
        assert ma_report.rhs == pytest.approx(np.linalg.norm(X) / np.sqrt(12), abs=1e-12)
        assert ma_report.margin >= 0

    def test_rmsnorm_beta_enters_no_bound(self):
        # RMSNorm applies no bias, so a beta given to its output sites moves
        # neither the forward pass nor the bound's constants
        cfg = peri_cfg(depth=4)
        X = RngStream(8).generator().normal(size=(4, 3))
        reports, finals = [], []
        for beta in (0.0, 3.0):
            params = random_model(cfg, RngStream(7), ln_kind="rmsnorm")
            for b in params:
                for site in ("attn_out", "ffn_out"):
                    b.ln[site] = LNParams(np.ones(4), np.full(4, beta), cfg.epsilon, "rmsnorm")
            tape = model_forward(X, params, cfg)
            finals.append(tape.x_final)
            reports.append(diag.peri_growth_check(X, params, cfg)[0])
        assert np.array_equal(finals[0], finals[1])
        assert reports[1].beta_max == 0.0
        assert reports[1].rhs == reports[0].rhs

    def test_wrong_placement_rejected(self):
        cfg = peri_cfg()
        pre_cfg = replace(cfg, placement="pre")
        params = random_model(pre_cfg, RngStream(5))
        with pytest.raises(PlacementError):
            diag.peri_growth_check(np.ones((4, 3)), params, pre_cfg)

    def test_params_without_output_sites_rejected(self):
        # the config admits the check, but the pre params have no output-LN site
        cfg = peri_cfg()
        params = random_model(replace(cfg, placement="pre"), RngStream(5))
        with pytest.raises(PlacementError, match="no output-LN sites"):
            diag.peri_growth_check(np.ones((4, 3)), params, cfg)


class TestDatawiseVariance:
    def test_identical_inputs_zero_lhs(self):
        cfg = peri_cfg(depth=4)
        params = random_model(cfg, RngStream(6))
        x0 = RngStream(7).generator().normal(size=(4, 3))
        report = diag.datawise_variance_check([x0.copy() for _ in range(4)], params, cfg, (1, 2))
        assert report.lhs == 0.0
        assert report.margin >= 0

    def test_random_inputs_margin_nonnegative(self):
        cfg = peri_cfg(depth=8)
        params = random_model(cfg, RngStream(8))
        gen = RngStream(9).generator()
        inputs = [gen.normal(size=(4, 3)) for _ in range(64)]
        for entry in ((0, 0), (3, 2), (1, 1)):
            report = diag.datawise_variance_check(inputs, params, cfg, entry)
            assert report.margin >= -1e-9

    def test_delta_t_tightens_rhs(self):
        cfg1 = peri_cfg(depth=8, dt=1.0)
        cfg01 = replace(cfg1, delta_t=0.1)
        params = random_model(cfg1, RngStream(10))
        gen = RngStream(11).generator()
        inputs = [gen.normal(size=(4, 3)) for _ in range(4)]
        r1 = diag.datawise_variance_check(inputs, params, cfg1, (0, 0))
        r01 = diag.datawise_variance_check(inputs, params, cfg01, (0, 0))
        frobs = [np.linalg.norm(x) for x in inputs]
        expected01 = np.mean([(f + 2 * 8 * 0.1 * np.sqrt(12) * (1 + 0)) ** 2 for f in frobs])
        assert r01.rhs == pytest.approx(expected01, rel=1e-12)
        assert r01.rhs < r1.rhs

    @pytest.mark.parametrize("entry", [(-1, -1), (4, 0), (0, 3)], ids=["negative", "row", "column"])
    def test_entry_out_of_range_refused_before_any_pushforward(self, entry, monkeypatch):
        pushed = []
        monkeypatch.setattr(diag, "push_forward", lambda *args: pushed.append(args))
        cfg = peri_cfg(depth=2)
        params = random_model(cfg, RngStream(12))
        inputs = RngStream(13).generator().normal(size=(4, 4, 3))
        with pytest.raises(IndexError, match="entry .* out of range for a 4 x 3 state$"):
            diag.datawise_variance_check(inputs, params, cfg, entry)
        assert pushed == []

    @pytest.mark.parametrize(
        "placement, samples, error, match",
        [
            ("peri", 1, ValueError, "^datawise_variance_check: need at least 2 samples$"),
            ("pre", 4, PlacementError, "needs norm_out and not norm_sum"),
            ("peri_and_sum", 4, PlacementError, "needs norm_out and not norm_sum"),
        ],
        ids=["one-input", "pre", "peri-and-sum"],
    )
    def test_refused_before_any_pushforward(self, placement, samples, error, match, monkeypatch):
        pushed = []
        monkeypatch.setattr(diag, "push_forward", lambda *args: pushed.append(args))
        monkeypatch.setitem(model.STAGES, "peri_and_sum", Stages(True, True, True))
        cfg = peri_cfg(depth=2, placement=placement)
        params = random_model(cfg, RngStream(45))
        inputs = RngStream(46).generator().normal(size=(samples, 4, 3))
        with pytest.raises(error, match=match):
            diag.datawise_variance_check(inputs, params, cfg, (0, 0))
        assert pushed == []


class TestPathwiseStability:
    def test_equal_inputs_zero_lhs(self):
        cfg = peri_cfg(depth=5)
        params = random_model(cfg, RngStream(13))
        x0 = RngStream(14).generator().normal(size=(4, 3))
        report = diag.pathwise_stability_check(x0, x0.copy(), params, cfg)
        assert report.lhs == 0.0

    def test_random_pairs_margin_nonnegative(self):
        reports = suites.run_pathwise_suite(40, seed=1)
        assert all(r.margin >= -1e-9 for r in reports)

    def test_gamma_zero_exact_translation(self):
        cfg = peri_cfg(depth=4, epsilon=1e-5)
        params = random_model(cfg, RngStream(15))
        for b in params:
            for site in ("attn_out", "ffn_out"):
                b.ln[site] = LNParams(np.zeros(4), b.ln[site].beta, 1e-5, "layernorm")
        gen = RngStream(16).generator()
        x0a, x0b = gen.normal(size=(4, 3)), gen.normal(size=(4, 3))
        report = diag.pathwise_stability_check(x0a, x0b, params, cfg)
        assert report.lhs == pytest.approx(np.linalg.norm(x0a - x0b), abs=1e-12)


class TestWassersteinStability:
    def test_equal_clouds_zero_lhs(self):
        cfg = peri_cfg(depth=3)
        params = random_model(cfg, RngStream(17))
        mu0 = RngStream(18).generator().normal(size=(6, 4, 3))
        report = diag.wasserstein_stability_check(mu0, mu0.copy(), params, cfg)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.margin >= 0

    def test_random_clouds_margin_nonnegative(self):
        reports = suites.run_wasserstein_suite(8, seed=2, n_samples=16)
        assert all(r.margin >= -1e-9 for r in reports)

    def test_single_points_reduce_to_pathwise(self):
        cfg = peri_cfg(depth=4)
        params = random_model(cfg, RngStream(19))
        gen = RngStream(20).generator()
        a, b = gen.normal(size=(4, 3)), gen.normal(size=(4, 3))
        wrep = diag.wasserstein_stability_check(a[None], b[None], params, cfg, p=2.0)
        prep = diag.pathwise_stability_check(a, b, params, cfg)
        assert wrep.lhs == pytest.approx(prep.lhs, rel=1e-12)
        assert wrep.rhs == pytest.approx(np.sqrt(2.0) * prep.rhs, rel=1e-12)

    def test_lhs_softly_monotone_in_delta_t(self):
        # reflects the dt-scaled bound; exact monotonicity is not claimed
        hits = 0
        total = 50
        for seed in range(total):
            cfg1 = peri_cfg(depth=6)
            params = random_model(cfg1, RngStream(seed, 30))
            gen = RngStream(seed, 31).generator()
            mu0 = gen.normal(size=(8, 4, 3))
            nu0 = gen.normal(size=(8, 4, 3)) + 0.3
            lhs = []
            for dt in (1.0, 0.5, 0.1):
                cfg = replace(cfg1, delta_t=dt)
                lhs.append(diag.wasserstein_stability_check(mu0, nu0, params, cfg).lhs)
            hits += int(lhs[0] >= lhs[1] >= lhs[2])
        assert hits >= 0.9 * total


def _growth_rows_from_oracle(x0, inputs, params, cfg, entry, seed=0):
    """The entry-moment and data-wise rows as the checks compute them, with
    each input pushed forward on its own."""
    gmax, bmax = diag.output_ln_extrema(params)
    scale = 2.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * (gmax + bmax)
    (x_d,) = scripted_terminal_states([x0], params, cfg)
    terminal = moments(x_d)
    x0_frob = float(np.linalg.norm(x0))
    ma_rhs = x0_frob / np.sqrt(cfg.nd) + 2.0 * cfg.depth * cfg.delta_t * (gmax + bmax)
    var_rhs = (x0_frob + scale) ** 2 / (cfg.nd - 1)
    values = [x[entry] for x in scripted_terminal_states(inputs, params, cfg)]
    rhs_terms = [(float(np.linalg.norm(x0)) + scale) ** 2 for x0 in inputs]
    row = diag.BoundReport.for_model
    return [
        row("peri_ma_growth", cfg, gmax, bmax, terminal.mean_abs, ma_rhs, seed),
        row("peri_var_growth", cfg, gmax, bmax, terminal.var, var_rhs, seed),
        row("datawise_variance", cfg, gmax, bmax, np.var(values, ddof=1), np.mean(rhs_terms), seed),
    ]


def _rows_from_oracle(x0, inputs, mu0, nu0, params, cfg, entry):
    """``_growth_rows_from_oracle``'s rows, then the pathwise and W_2 rows,
    with each input pushed forward on its own."""
    gmax, bmax = diag.output_ln_extrema(params)
    xa, xb = scripted_terminal_states(inputs[:2], params, cfg)
    path_rhs = (
        np.linalg.norm(inputs[0] - inputs[1])
        + 4.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * gmax
    )
    mu_d = np.stack(scripted_terminal_states(mu0, params, cfg))
    nu_d = np.stack(scripted_terminal_states(nu0, params, cfg))
    w_rhs = 2.0 ** ((2.0 - 1.0) / 2.0) * (
        diag.c_hat(2.0, cfg.nd) * wasserstein_exact(mu0, nu0, 2.0)
        + 4.0 * cfg.depth * cfg.delta_t * np.sqrt(cfg.nd) * gmax
    )
    row = diag.BoundReport.for_model
    return [
        *_growth_rows_from_oracle(x0, inputs, params, cfg, entry),
        row("pathwise_stability", cfg, gmax, bmax, np.linalg.norm(xa - xb), path_rhs, 0),
        row("wasserstein_w2", cfg, gmax, bmax, wasserstein_exact(mu_d, nu_d, 2.0), w_rhs, 0),
    ]


class TestOutputLnExtrema:
    def test_stacked_parameters_rejected(self):
        cfg = ModelConfig(d=4, n=3, k=2, m=4, depth=2)
        params = random_model(cfg, RngStream(20))
        b = params[1]
        p = b.ln["ffn_out"]
        params[1] = replace(b, ln={**b.ln, "ffn_out": LNParams(np.stack([p.gamma, 3.0 * p.gamma]),
                                                               p.beta, p.epsilon, p.kind)})
        with pytest.raises(ShapeMismatchError, match="output-LN site ffn_out holds stacked"):
            diag.output_ln_extrema(params)


class TestOneStackedPushforward:
    """Each check pushes its sample set through one stacked forward pass; its
    rows equal, field by field, the rows of one forward pass per input."""

    @settings(max_examples=80)
    @given(
        st.integers(2, 8), st.integers(1, 6), st.integers(1, 2), st.integers(1, 4),
        st.integers(2, 12), st.sampled_from(["layernorm", "rmsnorm"]),
        st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**16),
    )
    @example(d=4, n=3, heads=1, depth=2, samples=256, ln_kind="layernorm", dt=1.0, seed=0)
    def test_rows_equal_per_input_pushforwards(self, d, n, heads, depth, samples, ln_kind, dt, seed):
        cfg = ModelConfig(d=d, n=n, k=3, m=5, heads=heads, depth=depth, placement="peri",
                          delta_t=dt)
        params = random_model(cfg, RngStream(seed), ln_kind=ln_kind)
        gen = RngStream(seed, 1).generator()
        inputs, mu0, nu0 = gen.normal(size=(3, samples, d, n))
        entry = (int(gen.integers(d)), int(gen.integers(n)))
        x0 = gen.normal(size=(d, n))
        rows = [
            *diag.peri_growth_check(x0, params, cfg),
            diag.datawise_variance_check(inputs, params, cfg, entry),
            diag.pathwise_stability_check(inputs[0], inputs[1], params, cfg),
            diag.wasserstein_stability_check(mu0, nu0, params, cfg),
        ]
        want = _rows_from_oracle(x0, inputs, mu0, nu0, params, cfg, entry)
        assert [vars(r) for r in rows] == [vars(r) for r in want]

    def test_bad_sample_set_or_p_refused_before_any_pushforward(self, monkeypatch):
        pushed = []
        monkeypatch.setattr(diag, "push_forward",
                            lambda *args: pushed.append(args) or push_forward(*args))
        cfg = peri_cfg(depth=2)
        params = random_model(cfg, RngStream(44))
        mu0 = np.zeros((MAX_OT_SAMPLES + 1, 4, 3))
        with pytest.raises(ValueError, match=f"N={MAX_OT_SAMPLES + 1} exceeds the cap"):
            diag.wasserstein_stability_check(mu0, mu0 + 1.0, params, cfg)
        with pytest.raises(ValueError, match="p must be >= 1"):
            diag.wasserstein_stability_check(mu0[:2], mu0[:2] + 1.0, params, cfg, p=0.5)
        assert pushed == []
        diag.wasserstein_stability_check(mu0[:2], mu0[:2] + 1.0, params, cfg)
        assert len(pushed) == 2

    def test_growth_suite_pushes_each_delta_t_group_once(self, monkeypatch):
        pushed = []
        population = model._push_population
        monkeypatch.setattr(model, "_push_population",
                            lambda *args: pushed.append(args) or population(*args))
        monkeypatch.setattr(diag, "push_forward", lambda *args: pytest.fail("a model pushed alone"))
        rows = suites.run_growth_suite(8, seed=5)
        assert len(pushed) == 2  # instances 0-3 at dt = 1, 4-7 at dt = 0.1
        # the 4 members deepest first, each pushing x0 and its 8 inputs
        assert all(args[0].shape == (4, 9, 6, 4) and args[2] == [64, 32, 16, 8] for args in pushed)
        want = []
        for i in range(8):
            gen, cfg, params = suites._peri_instance(5, 0, i, (8, 16, 32, 64), (1.0, 0.1))
            x0 = gen.normal(size=(cfg.d, cfg.n))
            inputs = gen.normal(size=(8, cfg.d, cfg.n))
            entry = (int(gen.integers(cfg.d)), int(gen.integers(cfg.n)))
            want += _growth_rows_from_oracle(x0, inputs, params, cfg, entry, seed=i)
        assert [vars(r) for r in rows] == [vars(r) for r in want]


def _suite_rows_alone(suite, indices, seed, depths, delta_ts):
    """A peri-model suite's rows of the instances ``indices``, one model and one check each."""
    rows = []
    for i in indices:
        gen, cfg, params = suites._peri_instance(seed, suite, i, depths, delta_ts)
        x0 = gen.normal(size=(cfg.d, cfg.n))
        if suite == 0:
            inputs = gen.normal(size=(8, cfg.d, cfg.n))
            entry = (int(gen.integers(cfg.d)), int(gen.integers(cfg.n)))
            rows += diag.peri_growth_check(x0, params, cfg, seed=i)
            rows.append(diag.datawise_variance_check(inputs, params, cfg, entry, seed=i))
        else:
            rows.append(diag.pathwise_stability_check(x0, gen.normal(size=(cfg.d, cfg.n)), params, cfg, seed=i))
    return rows


class TestPopulation:
    """The growth and pathwise suites push each delta_t group's models as one
    population; every row equals the row of the model pushed alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 16), min_size=1, max_size=5).map(tuple),
        st.lists(st.sampled_from([1.0, 0.5, 0.1]), min_size=1, max_size=4).map(tuple),
        st.integers(0, 2**16),
    )
    @example(instances=12, depths=(3, 16, 3, 1), delta_ts=(0.5, 1.0, 0.5), seed=0)
    def test_rows_equal_the_per_instance_checks(self, instances, depths, delta_ts, seed):
        with pytest.MonkeyPatch.context() as mp:  # no replay: the population gives every row
            mp.setattr(suites, "map_indexed", lambda *args: pytest.fail("replayed"))
            got = [suites._peri_suite((suite,), instances, seed, (depths,), delta_ts) for suite in (0, 1)]
        for suite, rows in enumerate(got):
            want = _suite_rows_alone(suite, range(instances), seed, depths, delta_ts)
            assert [vars(r) for r in rows] == [vars(r) for r in want]
            assert repr(rows) == repr(want)
        assert got[0] == suites.run_growth_suite(instances, seed, depths, delta_ts)

    def test_each_member_slice_is_its_random_model_tensors(self):
        cfg = peri_cfg(depth=3, heads=2)
        streams = [RngStream(9, 2).child(i).child(2) for i in range(4)]
        models = [random_model(cfg, stream) for stream in streams]
        gen = RngStream(0).generator()
        for j in range(cfg.depth):
            stacked = model.params_to_flat(model._random_blocks(cfg, [s.child(j) for s in streams], gen))
            for t, params in enumerate(models):
                for name, tensor in model.params_to_flat(params[j]).items():
                    assert stacked[name].shape == (4, 1, *tensor.shape)
                    assert np.array_equal(stacked[name][t, 0], tensor)

    def test_members_keep_their_own_states_and_extrema(self):
        depths = (5, 3, 3, 1)
        cfgs = [peri_cfg(depth=depth, dt=0.5) for depth in depths]
        gen = RngStream(50).generator()
        models = [  # each member with its own LN gains and biases
            [replace(b, ln={site: LNParams(gen.normal(1.0, 0.5, size=4), gen.normal(0.0, 0.5, size=4))
                            for site in b.ln})
             for b in random_model(cfg, RngStream(51, t))]
            for t, cfg in enumerate(cfgs)
        ]
        stacks = gen.normal(size=(4, 3, 4, 3))

        def blocks(j, live):
            flats = [model.params_to_flat(params[j]) for params in models[:live]]
            return model.flat_to_params({k: np.stack([f[k] for f in flats])[:, None] for k in flats[0]},
                                        models[0][j])

        pushed, gmax, bmax = diag._population(stacks, cfgs, blocks, "population")
        for t, (cfg, params) in enumerate(zip(cfgs, models)):
            assert np.array_equal(pushed[t], push_forward(stacks[t], params, cfg))
            assert (gmax[t], bmax[t]) == diag.output_ln_extrema(params)
        assert len(set(gmax)) == 4 and len(set(bmax)) == 4

    @pytest.mark.parametrize("suite, depths", [(0, (8, 16, 32, 64)), (1, (8, 16, 32))])
    def test_a_failing_suite_raises_the_first_instance_error(self, suite, depths, monkeypatch):
        # instance 0 (depth 8) goes non-finite at block 5, instance 1 (depth
        # 16) at block 2: the population, deepest first, meets block 2 first
        seed = 3
        poisoned = {RngStream(seed, suite).child(0).child(2).child(5),
                    RngStream(seed, suite).child(1).child(2).child(2)}
        draw = model._draw_rows

        def poison(cfg, streams, gen, *args):
            rows = draw(cfg, streams, gen, *args)
            rows[[stream in poisoned for stream in streams]] = np.nan
            return rows

        monkeypatch.setattr(model, "_draw_rows", poison)
        alone = []
        for i in (0, 1):
            with pytest.raises(model.DivergenceError) as exc:
                _suite_rows_alone(suite, [i], seed, depths, (1.0, 0.1))
            alone.append(exc.value)
        assert [e.block for e in alone] == [5, 2]
        replays = []
        map_indexed = suites.map_indexed
        monkeypatch.setattr(suites, "map_indexed", lambda fn, n: replays.append(n) or map_indexed(fn, n))
        with pytest.raises(model.DivergenceError) as exc:
            suites._peri_suite((suite,), 4, seed, (depths,), (1.0, 0.1))
        assert replays == [4]
        got, want = exc.value, alone[0]
        assert (type(got), got.block, getattr(got, "site", None), str(got)) == (
            type(want), want.block, getattr(want, "site", None), str(want))


def _poison_draws(monkeypatch, poisoned):
    """Every block whose stream is in ``poisoned`` draws NaN weights."""
    draw = model._draw_rows

    def poison(cfg, streams, gen, *args):
        rows = draw(cfg, streams, gen, *args)
        rows[[stream in poisoned for stream in streams]] = np.nan
        return rows

    monkeypatch.setattr(model, "_draw_rows", poison)


class TestSharedPopulation:
    """The bounds command's one call of both peri suites pushes each delta_t's growth and
    pathwise models as one population; its rows are the one-suite calls' rows, in order."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 16), min_size=1, max_size=5).map(tuple),
        st.lists(st.integers(1, 16), min_size=1, max_size=5).map(tuple),
        st.lists(st.sampled_from([1.0, 0.5, 0.1]), min_size=1, max_size=4).map(tuple),
        st.integers(0, 2**16),
    )
    @example(instances=12, growth=(3, 16, 3, 1), pathwise=(16, 2, 16), delta_ts=(0.5, 1.0, 0.5), seed=0)
    def test_rows_equal_the_one_suite_calls(self, instances, growth, pathwise, delta_ts, seed):
        pushed, population = [], model._push_population
        with pytest.MonkeyPatch.context() as mp:  # no replay: the population gives every row
            mp.setattr(suites, "map_indexed", lambda *args: pytest.fail("replayed"))
            mp.setattr(model, "_push_population", lambda *args: pushed.append(args) or population(*args))
            got = suites._peri_suite((0, 1), instances, seed, (growth, pathwise), delta_ts)
        cfgs = [suites._peri_config(i, depths, delta_ts) for depths in (growth, pathwise) for i in range(instances)]
        groups = [sorted((c.depth for c in cfgs if c.delta_t == dt), reverse=True)
                  for dt in dict.fromkeys(c.delta_t for c in cfgs)]  # one population per delta_t, 9 states wide
        assert [(args[0].shape[:2], args[2]) for args in pushed] == [((len(g), 9), g) for g in groups]
        want = [*_suite_rows_alone(0, range(instances), seed, growth, delta_ts),
                *_suite_rows_alone(1, range(instances), seed, pathwise, delta_ts)]
        assert [vars(r) for r in got] == [vars(r) for r in want]
        assert got == suites._peri_suite((0,), instances, seed, (growth,), delta_ts) + suites._peri_suite(
            (1,), instances, seed, (pathwise,), delta_ts)

    @pytest.mark.parametrize("failing", [0, 1], ids=["growth", "pathwise"])
    def test_the_failing_suite_raises_its_first_instance_error(self, failing, monkeypatch):
        # instance 2 of one suite goes non-finite at block 3, instance 3 at block 1; every
        # instance of the other suite passes
        seed, depths, delta_ts = 3, ((8, 16, 32, 64), (8, 16, 32)), (1.0, 0.1)
        _poison_draws(monkeypatch, {RngStream(seed, failing).child(2).child(2).child(3),
                                    RngStream(seed, failing).child(3).child(2).child(1)})
        _suite_rows_alone(1 - failing, range(4), seed, depths[1 - failing], delta_ts)
        with pytest.raises(model.DivergenceError) as alone:
            _suite_rows_alone(failing, range(4), seed, depths[failing], delta_ts)
        assert alone.value.block == 3
        replays = []
        map_indexed = suites.map_indexed
        monkeypatch.setattr(suites, "map_indexed", lambda fn, n: replays.append(n) or map_indexed(fn, n))
        with pytest.raises(model.DivergenceError) as exc:
            suites._peri_suite((0, 1), 4, seed, depths, delta_ts)
        assert replays == [8]  # growth's 4 instances, then pathwise's
        got, want = exc.value, alone.value
        assert (type(got), got.block, getattr(got, "site", None), str(got)) == (
            type(want), want.block, getattr(want, "site", None), str(want))


class TestPlacementIsData:
    """The checks admit a model by its stage row, not by its placement name."""

    def _output_ln_checks(self, cfg, params):
        gen = RngStream(41).generator()
        x0 = gen.normal(size=(4, 3))
        inputs = [gen.normal(size=(4, 3)) for _ in range(4)]
        mu0, nu0 = gen.normal(size=(2, 5, 4, 3))
        return [
            *diag.peri_growth_check(x0, params, cfg),
            diag.datawise_variance_check(inputs, params, cfg, (1, 2)),
            diag.pathwise_stability_check(inputs[0], inputs[1], params, cfg),
            diag.wasserstein_stability_check(mu0, nu0, params, cfg),
        ]

    def test_a_new_row_is_admitted_or_refused_by_its_stages(self, monkeypatch):
        monkeypatch.setitem(model.STAGES, "peri_copy", Stages(True, True, False))
        monkeypatch.setitem(model.STAGES, "peri_and_sum", Stages(True, True, True))
        monkeypatch.setitem(model.STAGES, "out_only", Stages(False, True, False))
        peri = peri_cfg(depth=4, activation="relu")
        copy = replace(peri, placement="peri_copy")
        params = random_model(peri, RngStream(40))

        for a, b in zip(self._output_ln_checks(peri, params), self._output_ln_checks(copy, params)):
            assert (a.check, a.lhs, a.rhs) == (b.check, b.lhs, b.rhs)
            assert b.placement == "peri_copy"
        x = RngStream(42).generator().normal(size=(4, 3))
        for sub in ("attn", "ffn"):
            a, b = (diag.rescale_invariance_test(params, c, x, (10.0, 10.0), sub) for c in (peri, copy))
            assert a.max_abs_dev == b.max_abs_dev
            assert np.isnan(a.scale_ratio) and np.isnan(b.scale_ratio)  # the invariance branch

        both = replace(peri, placement="peri_and_sum")
        for check in (
            lambda: diag.peri_growth_check(x, params, both),
            lambda: diag.datawise_variance_check([x, 2 * x], params, both, (0, 0)),
            lambda: diag.pathwise_stability_check(x, 2 * x, params, both),
            lambda: diag.wasserstein_stability_check(x[None], x[None], params, both),
        ):
            with pytest.raises(PlacementError, match="needs norm_out and not norm_sum"):
                check()
        out_only = replace(peri, placement="out_only")
        out_params = random_model(out_only, RngStream(43))
        with pytest.raises(PlacementError, match="needs norm_in and not norm_sum"):
            diag.rescale_invariance_test(out_params, out_only, x, (10.0, 10.0), "attn")


class TestCHat:
    def test_p2_is_one(self):
        # the exponent |1/2 - 1/2| is 0.0, so nd ** 0.0 is exactly 1.0 at any nd
        for nd in (1, 2, 12, 64, 4096):
            assert diag.c_hat(2.0, nd) == 1.0

    def test_norm_equivalence_exponent(self):
        assert diag.c_hat(1.0, 16) == pytest.approx(4.0)
        assert diag.c_hat(4.0, 16) == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [0.5, float("nan"), float("inf"), float("-inf")])
    def test_invalid_p(self, p):
        with pytest.raises(ValueError, match="p must"):
            diag.c_hat(p, 4)


class TestRescaleInvariance:
    def test_unit_scales_are_exact_noop(self):
        cfg = peri_cfg(epsilon=0.0, activation="relu")
        params = random_model(cfg, RngStream(21))
        x = RngStream(22).generator().normal(size=(4, 3))
        for sub in ("attn", "ffn"):
            res = diag.rescale_invariance_test(params, cfg, x, (1.0, 1.0), sub)
            assert res.max_abs_dev == 0.0

    def test_peri_suite_tolerances(self):
        exact = suites.run_rescale_suite(10, seed=3, epsilon=0.0)
        assert exact.worst_attn_dev <= 1e-10
        assert exact.worst_ffn_dev <= 1e-10
        smoothed = suites.run_rescale_suite(10, seed=3, epsilon=1e-5)
        assert smoothed.worst_attn_dev <= 1e-6
        assert smoothed.worst_ffn_dev <= 1e-6

    def test_pre_ratio_is_product_of_scales(self):
        exact = suites.run_rescale_suite(10, seed=4, epsilon=0.0)
        assert exact.worst_pre_ratio_err <= 1e-8

    def test_forwards_block_zero_only(self, monkeypatch):
        cfg = peri_cfg(depth=2, epsilon=0.0, activation="relu")
        params = random_model(cfg, RngStream(21))
        x = RngStream(22).generator().normal(size=(4, 3))
        ran = []
        block_forward = model.block_forward

        def counted(X, b, cfg, index):
            ran.append(index)
            return block_forward(X, b, cfg, index=index)

        monkeypatch.setattr(model, "block_forward", counted)
        diag.rescale_invariance_test(params, cfg, x, (10.0, 10.0), "attn")
        assert ran == [0, 0]

    def test_unknown_sublayer_rejected(self):
        cfg = peri_cfg(depth=2)
        params = random_model(cfg, RngStream(21))
        with pytest.raises(ValueError, match="^unknown sublayer 'mlp'; expected 'attn' or 'ffn'$"):
            diag.rescale_invariance_test(params, cfg, np.ones((4, 3)), (10.0, 10.0), "mlp")

    def test_relu_sign_flip_rejected(self):
        cfg = peri_cfg(epsilon=0.0, activation="relu")
        params = random_model(cfg, RngStream(0))
        x = RngStream(1000).generator().normal(size=(4, 3))
        with pytest.raises(ActivationKinkError, match="tanh"):
            diag.rescale_invariance_test(params, cfg, x, (-1.0, 1.0), "ffn")

    def test_post_placement_rejected(self):
        cfg = peri_cfg()
        post_cfg = replace(cfg, placement="post")
        params = random_model(post_cfg, RngStream(25))
        with pytest.raises(PlacementError):
            diag.rescale_invariance_test(params, post_cfg, np.ones((4, 3)), (10.0, 10.0), "attn")


class TestPreExponentialAndWitness:
    def test_chain_suite_margins(self):
        reports = suites.run_chain_suite(25, seed=5)
        assert all(r.margin >= 0 for r in reports)
        assert all(r.check == "pre_exponential" for r in reports)

    def test_chain_suite_rows_equal_the_per_chain_oracle(self):
        rows = suites.run_chain_suite(6, seed=11, depth=5)
        for i, row in enumerate(rows):
            gen = RngStream(11, 3).child(i).generator()
            d, n, k = ModelConfig().d, ModelConfig().n, ModelConfig().k
            x0 = gen.normal(size=(d, n))
            draws = [[gen.normal(*args) for _ in range(5)] for args in (
                (0.0, 1.0 / np.sqrt(d), (d, d)), (1.0, 0.2, d), (0.0, 1.0 / np.sqrt(d), (k, d)),
                (0.0, 1.0 / np.sqrt(d), (k, d)))]
            draws[1] = [np.abs(g) + 0.1 for g in draws[1]]
            chain = scripted_pre_chain(x0, *draws)
            assert repr(row) == repr(diag.pre_exponential_bound(chain, seed=i))

    def test_chain_suite_raises_the_first_instance_error(self, monkeypatch):
        # instance 0 cancels to zero at layer 1 (gamma 1 at epsilon 0, W_0 = -I, uniform
        # attention); instance 1, later, has a zero token at layer 0
        cfg = ModelConfig()
        d, n, k, depth = cfg.d, cfg.n, cfg.k, 3

        def draws(i):
            x0 = np.ones((d, n))
            if i == 1:
                x0[:, 2] = 0.0
            ws = [-np.eye(d)] + [np.eye(d)] * (depth - 1)
            return iter([x0, *ws, *[np.full(d, 0.9)] * depth, *[np.zeros((k, d))] * (2 * depth)])

        class Scripted:  # instance i's generator hands out draws(i) in the suite's order
            def __init__(self, *args, i=None):
                self.i = i

            def child(self, i):
                return Scripted(i=i)

            def generator(self):
                it = draws(self.i)
                return SimpleNamespace(normal=lambda *args, size: next(it))

        monkeypatch.setattr(suites, "RngStream", Scripted)
        instance = [list(draws(i)) for i in (0, 1)]
        alone = []
        for x0, *layers in instance:
            ws, gs, qs, ks = (layers[j * depth:(j + 1) * depth] for j in range(4))
            with pytest.raises(DegenerateTokenError) as exc:
                simplified_pre_chain(x0, ws, [np.abs(g) + 0.1 for g in gs], qs, ks)
            alone.append(exc.value)
        assert [e.block for e in alone] == [1, 0]
        with pytest.raises(DegenerateTokenError) as exc:
            suites.run_chain_suite(4, seed=0, depth=depth)
        got, want = exc.value, alone[0]
        assert (type(got), got.block, got.site, got.token_index, str(got)) == (
            type(want), want.block, want.site, want.token_index, str(want))

    def test_witness_ratios(self):
        outcomes = suites.divergence_witness(20)
        assert all(o.bound_margin >= 0 for o in outcomes)
        assert sum(o.ratio >= 10.0 for o in outcomes) >= 18


class TestDroBound:
    def test_zero_lipschitz(self):
        assert diag.dro_bound(1.7, 0.0, 5.0, 4, 1.0, 12, 0.3) == 1.7

    def test_zero_radius_zero_gamma(self):
        assert diag.dro_bound(2.5, 3.0, 0.0, 6, 0.5, 8, 0.0) == 2.5

    def test_hand_value(self):
        # 1 + 2 * (sqrt(12) * 0.5 + 4 * 4 * 1 * sqrt(12) * 0.25) = 1 + 9 sqrt(12),
        # evaluated by hand; C(1) = sqrt(nd) multiplies the radius
        got = diag.dro_bound(1.0, 2.0, 0.5, 4, 1.0, 12, 0.25)
        assert got == pytest.approx(32.17691453623979, rel=1e-15)

    @pytest.mark.parametrize("lipschitz", [-2.0, float("nan")])
    def test_negative_inputs_rejected(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz must be >= 0"):
            diag.dro_bound(1.0, lipschitz, 0.5, 4, 1.0, 12, 0.25)
