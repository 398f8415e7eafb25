import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import scripted_loss_and_grad, scripted_sample, scripted_train_run

from lnlab import cli, training
from lnlab.attention import ActivationKinkError
from lnlab.model import (
    PLACEMENTS,
    ModelConfig,
    PlacementError,
    flat_to_params,
    model_forward,
    params_to_flat,
    push_forward,
    random_model,
)
from lnlab.normalization import DegenerateTokenError
from lnlab.numerics import RngStream
from lnlab.training import (
    MEAN_REGRESSION,
    NOISY_COPY,
    TrainConfig,
    TrialOutcome,
    make_task,
    stability_trial,
    train_run,
)


def small_cfg(placement="peri", depth=3):
    return ModelConfig(d=4, n=3, k=3, m=5, heads=1, depth=depth, placement=placement, delta_t=1.0)


# the degenerate-LN repro: relu, eps = 0, peri, seed 0 stops at step 2, block 6, ffn_out
DEGENERATE_LN_REPRO = TrainConfig(
    cfg=ModelConfig(d=4, n=3, k=3, m=8, heads=1, depth=8, placement="peri",
                    activation="relu", epsilon=0.0),
    steps=20, lr=0.009, momentum=0.9, batch_size=2,
)


def aggressive_tc():
    """The training run of ``configs/aggressive.json`` (dt = 1), as the CLI builds it."""
    return cli.train_config(cli.load_config(
        str(Path(__file__).parents[1] / "configs" / "aggressive.json")))


def small_tc(**kw):
    base = dict(cfg=small_cfg(), task=MEAN_REGRESSION, steps=5, lr=0.01,
                momentum=0.9, batch_size=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestMakeTask:
    def test_batches_replay_identically(self):
        tc = small_tc(task=MEAN_REGRESSION)
        t1 = make_task(tc, RngStream(3, 1))
        t2 = make_task(tc, RngStream(3, 1))
        for step in (0, 1, 7):
            (xa, ya), (xb, yb) = t1.sample(step, 0), t2.sample(step, 0)
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_zero_noise_copy_closed_form(self):
        # identity readout and a zero-depth pass-through: the loss is exactly 0
        task = make_task(small_tc(task=NOISY_COPY, noise_std=0.0), RngStream(4, 1))
        x0, y = task.sample(0, 0)
        loss, grad = task.loss_and_grad(x0, y)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((4, 3)))

    def test_noisy_copy_loss_matches_noise_level(self):
        noise = 0.25
        task = make_task(small_tc(task=NOISY_COPY, noise_std=noise), RngStream(5, 1))
        losses = []
        for step in range(500):
            x0, y = task.sample(step, 0)
            loss, _ = task.loss_and_grad(x0, y)
            losses.append(loss)
        # loss = |noise|^2 / d, so the mean estimates noise_std^2
        assert np.mean(losses) == pytest.approx(noise**2, rel=0.2)

    def test_input_entry_mean_near_zero(self):
        task = make_task(small_tc(task=MEAN_REGRESSION), RngStream(6, 1))
        total = 0.0
        count = 0
        for step in range(850):
            x0, _ = task.sample(step, 0)
            total += x0.sum()
            count += x0.size
        assert abs(total / count) <= 0.05

    def test_gradient_matches_fd(self):
        for kind in (MEAN_REGRESSION, NOISY_COPY):
            task = make_task(small_tc(task=kind), RngStream(7, 1))
            x0, y = task.sample(0, 0)
            _, grad = task.loss_and_grad(x0, y)
            h = 1e-6
            fd = np.zeros_like(x0)
            for idx in np.ndindex(*x0.shape):
                xp = x0.copy(); xp[idx] += h
                xm = x0.copy(); xm[idx] -= h
                fd[idx] = (task.loss_and_grad(xp, y)[0] - task.loss_and_grad(xm, y)[0]) / (2 * h)
            assert np.abs(grad - fd).max() <= 1e-8


class TestTaskOracle:
    """The task's draws, losses and gradients, bit for bit those of numpy's
    ``mean``/``tile`` forms."""

    @settings(max_examples=150)
    @given(task=st.sampled_from([MEAN_REGRESSION, NOISY_COPY]), d=st.integers(1, 6),
           n=st.integers(1, 5), seed=st.integers(0, 2**16), step=st.integers(0, 50),
           index=st.integers(0, 3), dataset_size=st.sampled_from([None, 1, 7]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_draw_loss_and_gradient_equal_oracle(self, task, d, n, seed, step, index,
                                                dataset_size, scale):
        tc = small_tc(cfg=ModelConfig(d=d, n=n), task=task, dataset_size=dataset_size)
        t = make_task(tc, RngStream(seed, 1))
        (x0, y), (x0_ref, y_ref) = t.sample(step, index), scripted_sample(t, step, index)
        assert np.array_equal(x0, x0_ref) and np.array_equal(y, y_ref)
        # a terminal state off the input, as the model leaves it
        x_final = scale * np.tanh(x0 + 0.5) - x0
        (loss, grad), (loss_ref, grad_ref) = t.loss_and_grad(x_final, y), scripted_loss_and_grad(t, x_final, y)
        assert np.array_equal(loss, loss_ref) and np.array_equal(grad, grad_ref)
        assert grad.flags.writeable and grad.shape == (d, n)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("steps", -1), ("steps", float("nan")), ("batch_size", 0), ("batch_size", float("nan")),
        ("checkpoint_every", 0), ("checkpoint_every", float("nan")),
        ("dataset_size", 0), ("dataset_size", float("nan")),
        ("lr", -0.1), ("lr", float("nan")),
        ("weight_decay", -0.3), ("weight_decay", float("nan")),
        ("momentum", -0.5), ("momentum", 1.0), ("momentum", float("nan")),
        ("noise_std", -0.1), ("noise_std", float("nan")),
        ("divergence_threshold", -1.0), ("divergence_threshold", 0.0),
        ("divergence_threshold", float("nan")),
    ])
    def test_out_of_range_field_raises(self, field, value):
        # anchored, so the check that fired is the one naming this field
        with pytest.raises(ValueError, match=rf"^{field} must .*, got {value}$"):
            small_tc(**{field: value})


class TestTrainRun:
    def test_lr_zero_keeps_loss_constant(self):
        # fixed one-batch dataset: frozen parameters mean a frozen loss
        out = train_run(small_tc(lr=0.0, steps=6, dataset_size=1))
        assert not out.diverged
        assert len(set(out.loss_curve)) == 1

    def test_lr_zero_leaves_outcome_deterministic_online(self):
        a = train_run(small_tc(lr=0.0, steps=6))
        b = train_run(small_tc(lr=0.0, steps=6))
        assert a == b and not a.diverged

    def test_decay_only_dynamics_shrink_weights(self):
        # zero-gradient regime: lr > 0, upstream gradient identically zero
        # (zero readout and zero target map give loss 0 for the copy task with
        # zero noise), so the update is the pure multiplicative decay
        tc = small_tc(task=NOISY_COPY, noise_std=0.0, lr=0.1, weight_decay=0.5, steps=4)
        out = train_run(tc)
        assert not out.diverged

    def test_one_step_descent(self):
        # deterministic objective (one fixed batch): a small gradient step
        # must strictly decrease the loss
        for seed in range(20):
            tc = small_tc(seed=seed, steps=2, lr=1e-3, momentum=0.0,
                          batch_size=4, dataset_size=1)
            out = train_run(tc)
            assert out.loss_curve[1] < out.loss_curve[0], seed

    def test_bitwise_reproducible(self):
        a = train_run(small_tc(steps=8, lr=0.02))
        b = train_run(small_tc(steps=8, lr=0.02))
        assert a == b

    def test_divergence_detector_fires_on_threshold(self):
        # a microscopic threshold forces the predicate immediately
        tc = small_tc(divergence_threshold=1e-12, steps=3)
        out = train_run(tc)
        assert out.diverged and out.first_divergence_step == 0
        assert not np.isfinite(out.final_loss)
        assert (out.cause, out.block, out.site) == ("norm_threshold", 2, None)

    def test_divergence_detector_fires_on_nonfinite_loss(self):
        # inject a non-finite loss through an infinite target noise level
        tc = small_tc(task=NOISY_COPY, noise_std=float("inf"), steps=3)
        out = train_run(tc)
        assert out.diverged and out.first_divergence_step == 0
        assert (out.cause, out.block, out.site) == ("nonfinite_loss", None, None)

    def test_nonfinite_state_names_block(self, monkeypatch):
        # an infinite attention weight in block 1 makes its output non-finite
        real = training.random_model

        def blown(cfg, stream):
            params = real(cfg, stream)
            params[1].attn.w[0, 0, 0] = float("inf")
            return params

        monkeypatch.setattr(training, "random_model", blown)
        out = train_run(small_tc(steps=3))
        assert out.diverged and out.first_divergence_step == 0
        assert (out.cause, out.block, out.site) == ("nonfinite_state", 1, None)

    def test_degenerate_ln_recorded_as_divergence(self):
        out = train_run(DEGENERATE_LN_REPRO)
        assert out.diverged and out.first_divergence_step == 2
        assert len(out.loss_curve) == out.first_divergence_step + 1
        assert out.loss_curve[-1] == float("inf")
        assert (out.cause, out.block, out.site) == ("degenerate_ln", 6, "ffn_out")

    def test_degenerate_ln_state_refused_alike_by_both_forwards(self, monkeypatch):
        # replay the repro's failing forward pass on copies of its inputs: the
        # trained weights are views of a buffer the run updates in place
        calls = []

        def spy(X0, params, cfg):
            copies = [flat_to_params({k: v.copy() for k, v in params_to_flat(b).items()}, b)
                      for b in params]
            calls.append((X0.copy(), copies, cfg))
            return model_forward(X0, params, cfg)

        monkeypatch.setattr(training, "model_forward", spy)
        train_run(DEGENERATE_LN_REPRO)
        errors = []
        for forward in (model_forward, push_forward):
            with pytest.raises(DegenerateTokenError) as exc:
                forward(*calls[-1])
            errors.append((str(exc.value), exc.value.block, exc.value.site))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (6, "ffn_out")

    def test_activation_kink_recorded_as_divergence(self, monkeypatch):
        # the reverse sweep kinks from step 1 on, however many samples it carries
        real_sample, real_gradients = training.Task.sample, training.param_gradients
        steps = []

        def sample(task, step, index):
            steps.append(step)
            return real_sample(task, step, index)

        def kinked(tape, upstream):
            if steps[-1] >= 1:
                raise ActivationKinkError("relu pre-activation is exactly zero")
            return real_gradients(tape, upstream)

        monkeypatch.setattr(training.Task, "sample", sample)
        monkeypatch.setattr(training, "param_gradients", kinked)
        out = train_run(small_tc(steps=4))
        assert out.diverged and out.first_divergence_step == 1
        assert (out.cause, out.block, out.site) == ("activation_kink", None, None)

    def test_activation_kink_names_its_block(self, monkeypatch):
        # a zero row of ffn.w1 puts that row's relu pre-activation exactly on the kink
        real = training.random_model

        def kinked(cfg, stream):
            params = real(cfg, stream)
            params[1].ffn.w1[2, :] = 0.0
            return params

        monkeypatch.setattr(training, "random_model", kinked)
        out = train_run(small_tc(cfg=replace(small_cfg(), activation="relu"), steps=3))
        assert out.diverged and out.first_divergence_step == 0
        assert (out.cause, out.block, out.site) == ("activation_kink", 1, None)

    def test_no_divergence_flag_without_predicate(self):
        out = train_run(small_tc(lr=0.001, steps=6))
        assert not out.diverged and out.first_divergence_step is None
        assert (out.cause, out.block, out.site) == (None, None, None)
        assert np.isfinite(out.loss_curve).all()

    def test_divergence_invariant(self):
        with pytest.raises(ValueError):
            TrialOutcome(True, None, 1.0, (1.0,), ())
        with pytest.raises(ValueError, match="cause"):
            TrialOutcome(True, 0, 1.0, (1.0,), (), cause="exploded")
        with pytest.raises(ValueError, match="cause"):
            TrialOutcome(False, None, 1.0, (1.0,), (), cause="norm_threshold")

    def test_moment_checkpoints_recorded(self):
        out = train_run(small_tc(steps=8, checkpoint_every=4))
        steps = [s for s, _ in out.moment_curves]
        assert steps == [0, 4, 7]
        assert all(len(layers) == small_cfg().depth + 1 for _, layers in out.moment_curves)


@st.composite
def train_configs(draw):
    cfg = ModelConfig(
        d=draw(st.integers(2, 5)), n=draw(st.integers(1, 4)), k=draw(st.integers(1, 3)),
        m=draw(st.integers(1, 6)), heads=draw(st.integers(1, 2)), depth=draw(st.integers(1, 4)),
        placement=draw(st.sampled_from(["off", "pre", "peri", "post"])),
        delta_t=draw(st.sampled_from([1.0, 0.5])),
        activation=draw(st.sampled_from(["tanh", "relu"])),
        epsilon=draw(st.sampled_from([0.0, 1e-5])),
    )
    return TrainConfig(
        cfg=cfg,
        task=draw(st.sampled_from([MEAN_REGRESSION, NOISY_COPY])),
        steps=draw(st.integers(1, 8)),
        lr=draw(st.sampled_from([0.009, 0.1, 0.6])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**16)),
        divergence_threshold=draw(st.sampled_from([1e8, 30.0, 1e-12])),
        batch_size=draw(st.integers(1, 4)),
        noise_std=draw(st.sampled_from([0.1, float("inf")])),
        checkpoint_every=draw(st.integers(1, 4)),
        dataset_size=draw(st.sampled_from([None, 1, 3])),
    )


class TestStackedStep:
    """The stacked minibatch step against the per-sample loop it replaces."""

    @settings(max_examples=250)
    @given(train_configs())
    @example(DEGENERATE_LN_REPRO)
    def test_outcome_repr_equals_per_sample_loop(self, tc):
        assert repr(train_run(tc)) == repr(scripted_train_run(tc))


class TestStepBits:
    """The training step's floats, pinned to the bit: a rewrite of the step
    that regroups any floating-point operation moves this digest."""

    # sha256 of the reprs below, taken before the step was last rewritten
    DIGEST = "812a09b08951fbd9a882546d53df103c5178a214e53195eeac92c298cb0e0dce"

    def test_grid_and_degenerate_repro_reprs(self):
        base = aggressive_tc()
        configs = [
            replace(base, seed=seed, weight_decay=wd, cfg=replace(base.cfg, placement=placement))
            for placement in ("off", "pre", "peri") for wd in (0.0, 0.3) for seed in (0, 1)
        ]
        reprs = [repr(train_run(tc)) for tc in (*configs, DEGENERATE_LN_REPRO)]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == self.DIGEST


class TestStepGradient:
    """The parameter gradient ``training._step`` returns, summed over the
    minibatch, against a central difference of the batch loss it returns,
    along random directions in parameter space, at the dt = 1 of every
    trial the grid runs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradient_matches_central_difference(self, activation, placement, seed):
        base = aggressive_tc()
        tc = replace(base, seed=seed, cfg=replace(base.cfg, placement=placement, activation=activation))
        assert tc.cfg.delta_t == 1.0
        root = RngStream(seed)
        params = random_model(tc.cfg, root.child(0))
        task = make_task(tc, root.child(1))
        samples = range(tc.batch_size)
        _, grads = training._step(task, params, tc, 0, samples, [])
        flats = [params_to_flat(b) for b in params]
        gen = RngStream(seed, 1).generator()
        h = 1e-6

        def batch_loss(directions, t):
            moved = [
                flat_to_params({k: x + t * v[k] for k, x in f.items()}, b)
                for f, v, b in zip(flats, directions, params)
            ]
            return training._step(task, moved, tc, 0, samples, [])[0]

        for _ in range(2):
            directions = [{k: gen.normal(size=x.shape) for k, x in f.items()} for f in flats]
            analytic = sum(
                float(np.sum(g[k].sum(axis=0) * v[k])) for g, v in zip(grads, directions) for k in v
            )
            fd = (batch_loss(directions, h) - batch_loss(directions, -h)) / (2 * h)
            assert abs(fd - analytic) <= cli.PARAM_TOLERANCE * max(abs(fd), abs(analytic))


class TestStabilityTrial:
    def test_lr_zero_no_divergence_anywhere(self):
        base = small_tc(lr=0.0, steps=3)
        res = stability_trial(base, ["off", "pre", "peri"], [0.0, 0.3], [0, 1, 2])
        assert all(count == 0 for count in res.counts.values())
        assert len(res.outcomes) == 18

    def test_rows_schema(self):
        base = small_tc(lr=0.0, steps=2)
        res = stability_trial(base, ["peri"], [0.0], [0, 1])
        rows = res.rows()
        assert [r["seed"] for r in rows] == [0, 1]
        assert set(rows[0]) == {
            "placement", "weight_decay", "seed", "diverged",
            "first_divergence_step", "final_loss",
        }

    def test_peri_never_hits_degenerate_ln(self):
        # the full aggressive grid at eps = 1e-5 never trips the LN error
        cfg = ModelConfig(d=4, n=3, k=3, m=8, heads=1, depth=8, placement="peri",
                          delta_t=1.0, epsilon=1e-5)
        base = TrainConfig(cfg=cfg, steps=12, lr=0.009, momentum=0.9, batch_size=2)
        res = stability_trial(base, ["peri"], [0.0, 0.3], list(range(6)))
        assert all(not oc.diverged for oc in res.outcomes.values())

    def test_outcomes_equal_train_run_at_each_grid_point(self):
        base = small_tc(lr=0.02, steps=4)
        res = stability_trial(base, ["pre", "peri"], [0.0, 0.3], [0, 1, 2])
        assert len(res.outcomes) == 12
        for (placement, wd, seed), outcome in res.outcomes.items():
            tc = replace(base, seed=seed, weight_decay=wd, cfg=replace(base.cfg, placement=placement))
            assert outcome == train_run(tc)


class TestGridChecks:
    """A bad grid is refused before any trial trains."""

    def test_first_repeat(self):
        assert training.first_repeat([]) is None
        assert training.first_repeat(["off", "pre"]) is None
        assert training.first_repeat(["off", "pre", "pre", "off"]) == 2
        assert training.first_repeat([0.3, 0, 0.0]) == 2

    @pytest.mark.parametrize("placements, decays, seeds, error, match", [
        (["pre", "pre"], [0.0], [0], ValueError, "placements[1]"),
        (["pre"], [0, 0.0], [0], ValueError, "weight_decays[1]"),
        (["pre"], [0.0], [1, 2, 1], ValueError, "seeds[2]"),
        (["pre", "sideways"], [0.0], [0, 1], PlacementError, "'sideways'"),
    ])
    def test_bad_grid_raises_before_any_trial(
        self, monkeypatch, placements, decays, seeds, error, match
    ):
        runs = []
        monkeypatch.setattr(training, "train_run", runs.append)
        with pytest.raises(error, match=re.escape(match)):
            stability_trial(small_tc(), placements, decays, seeds)
        assert runs == []
