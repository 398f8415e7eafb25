"""Toy-scale optimization harness for divergence-count trials.

SGD with momentum and decoupled weight decay drives a model on synthetic
tasks; a run is flagged as diverged as soon as the loss goes non-finite, the
terminal hidden-state norm crosses the threshold, or an LN denominator or a
relu derivative is undefined at the iterate.  Everything is keyed
off counter-based streams, so a TrainConfig determines its TrialOutcome
bit for bit; its task (``make_task``) is drawn from the config it trains.
``TrainConfig``'s defaults are the ``train`` section of the CLI's config.

Once per trial, ``train_run`` draws the model and the task, lays the drawn
tensors out in one flat buffer of the P parameters, which the model's
tensors view, and fills a buffer of per-entry decay factors.  Each step runs
its minibatch as one ``(B, d, n)`` stack: B samples drawn, each from its own
stream, one forward pass (every block validated, every state checked
finite) and one reverse sweep, with the per-sample parameter gradients
gathered in one ``(B, P)`` array, summed over the samples and applied in
place to the flat buffer with the momentum buffer.  The terminal norm, the
loss and sample 0's checkpoint moments are taken per sample.  If any sample
fails any predicate, the step is replayed one sample at a time through the
same step function, so the recorded step, cause, block and site are those of
the first sample, in sample order, that fails; and within a sample, the
forward pass, then the terminal norm, then the loss, then the reverse sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import ActivationKinkError
from .model import (
    NONFINITE_STATE,
    DivergenceError,
    ModelConfig,
    flat_to_params,
    model_forward,
    param_gradients,
    params_to_flat,
    random_model,
)
from .normalization import DegenerateTokenError
from .numerics import Moments, RngStream, moments
from .parallel import map_indexed

MEAN_REGRESSION = "mean_regression"
NOISY_COPY = "noisy_copy"
_TASKS = (MEAN_REGRESSION, NOISY_COPY)

NORM_THRESHOLD = "norm_threshold"
NONFINITE_LOSS = "nonfinite_loss"
DEGENERATE_LN = "degenerate_ln"
ACTIVATION_KINK = "activation_kink"
CAUSES = (NORM_THRESHOLD, NONFINITE_LOSS, NONFINITE_STATE, DEGENERATE_LN, ACTIVATION_KINK)


@dataclass(frozen=True)
class TrainConfig:
    cfg: ModelConfig
    task: str = MEAN_REGRESSION
    steps: int = 60
    lr: float = 0.009
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    divergence_threshold: float = 1e8
    batch_size: int = 2
    noise_std: float = 0.1
    checkpoint_every: int = 10
    # None draws a fresh batch every step; an integer cycles a finite dataset
    dataset_size: int | None = None

    def __post_init__(self):
        if self.task not in _TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {_TASKS}")
        if not self.steps >= 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr >= 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.noise_std >= 0.0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.divergence_threshold > 0.0:
            raise ValueError(f"divergence_threshold must be > 0, got {self.divergence_threshold}")
        if not self.checkpoint_every >= 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.dataset_size is not None and not self.dataset_size >= 1:
            raise ValueError(f"dataset_size must be None or >= 1, got {self.dataset_size}")


@dataclass(frozen=True)
class TrialOutcome:
    diverged: bool
    first_divergence_step: int | None
    final_loss: float
    loss_curve: tuple[float, ...]
    moment_curves: tuple[tuple[int, tuple[Moments, ...]], ...]
    # why a diverged trial stopped, and the block and LN site where it did
    # when known; all three are None for a trial that did not diverge
    cause: str | None = None
    block: int | None = None
    site: str | None = None

    def __post_init__(self):
        if self.diverged and self.first_divergence_step is None:
            raise ValueError("diverged outcome must carry first_divergence_step")
        if self.diverged and self.cause not in CAUSES:
            raise ValueError(f"diverged outcome needs a cause in {CAUSES}, got {self.cause!r}")
        if not self.diverged and (self.cause, self.block, self.site) != (None, None, None):
            raise ValueError("an outcome that did not diverge has no cause, block or site")


@dataclass(frozen=True)
class Task:
    """Synthetic supervised task: a sampler plus a differentiable loss.

    The readout and target maps are fixed at construction; per-step batches
    come from child streams so replays are identical.
    """

    tc: TrainConfig
    stream: RngStream
    readout: np.ndarray
    target_map: np.ndarray

    def sample(self, step: int, index: int):
        tc = self.tc
        if tc.dataset_size is not None:
            step = step % tc.dataset_size
        gen = self.stream.child(step).child(index).generator()
        x0 = gen.normal(size=(tc.cfg.d, tc.cfg.n))
        if tc.task == MEAN_REGRESSION:
            # the row means as x0.mean(axis=1) takes them, without its Python wrapper
            y = self.target_map @ (np.add.reduce(x0, axis=1) / tc.cfg.n)
        else:
            y = x0[:, 0] + tc.noise_std * gen.normal(size=tc.cfg.d)
        return x0, y

    def loss_and_grad(self, x_final: np.ndarray, y: np.ndarray):
        """Mean squared error through the linear readout; returns the loss and
        its gradient with respect to the terminal hidden state."""
        d, n = x_final.shape
        if self.tc.task == MEAN_REGRESSION:
            yhat = self.readout @ (np.add.reduce(x_final, axis=1) / n)
            err = yhat - y
            loss = float(err @ err) / d
            gcol = self.readout.T @ (2.0 * err / d) / n
            grad = gcol[:, None].repeat(n, axis=1)
        else:
            yhat = self.readout @ x_final[:, 0]
            err = yhat - y
            loss = float(err @ err) / d
            grad = np.zeros((d, n))
            grad[:, 0] = self.readout.T @ (2.0 * err / d)
        return loss, grad


def make_task(tc: TrainConfig, stream: RngStream) -> Task:
    """The task ``tc`` trains on, its maps drawn from ``stream``."""
    d = tc.cfg.d
    gen = stream.child(0).generator()
    if tc.task == MEAN_REGRESSION:
        readout = gen.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        target_map = gen.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    else:
        readout = np.eye(d)
        target_map = np.eye(d)
    return Task(tc, stream.child(1), readout, target_map)


def _is_weight_tensor(name: str) -> bool:
    # decoupled decay shrinks the attention/FFN matrices; LN parameters are
    # left undecayed, matching how decay is applied to norm layers in practice
    return name.startswith(("attn.", "ffn."))


# the predicate: loss non-finite, terminal norm over threshold, or an LN site
# or relu derivative left undefined by the iterate
_STOPS = (DivergenceError, DegenerateTokenError, ActivationKinkError)


def _divergence_cause(exc: ArithmeticError) -> tuple[str, int | None, str | None]:
    """(cause, block, site) of an exception that ends a trial."""
    if isinstance(exc, DivergenceError):
        return exc.cause, exc.block, None
    if isinstance(exc, DegenerateTokenError):
        return DEGENERATE_LN, exc.block, exc.site
    return ACTIVATION_KINK, exc.block, None


def _step(task: Task, params, tc: TrainConfig, step: int, samples, checkpoints: list):
    """One forward pass and one reverse sweep over the given samples of a step,
    stacked.  Appends sample 0's moments to ``checkpoints`` at a checkpoint
    step and raises at the first predicate that fails; returns the samples'
    share of the batch loss and their per-sample parameter gradients."""
    drawn = [task.sample(step, bi) for bi in samples]
    tape = model_forward(np.array([x0 for x0, _ in drawn]), params, tc.cfg)
    if samples[0] == 0 and (step % tc.checkpoint_every == 0 or step == tc.steps - 1):
        checkpoints.append((step, tuple(moments(x[0]) for x in tape.states)))
    batch_loss = 0.0
    gbars = []
    for x_final, (_, y) in zip(tape.x_final, drawn):
        final_norm = float(np.linalg.norm(x_final))
        if not math.isfinite(final_norm) or final_norm > tc.divergence_threshold:
            raise DivergenceError(
                f"terminal norm {final_norm:g} crossed threshold",
                block=tc.cfg.depth - 1, cause=NORM_THRESHOLD,
            )
        loss, gbar = task.loss_and_grad(x_final, y)
        if not math.isfinite(loss):
            raise DivergenceError("loss is non-finite", None, NONFINITE_LOSS)
        batch_loss += loss / tc.batch_size
        gbars.append(gbar)
    # dividing the stack divides each sample's gradient as it would alone
    return batch_loss, param_gradients(tape, np.array(gbars) / tc.batch_size)


def _batch_step(task: Task, params, tc: TrainConfig, step: int, keys, checkpoints: list):
    """The whole minibatch as one stack; on a failure, the same step one sample
    at a time, which raises the failure a per-sample loop meets first (every
    predicate is per sample, so the replay fails too).  Returns the batch
    loss and the flat gradient, block by block in ``keys`` order."""
    pending: list = []
    try:
        batch_loss, grads = _step(task, params, tc, step, range(tc.batch_size), pending)
    except _STOPS:
        for bi in range(tc.batch_size):
            _step(task, params, tc, step, [bi], checkpoints)
        raise
    checkpoints.extend(pending)
    per_sample = np.concatenate([g[k].reshape(tc.batch_size, -1) for g in grads for k in keys], 1)
    return batch_loss, np.add.reduce(per_sample, axis=0)


def train_run(tc: TrainConfig) -> TrialOutcome:
    """SGD + momentum with decoupled decay, theta <- (1 - lr*wd) theta - lr*m, on one
    flat buffer ``w`` of the drawn tensors in ``params_to_flat`` order, which the model views."""
    root = RngStream(tc.seed)
    drawn = random_model(tc.cfg, root.child(0))
    task = make_task(tc, root.child(1))
    flats = [params_to_flat(b) for b in drawn]
    keys = tuple(flats[0])
    w = np.concatenate([t.ravel() for f in flats for t in f.values()])
    shrink, m, params, o = np.empty_like(w), np.zeros_like(w), [], 0
    for f, b in zip(flats, drawn):
        views = {}
        for k, t in f.items():
            views[k] = w[o:o + t.size].reshape(t.shape)
            shrink[o:o + t.size] = 1.0 - tc.lr * (tc.weight_decay if _is_weight_tensor(k) else 0.0)
            o += t.size
        params.append(flat_to_params(views, b))

    losses: list[float] = []
    checkpoints: list[tuple[int, tuple[Moments, ...]]] = []
    first_divergence = None
    cause = block = site = None

    for step in range(tc.steps):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                batch_loss, g = _batch_step(task, params, tc, step, keys, checkpoints)
        except _STOPS as exc:
            cause, block, site = _divergence_cause(exc)
            first_divergence = step
            losses.append(float("inf"))
            break
        losses.append(batch_loss)
        m *= tc.momentum
        m += g
        w *= shrink
        w -= tc.lr * m

    final_loss = losses[-1] if losses else float("nan")
    return TrialOutcome(
        diverged=cause is not None,
        first_divergence_step=first_divergence,
        final_loss=final_loss,
        loss_curve=tuple(losses),
        moment_curves=tuple(checkpoints),
        cause=cause,
        block=block,
        site=site,
    )


@dataclass(frozen=True)
class SweepResult:
    outcomes: dict[tuple[str, float, int], TrialOutcome]
    counts: dict[tuple[str, float], int]

    def rows(self) -> list[dict]:
        out = []
        for (placement, wd, seed), oc in sorted(self.outcomes.items()):
            out.append({
                "placement": placement,
                "weight_decay": wd,
                "seed": seed,
                "diverged": int(oc.diverged),
                "first_divergence_step": oc.first_divergence_step,
                "final_loss": oc.final_loss,
            })
        return out


def first_repeat(items) -> int | None:
    """The index of the first item equal to an earlier one (0 equals 0.0), else None."""
    return next((i for i, item in enumerate(items) if item in items[:i]), None)


def stability_trial(
    base: TrainConfig,
    placements: list[str],
    weight_decays: list[float],
    seeds: list[int],
) -> SweepResult:
    """Divergence-count grid: identical everything except placement, decay, seed.

    Every trial's config is built before any trial trains, so a repeated
    grid item or an unknown placement is refused up front."""
    for name, items in (("placements", placements), ("weight_decays", weight_decays), ("seeds", seeds)):
        if (i := first_repeat(items)) is not None:
            raise ValueError(f"{name}[{i}] repeats {items[i]!r}")
    configs = [
        replace(base, seed=seed, weight_decay=wd, cfg=replace(base.cfg, placement=placement))
        for placement in placements
        for wd in weight_decays
        for seed in seeds
    ]
    results = map_indexed(lambda i: train_run(configs[i]), len(configs))
    outcomes = {(tc.cfg.placement, tc.weight_decay, tc.seed): oc for tc, oc in zip(configs, results)}
    counts: dict[tuple[str, float], int] = {}
    for (placement, wd, seed), oc in outcomes.items():
        counts[(placement, wd)] = counts.get((placement, wd), 0) + int(oc.diverged)
    return SweepResult(outcomes, counts)
