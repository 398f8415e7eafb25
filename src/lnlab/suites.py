"""Randomized diagnostic suites: pinned instance distributions for every
bound and invariance check, fanned out over per-instance RNG streams.

Each suite takes an instance count and a master seed and draws instance i
from its own child stream, so a run is reproducible bit-for-bit.  Models are
drawn at ``ModelConfig``'s default dimensions unless a suite says otherwise.
The growth and pathwise suites push the models of each delta_t as one
population (``_peri_suite``; ``lnlab bounds`` pushes both suites' in one), with
no per-model check, and the chain suite runs its instances as one stack of
chains; every row is the row of its instance run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics as diag
from . import model as model_mod
from . import normalization as norm
from .model import ModelConfig, push_forward, random_model, simplified_pre_chain
from .numerics import RngStream, spectral_norm
from .parallel import map_indexed

# The smoothed rescale-invariance suite runs in the large-activation regime
# the invariance statement concerns; deviations scale like eps / scale^2.
RESCALE_HOT_SCALE = 50.0
# Divergence witness: adversarially aligned attention chains at |W|_2 = 3.
WITNESS_DIMS = dict(d=8, n=8)
WITNESS_SPECTRAL = 3.0
WITNESS_DEPTH = 32
# (c1, c2) rescalings of the rescale suite's sublayer weights
RESCALE_SCALES = ((10.0, 10.0), (1000.0, 0.01))
_PATHWISE_DEPTHS = (8, 16, 32)


def _peri_config(i: int, depths, delta_ts) -> ModelConfig:
    """Instance i's peri config, with the depth and dt cycled."""
    depth, delta_t = depths[i % len(depths)], delta_ts[(i // len(depths)) % len(delta_ts)]
    return ModelConfig(depth=depth, delta_t=delta_t, placement=model_mod.PERI)


def _peri_instance(seed: int, suite: int, i: int, depths, delta_ts):
    """Instance i of a random peri-model suite: (generator, config, model),
    drawn from the instance's child stream, with the depth and dt cycled."""
    stream = RngStream(seed, suite).child(i)
    cfg = _peri_config(i, depths, delta_ts)
    return stream.child(1).generator(), cfg, random_model(cfg, stream.child(2))


# by suite stream id: the check named in a placement refusal, the states an instance
# pushes, and the rows of its pushed stack
_PERI_SUITES = {
    0: ("peri_growth_check", 9, diag._growth_pair_rows),
    1: ("pathwise_stability_check", 2, lambda s, _, x_d, cfg, g, b, i: [diag._pathwise_row(s, x_d, cfg, g, b, i)]),
}


def _peri_suite(suites, instances: int, seed: int, depths, delta_ts) -> list[diag.BoundReport]:
    """The rows of the peri-model suites ``suites`` (a tuple) at their tuple of ``depths``,
    suite by suite in instance order, each instance drawn as ``_peri_instance`` draws it.
    Each delta_t's instances of every suite are pushed as one population, deepest first (ties
    in (suite, instance) order), each stack padded to the widest with copies of its last
    state, which no row reads.  If a push raises, every instance is pushed again as a
    population of one, in that order, so the error is that of the first failing instance of
    the first failing suite, as the suites run alone raise it."""
    members = [(suite, i) for suite in suites for i in range(instances)]
    streams = [RngStream(seed, suite).child(i) for suite, i in members]
    cfgs = [_peri_config(i, ds, delta_ts) for ds in depths for i in range(instances)]
    drawn = []
    for (suite, _), stream, cfg in zip(members, streams, cfgs):  # the inputs, then the entry the growth rows read
        gen = stream.child(1).generator()
        stack = gen.normal(size=(_PERI_SUITES[suite][1], cfg.d, cfg.n))
        drawn.append((stack, (int(gen.integers(cfg.d)), int(gen.integers(cfg.n)))))
    width = max(_PERI_SUITES[suite][1] for suite in suites)
    out, philox = [[]] * len(members), RngStream(seed).generator()  # restarted at every draw

    def push(ks: list[int]) -> None:  # the members ks, of one delta_t, as one population
        group = sorted(ks, key=lambda k: -cfgs[k].depth)
        models = [streams[k].child(2) for k in group]
        pushed, gmax, bmax = diag._population(
            np.stack([a[np.minimum(np.arange(width), len(a) - 1)] for a in (drawn[k][0] for k in group)]),
            [cfgs[k] for k in group],
            lambda j, live: model_mod._random_blocks(cfgs[group[0]], [m.child(j) for m in models[:live]], philox),
            _PERI_SUITES[suites[0]][0])
        for t, k in enumerate(group):
            (suite, i), (stack, entry) = members[k], drawn[k]
            out[k] = _PERI_SUITES[suite][2](stack, entry, pushed[t, :len(stack)], cfgs[k],
                                            float(gmax[t]), float(bmax[t]), i)

    try:
        for dt in dict.fromkeys(cfg.delta_t for cfg in cfgs):
            push([k for k in range(len(members)) if cfgs[k].delta_t == dt])
    except (model_mod.DivergenceError, norm.DegenerateTokenError):
        map_indexed(lambda k: push([k]), len(members))
    return [r for sub in out for r in sub]


def run_growth_suite(
    instances: int,
    seed: int,
    depths: tuple[int, ...] = (8, 16, 32, 64),
    delta_ts: tuple[float, ...] = (1.0, 0.1),
) -> list[diag.BoundReport]:
    """Entry-moment and data-wise variance bounds over random peri models,
    the latter on 8 input samples per model, each model's x0 and inputs
    pushed as one stack (the rows of ``peri_growth_check`` and ``datawise_variance_check``)."""
    return _peri_suite((0,), instances, seed, (depths,), delta_ts)


def run_pathwise_suite(
    instances: int, seed: int, delta_ts: tuple[float, ...] = (1.0, 0.1)
) -> list[diag.BoundReport]:
    """Pathwise bounds over random peri models (``pathwise_stability_check``'s rows)."""
    return _peri_suite((1,), instances, seed, (_PATHWISE_DEPTHS,), delta_ts)


def run_wasserstein_suite(
    instances: int, seed: int, n_samples: int = 32, p: float = 2.0
) -> list[diag.BoundReport]:
    def one(i: int) -> diag.BoundReport:
        gen, cfg, params = _peri_instance(seed, 2, i, (8,), (1.0,))
        mu0 = gen.normal(size=(n_samples, cfg.d, cfg.n))
        nu0 = gen.normal(size=(n_samples, cfg.d, cfg.n)) + gen.normal(scale=0.5)
        return diag.wasserstein_stability_check(mu0, nu0, params, cfg, p=p, seed=i)

    return map_indexed(one, instances)


def run_chain_suite(instances: int, seed: int, depth: int = 16) -> list[diag.BoundReport]:
    """Product bound on random simplified pre-norm chains, the instances run as one stack
    of chains; if a token degenerates, the chains rerun one by one, so the error is that of
    the first failing instance."""
    dims = ModelConfig()
    d, n, key_dim = dims.d, dims.n, dims.k

    def draw(i: int):
        gen = RngStream(seed, 3).child(i).generator()
        x0 = gen.normal(size=(d, n))
        ws = [gen.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)) for _ in range(depth)]
        gs = [np.abs(gen.normal(1.0, 0.2, size=d)) + 0.1 for _ in range(depth)]
        qs = [gen.normal(0.0, 1.0 / np.sqrt(d), size=(key_dim, d)) for _ in range(depth)]
        ks = [gen.normal(0.0, 1.0 / np.sqrt(d), size=(key_dim, d)) for _ in range(depth)]
        return x0, ws, gs, qs, ks

    drawn = [draw(i) for i in range(instances)]
    if not drawn:
        return []
    try:  # X0 as (instances, d, n), each per-layer list as (depth, instances, ...)
        chain = simplified_pre_chain(*(np.stack(arrays, axis=min(k, 1)) for k, arrays in enumerate(zip(*drawn))))
    except norm.DegenerateTokenError:
        chain = map_indexed(lambda i: simplified_pre_chain(*drawn[i]), instances)
    return [diag.pre_exponential_bound(chain[i], seed=i) for i in range(instances)]


@dataclass(frozen=True)
class WitnessOutcome:
    seed: int
    chain_ma: float
    peri_ma: float
    bound_margin: float

    @property
    def ratio(self) -> float:
        return self.chain_ma / self.peri_ma


def divergence_witness(seeds: int, master_seed: int = 0) -> list[WitnessOutcome]:
    """Adversarial pre-norm growth against a matched peri model.

    Each instance builds an attention-only chain whose merged weights are a
    shared rank-one direction rescaled to spectral norm 3, so the residual
    updates compound coherently, and runs a standard-init peri model of equal
    depth on the same input.  The chain's terminal mean absolute value
    dwarfs the peri one; the product bound still holds on every instance.
    """
    d, n, depth = WITNESS_DIMS["d"], WITNESS_DIMS["n"], WITNESS_DEPTH

    def one(i: int) -> WitnessOutcome:
        stream = RngStream(master_seed + i)
        gen = stream.generator()
        x0 = gen.normal(size=(d, n))
        u = np.sign(gen.normal(size=d)) + 0.1 * gen.normal(size=d)
        u /= np.linalg.norm(u)
        w = np.outer(u, u)
        w *= WITNESS_SPECTRAL / spectral_norm(w)
        chain = simplified_pre_chain(x0, [w] * depth, [np.ones(d)] * depth)
        cfg = ModelConfig(d=d, n=n, depth=depth, placement=model_mod.PERI)
        params = random_model(cfg, RngStream(master_seed + i, 5))
        peri_ma = float(np.abs(push_forward(x0, params, cfg)).mean())
        return WitnessOutcome(
            seed=master_seed + i,
            chain_ma=chain.mean_abs,
            peri_ma=peri_ma,
            bound_margin=chain.bound_rhs - chain.mean_abs,
        )

    return map_indexed(one, seeds)


@dataclass(frozen=True)
class RescaleSuiteResult:
    epsilon: float
    worst_attn_dev: float
    worst_ffn_dev: float
    worst_pre_ratio_err: float


def run_rescale_suite(instances: int, seed: int, epsilon: float) -> RescaleSuiteResult:
    """Prop-8 peri invariance and Prop-7 pre proportionality over random blocks.

    The FFN branch uses relu (the invariance needs a positively homogeneous
    activation); with epsilon > 0 the blocks are drawn hot so that the
    normalization denominators dominate the smoothing term.
    """
    weight_scale = RESCALE_HOT_SCALE if epsilon > 0 else 1.0
    cfg = ModelConfig(depth=2, placement=model_mod.PERI, epsilon=epsilon, activation="relu")
    cfg_pre = replace(cfg, placement=model_mod.PRE, activation="tanh")

    def one(i: int):
        attn_dev = ffn_dev = 0.0
        # relu can zero out a whole column, which makes the output LN
        # degenerate at eps=0; redraw deterministically until the instance
        # has the positive spread the invariance statement presumes
        for attempt in range(50):
            stream = RngStream(seed, 4).child(i).child(attempt)
            params = random_model(cfg, stream.child(1), weight_scale=weight_scale)
            x0 = stream.child(2).generator().normal(size=(cfg.d, cfg.n))
            try:
                for sc in RESCALE_SCALES:
                    attn_dev = max(
                        attn_dev,
                        diag.rescale_invariance_test(params, cfg, x0, sc, "attn").max_abs_dev,
                    )
                    ffn_dev = max(
                        ffn_dev,
                        diag.rescale_invariance_test(params, cfg, x0, sc, "ffn").max_abs_dev,
                    )
                break
            except norm.DegenerateTokenError:
                attn_dev = ffn_dev = 0.0
        else:
            raise RuntimeError(f"rescale suite instance {i}: no non-degenerate draw found")
        # pre proportionality on the attention sublayer (exactly linear in W, V)
        params_pre = random_model(cfg_pre, stream.child(3))
        x1 = stream.child(4).generator().normal(size=(cfg_pre.d, cfg_pre.n))
        ratio_err = 0.0
        for c1, c2 in RESCALE_SCALES:
            res = diag.rescale_invariance_test(params_pre, cfg_pre, x1, (c1, c2), "attn")
            ratio_err = max(ratio_err, abs(res.scale_ratio - c1 * c2) / (c1 * c2))
        return attn_dev, ffn_dev, ratio_err

    outs = map_indexed(one, instances)
    return RescaleSuiteResult(
        epsilon=epsilon,
        worst_attn_dev=max(o[0] for o in outs),
        worst_ffn_dev=max(o[1] for o in outs),
        worst_pre_ratio_err=max(o[2] for o in outs),
    )
