"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is left to
later calibration.
"""

import time
from dataclasses import replace

import numpy as np

from oracles import (
    central_diff_jacobian,
    loglog_slope,
    relative_error,
    wasserstein_bruteforce,
)

from lnlab import control, suites
from lnlab.attention import attn_forward, attn_jacobian_full, ffn_forward, ffn_jacobian_blockdiag
from lnlab.gradcheck import fd_param_gradients, fd_state_jacobian
from lnlab.model import (
    ModelConfig,
    block_forward,
    local_sensitivity,
    model_forward,
    param_gradients,
    random_model,
)
from lnlab.normalization import LAYERNORM, RMSNORM, LNParams, ellipsoid_residual, ln_forward, ln_jacobian
from lnlab.numerics import RngStream, wasserstein_exact
from lnlab.training import TrainConfig, stability_trial


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _criterion_cfg(gen) -> ModelConfig:
    return ModelConfig(
        d=int(gen.integers(3, 9)),
        n=int(gen.integers(2, 6)),
        k=int(gen.integers(2, 5)),
        m=int(gen.integers(3, 9)),
        heads=int(gen.integers(1, 3)),
        depth=int(gen.integers(1, 5)),
        placement=("off", "pre", "peri", "post")[int(gen.integers(4))],
        delta_t=float(gen.uniform(0.1, 1.0)),
        activation="tanh",
        epsilon=1e-5,
    )


def _spread_token(gen, d, scale=1.0):
    x = gen.normal(scale=scale, size=d)
    while np.std(x) < 0.1 * scale:
        x = gen.normal(scale=scale, size=d)
    return x


def _ln_params(gen, d, eps, kind):
    gamma = gen.normal(1.0, 0.3, size=d)
    gamma[np.abs(gamma) < 0.05] = 0.3
    beta = gen.normal(0.0, 0.3, size=d)
    return LNParams(gamma, beta, eps, kind)


def test_criterion_01_gradient_oracle_suite():
    """Analytic Jacobians vs central differences, 100 instances per category."""
    t0 = time.monotonic()
    worst = {}

    # normalization Jacobians (LayerNorm d >= 3: the d = 2 map is locally
    # constant with a zero Jacobian, where relative comparison is ill-posed)
    for kind_index, kind in enumerate((LAYERNORM, RMSNORM)):
        gen = RngStream(1, kind_index).generator()
        w = 0.0
        for _ in range(100):
            d = int(gen.integers(3 if kind == LAYERNORM else 2, 9))
            p = _ln_params(gen, d, 1e-5, kind)
            x = _spread_token(gen, d)
            fd = central_diff_jacobian(lambda v: ln_forward(v, p), x)
            w = max(w, relative_error(ln_jacobian(x, p), fd))
        worst[kind] = w

    # attention, FFN and block local sensitivity (all placements): each nd x nd
    # Jacobian against the stacked central differences ``lnlab gradcheck`` runs
    for stream, name in enumerate(("attention", "ffn", "block"), start=2):
        gen = RngStream(1, stream).generator()
        w = 0.0
        for _ in range(100):
            cfg = _criterion_cfg(gen)
            params = random_model(cfg, RngStream(int(gen.integers(2**32))))
            b = params[0]
            X = gen.normal(size=(cfg.d, cfg.n))
            if name == "attention":
                f, jacobian = (lambda Z: attn_forward(Z, b.attn)[0]), attn_jacobian_full(X, b.attn)
            elif name == "ffn":
                f, jacobian = (lambda Z: ffn_forward(Z, b.ffn)[0]), ffn_jacobian_blockdiag(X, b.ffn)
            else:
                f = lambda Z: block_forward(Z, b, cfg)[0]
                jacobian = local_sensitivity(model_forward(X, params, cfg), 0)
            w = max(w, relative_error(jacobian, fd_state_jacobian(f, X)))
        worst[name] = w

    # full parameter gradients of a scalar loss, every entry by FD, one
    # stacked call per tensor as ``lnlab gradcheck`` runs it
    gen = RngStream(1, 5).generator()
    w = 0.0
    for _ in range(100):
        cfg = _criterion_cfg(gen)
        params = random_model(cfg, RngStream(int(gen.integers(2**32))))
        X = gen.normal(size=(cfg.d, cfg.n))
        C = gen.normal(size=(cfg.d, cfg.n))
        grads = param_gradients(model_forward(X, params, cfg), C)
        bi = int(gen.integers(cfg.depth))
        for name, fd in fd_param_gradients(params, cfg, X, C, bi).items():
            w = max(w, relative_error(grads[bi][name], fd))
    worst["params"] = w

    elapsed = time.monotonic() - t0
    overall = max(worst.values())
    detail = (
        f"max rel err {overall:.2e} (tol 1e-06) across "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f"; {elapsed:.0f}s single-threaded (budget 120s)"
    )
    verdict(1, overall <= 1e-6 and elapsed <= 120.0, detail)


def test_criterion_02_ellipsoid_membership():
    worst = 0.0
    for kind in (LAYERNORM, RMSNORM):
        gen = RngStream(2, kind == RMSNORM).generator()
        count = 0
        while count < 10_000:
            d = int(gen.choice([2, 4, 8, 16]))
            p = _ln_params(gen, d, 0.0, kind)
            x = _spread_token(gen, d, scale=float(gen.uniform(0.5, 5.0)))
            z = ln_forward(x, p)
            worst = max(worst, abs(ellipsoid_residual(z, p)))
            count += 1
    verdict(2, worst <= 1e-9, f"max |residual| {worst:.2e} over 2x10^4 outputs at eps=0 (tol 1e-9)")


def test_criterion_03_jacobian_scaling_law():
    worst = 0.0
    for kind in (LAYERNORM, RMSNORM):
        gen = RngStream(3, kind == RMSNORM).generator()
        for _ in range(200):
            d = int(gen.integers(3 if kind == LAYERNORM else 2, 9))
            p = _ln_params(gen, d, 0.0, kind)
            x = _spread_token(gen, d)
            base = ln_jacobian(x, p)
            scale = np.linalg.norm(base)
            for c in (2.0, 10.0, 1e3):
                dev = np.linalg.norm(ln_jacobian(c * x, p) - base / c)
                worst = max(worst, dev / scale)
    verdict(3, worst <= 1e-12, f"max relative deviation {worst:.2e} for c in {{2, 10, 1e3}} (tol 1e-12)")


def test_criterion_04_peri_rescale_invariance():
    exact = suites.run_rescale_suite(50, seed=4, epsilon=0.0)
    smoothed = suites.run_rescale_suite(50, seed=4, epsilon=1e-5)
    worst_exact = max(exact.worst_attn_dev, exact.worst_ffn_dev)
    worst_smoothed = max(smoothed.worst_attn_dev, smoothed.worst_ffn_dev)
    ok = worst_exact <= 1e-10 and worst_smoothed <= 1e-6
    verdict(4, ok, (
        f"max abs deviation eps=0: {worst_exact:.2e} (tol 1e-10), "
        f"eps=1e-5: {worst_smoothed:.2e} (tol 1e-6), 50 blocks per sublayer"
    ))


def test_criterion_05_pre_proportional_growth():
    exact = suites.run_rescale_suite(50, seed=5, epsilon=0.0)
    verdict(5, exact.worst_pre_ratio_err <= 1e-8,
            f"max |ratio/c1c2 - 1| = {exact.worst_pre_ratio_err:.2e} (tol 1e-8)")


def test_criterion_06_entry_and_datawise_growth_bounds():
    reports = suites.run_growth_suite(100, seed=6)
    min_margin = min(r.margin for r in reports)
    depths = sorted({r.depth for r in reports})
    dts = sorted({r.delta_t for r in reports})
    verdict(6, min_margin >= -1e-9, (
        f"{len(reports)} bound checks over 100 peri models, D in {depths}, "
        f"dt in {dts}; min margin {min_margin:.3e} (tol -1e-9)"
    ))


def test_criterion_07_pathwise_and_wasserstein_bounds():
    pathwise = suites.run_pathwise_suite(100, seed=7)
    min_path = min(r.margin for r in pathwise)
    transport = suites.run_wasserstein_suite(20, seed=7, n_samples=32, p=2.0)
    min_w = min(r.margin for r in transport)
    gen = RngStream(7, 70).generator()
    worst_hung = 0.0
    for _ in range(50):
        a = gen.normal(size=(5, 3, 2))
        b = gen.normal(size=(5, 3, 2))
        p = float(gen.choice([1.0, 2.0, 3.0]))
        worst_hung = max(worst_hung, abs(wasserstein_exact(a, b, p) - wasserstein_bruteforce(a, b, p)))
    ok = min_path >= -1e-9 and min_w >= -1e-9 and worst_hung <= 1e-12
    verdict(7, ok, (
        f"pathwise min margin {min_path:.3e} (100 pairs), W2 min margin {min_w:.3e} "
        f"(20 instances, N=32), hungarian-vs-bruteforce max diff {worst_hung:.1e} (tol 1e-12)"
    ))


def test_criterion_08_chain_bound_and_divergence_witness():
    chains = suites.run_chain_suite(50, seed=8)
    min_margin = min(r.margin for r in chains)
    outcomes = suites.divergence_witness(20)
    hits = sum(o.ratio >= 10.0 for o in outcomes)
    min_wmargin = min(o.bound_margin for o in outcomes)
    ok = min_margin >= 0 and hits >= 18 and min_wmargin >= 0
    verdict(8, ok, (
        f"50 random chains min margin {min_margin:.3e}; adversarial |W|=3 at D=32: "
        f"{hits}/20 seeds with MA ratio >= 10x (min ratio {min(o.ratio for o in outcomes):.1f})"
    ))


def test_criterion_09_hamiltonian_maximizer():
    worst_gap = np.inf
    worst_res = 0.0
    for seed in range(20):
        gen = RngStream(9, seed).generator()
        d = int(gen.integers(2, 8))
        gamma = np.abs(gen.normal(1.0, 0.4, size=d)) + 0.1
        beta = gen.normal(size=d)
        site = LNParams(gamma, beta, 0.0, LAYERNORM)
        P = gen.normal(size=(d, 3))
        fstar = control.hamiltonian_maximizer(P, gamma, beta)
        for j in range(3):
            worst_res = max(worst_res, abs(ellipsoid_residual(fstar[:, j], site)))
        samples = control.sample_ellipsoid(site, RngStream(9, 1000 + seed), 10_000)
        for j in range(3):
            gap = -(P[:, j] @ fstar[:, j]) - (-(P[:, j] @ samples)).max()
            worst_gap = min(worst_gap, gap)
    ok = worst_gap >= -1e-9 and worst_res <= 1e-10
    verdict(9, ok, (
        f"dominance margin >= {worst_gap:.3e} over 10^4 samples x 20 instances "
        f"(tol -1e-9); max maximizer residual {worst_res:.2e} (tol 1e-10)"
    ))


def test_criterion_10_postln_projection_and_drift():
    gen = RngStream(10).generator()
    worst_orth = 0.0
    worst_res = 0.0
    for _ in range(200):
        d = int(gen.integers(2, 8))
        gamma = np.abs(gen.normal(1.0, 0.4, size=d)) + 0.1
        beta = gen.normal(size=d)
        site = LNParams(gamma, beta, 0.0, LAYERNORM)
        x = gen.normal(size=d) + beta
        f = gen.normal(scale=2.0, size=d)
        proj = control.postln_projection(x, f, site)
        c = x - beta
        worst_orth = max(worst_orth, abs(c @ (proj / gamma**2)))
    site = LNParams(np.array([1.2, 0.8, 1.5]), np.array([0.3, -0.1, 0.2]), 0.0, LAYERNORM)
    x0 = control.sample_ellipsoid(site, RngStream(10, 5), 1)[:, 0]
    field = lambda x: np.array([x[1] - x[2], -x[0], 0.4 * x[0]])
    traj = control.integrate_projected_flow(x0, field, site, steps=300, h=0.02)
    for point in traj:
        worst_res = max(worst_res, abs(ellipsoid_residual(point, site)))
    hs = [0.02 / 2**i for i in range(5)]
    drifts = [
        abs(ellipsoid_residual(
            control.integrate_projected_flow(x0, field, site, steps=1, h=h, reproject=False)[-1],
            site,
        ))
        for h in hs
    ]
    slope = loglog_slope(hs, drifts)
    ok = worst_orth <= 1e-12 and worst_res <= 1e-9 and abs(slope - 2.0) <= 0.3
    verdict(10, ok, (
        f"orthogonality {worst_orth:.2e} (tol 1e-12), flow residual {worst_res:.2e} "
        f"(tol 1e-9), drift slope {slope:.3f} (2 +/- 0.3)"
    ))


def test_criterion_11_divergence_trial_grid():
    t0 = time.monotonic()
    cfg = ModelConfig(d=4, n=3, k=3, m=8, heads=1, depth=8, placement="peri",
                      delta_t=1.0, activation="tanh", epsilon=1e-5)
    base = TrainConfig(cfg=cfg, task="mean_regression", steps=60, lr=0.009,
                       momentum=0.9, batch_size=2)
    result = stability_trial(base, ["off", "pre", "peri"], [0.0, 0.3], list(range(20)))
    c = result.counts
    off, pre, peri = c[("off", 0.0)], c[("pre", 0.0)], c[("peri", 0.0)]
    pre_decay = c[("pre", 0.3)]
    peri_decay = c[("peri", 0.3)]
    elapsed = time.monotonic() - t0
    ok = (
        off >= pre >= peri and peri == 0 and peri_decay == 0
        and pre_decay <= pre and elapsed <= 600.0
    )
    verdict(11, ok, (
        f"20-seed aggressive grid: off={off} >= pre={pre} >= peri={peri}=0; "
        f"pre with decay {pre_decay} <= {pre}; {elapsed:.0f}s (budget 600s)"
    ))


def test_criterion_12_delta_t_shrinks_layer_increments():
    bad = 0
    for seed in range(20):
        cfg1 = ModelConfig(d=6, n=4, k=4, m=8, heads=1, depth=12, placement="peri", delta_t=1.0)
        cfg01 = replace(cfg1, delta_t=0.1)
        params = random_model(cfg1, RngStream(seed))
        X = RngStream(seed, 9).generator().normal(size=(6, 4))
        t1 = model_forward(X, params, cfg1)
        t01 = model_forward(X, params, cfg01)
        for i in range(cfg1.depth):
            inc1 = np.linalg.norm(t1.states[i + 1] - t1.states[i])
            inc01 = np.linalg.norm(t01.states[i + 1] - t01.states[i])
            if not inc01 < inc1:
                bad += 1
    verdict(12, bad == 0, (
        f"dt=0.1 increments strictly below dt=1 at every layer on 20 models "
        f"({bad} violations)"
    ))


def test_criterion_13_byte_identical_reruns():
    """Each criterion's machinery, run twice with the same seed, must produce
    byte-identical serialized output."""
    from lnlab.reports import BOUNDS_COLUMNS, GRADCHECK_COLUMNS, TRIALS_COLUMNS, format_value
    from lnlab import gradcheck

    def serialize(rows, columns):
        return "\n".join(
            ",".join(format_value(r.get(c)) for c in columns) for r in rows
        ).encode()

    digests = []

    def run_once():
        parts = []
        parts.append(serialize(gradcheck.run_all(2, seed=13), GRADCHECK_COLUMNS))
        bounds = (
            suites.run_growth_suite(4, seed=13)
            + suites.run_pathwise_suite(4, seed=13)
            + suites.run_chain_suite(4, seed=13)
            + suites.run_wasserstein_suite(2, seed=13, n_samples=8)
        )
        parts.append(serialize([r.to_row() for r in bounds], BOUNDS_COLUMNS))
        witness = suites.divergence_witness(3, master_seed=13)
        parts.append(
            ("|".join(f"{o.chain_ma!r}:{o.peri_ma!r}" for o in witness)).encode()
        )
        rescale = suites.run_rescale_suite(3, seed=13, epsilon=1e-5)
        parts.append(repr(rescale).encode())
        cfg = ModelConfig(d=4, n=3, k=3, m=8, heads=1, depth=4, placement="peri",
                          delta_t=1.0, epsilon=1e-5)
        base = TrainConfig(cfg=cfg, steps=10, lr=0.009, momentum=0.9, batch_size=2)
        sweep = stability_trial(base, ["pre", "peri"], [0.0], [0, 1])
        parts.append(serialize(sweep.rows(), TRIALS_COLUMNS))
        maximizer = control.hamiltonian_maximizer(
            RngStream(13, 2).generator().normal(size=(4, 3)),
            np.ones(4), np.zeros(4),
        )
        parts.append(maximizer.tobytes())
        return b"\x00".join(parts)

    digests.append(run_once())
    digests.append(run_once())
    verdict(13, digests[0] == digests[1],
            f"two invocations serialized to {len(digests[0])} identical bytes")
