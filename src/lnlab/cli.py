"""Command-line surface: reproducible diagnostic runs and report emission.

Subcommands: gradcheck, bounds, diagnose, train, sweep, ot-check, report.
Configuration comes from a JSON file with full defaulting (unknown keys are
rejected); flags override file values.  Exit codes: 0 all selected checks
pass, 1 a check failed (first failing row printed), 2 bad config or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np

from . import gradcheck, suites
from .diagnostics import BoundReport
from .model import PLACEMENTS, ModelConfig, model_forward, random_model
from .numerics import RngStream, moments, wasserstein_exact
from .reports import (
    BOUNDS_COLUMNS,
    CSV,
    GRADCHECK_COLUMNS,
    MOMENTS_COLUMNS,
    TRIALS_COLUMNS,
    read_report,
    write_report,
)
from .training import TrainConfig, stability_trial, train_run

MARGIN_TOLERANCE = -1e-9

DEFAULTS = {
    "seed": 0,
    "output": ".",
    "format": "csv",
    "model": {
        "d": 6, "n": 4, "k": 4, "m": 8, "heads": 1, "depth": 8,
        "placement": "peri", "delta_t": 1.0, "activation": "tanh", "epsilon": 1e-5,
    },
    "train": {
        "task": "mean_regression", "steps": 60, "lr": 0.009, "momentum": 0.9,
        "weight_decay": 0.0, "batch_size": 2, "divergence_threshold": 1e8,
        "noise_std": 0.1, "checkpoint_every": 10, "dataset_size": None,
    },
    "diagnostics": {
        "instances": 20,
        "depths": [8, 16, 32, 64],
        "delta_ts": [1.0, 0.1],
        "wasserstein_samples": 32,
        "wasserstein_p": 2.0,
        "chain_depth": 16,
        "witness_seeds": 20,
        "gradcheck_tolerance": 1e-6,
        "param_tolerance": 1e-5,
    },
    "sweep": {
        "placements": ["off", "pre", "peri"],
        "weight_decays": [0.0, 0.3],
        "seeds": 20,
    },
}


class ConfigError(ValueError):
    pass


def _merge(defaults: dict, override: dict, path: str) -> dict:
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {where!r} must be an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULTS))
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULTS, raw, "")


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.placement is not None:
        cfg["model"]["placement"] = args.placement
    if args.delta_t is not None:
        cfg["model"]["delta_t"] = args.delta_t
    if args.depth is not None:
        cfg["model"]["depth"] = args.depth
    if args.instances is not None:
        cfg["diagnostics"]["instances"] = args.instances
    if args.out is not None:
        cfg["output"] = args.out
    if args.format is not None:
        cfg["format"] = args.format
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(cfg=model_config(cfg), seed=cfg["seed"], **cfg["train"])


def _out_path(cfg: dict, stem: str) -> Path:
    ext = "csv" if cfg["format"] == CSV else "jsonl"
    return Path(cfg["output"]) / f"{stem}.{ext}"


def _fail(row: dict, label: str) -> int:
    print(f"FAIL {label}: {row}")
    return 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gradcheck(cfg: dict) -> int:
    diag_cfg = cfg["diagnostics"]
    rows = gradcheck.run_all(diag_cfg["instances"], cfg["seed"])
    write_report(rows, GRADCHECK_COLUMNS, _out_path(cfg, "gradcheck"), cfg["format"])
    status = 0
    for category in gradcheck.CATEGORIES:
        cat_rows = [r for r in rows if r["category"] == category]
        worst = max(r["rel_err"] for r in cat_rows)
        tol = (
            diag_cfg["param_tolerance"]
            if category == "params"
            else diag_cfg["gradcheck_tolerance"]
        )
        print(f"gradcheck {category}: max rel err {worst:.3e} (tol {tol:g})")
        if worst > tol and status == 0:
            status = _fail(max(cat_rows, key=lambda r: r["rel_err"]), f"gradcheck {category}")
    return status


def _bound_rows(reports: list[BoundReport]) -> list[dict]:
    return [r.to_row() for r in reports]


def cmd_bounds(cfg: dict) -> int:
    diag_cfg = cfg["diagnostics"]
    seed = cfg["seed"]
    n = diag_cfg["instances"]
    reports = []
    reports += suites.run_growth_suite(
        n, seed, tuple(diag_cfg["depths"]), tuple(diag_cfg["delta_ts"])
    )
    reports += suites.run_pathwise_suite(n, seed, delta_ts=tuple(diag_cfg["delta_ts"]))
    reports += suites.run_chain_suite(n, seed, depth=diag_cfg["chain_depth"])
    rows = _bound_rows(reports)
    write_report(rows, BOUNDS_COLUMNS, _out_path(cfg, "bounds"), cfg["format"])
    print(f"bounds: {len(rows)} checks, min margin {min(r['margin'] for r in rows):.3e}")
    for row in rows:
        if row["margin"] < MARGIN_TOLERANCE:
            return _fail(row, "bounds")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    mc = model_config(cfg)
    stream = RngStream(cfg["seed"])
    params = random_model(mc, stream.child(0))
    x0 = stream.child(1).generator().normal(size=(mc.d, mc.n))
    tape = model_forward(x0, params, mc)
    rows = []
    for layer, state in enumerate(tape.states):
        mo = moments(state)
        rows.append({
            "layer": layer, "ma": mo.mean_abs, "var": mo.var, "frob": mo.frob,
            "seed": cfg["seed"], "placement": mc.placement, "delta_t": mc.delta_t,
        })
    write_report(rows, MOMENTS_COLUMNS, _out_path(cfg, "moments"), cfg["format"])
    print(f"diagnose: wrote {len(rows)} layer rows for placement {mc.placement}")
    return 0


def _moments_rows_from_outcome(outcome, mc: ModelConfig, seed: int) -> list[dict]:
    if not outcome.moment_curves:
        return []
    _, layers = outcome.moment_curves[-1]
    return [
        {
            "layer": i, "ma": mo.mean_abs, "var": mo.var, "frob": mo.frob,
            "seed": seed, "placement": mc.placement, "delta_t": mc.delta_t,
        }
        for i, mo in enumerate(layers)
    ]


def cmd_train(cfg: dict) -> int:
    tc = train_config(cfg)
    outcome = train_run(tc)
    row = {
        "placement": tc.cfg.placement,
        "weight_decay": tc.weight_decay,
        "seed": tc.seed,
        "diverged": int(outcome.diverged),
        "first_divergence_step": outcome.first_divergence_step,
        "final_loss": outcome.final_loss,
    }
    write_report([row], TRIALS_COLUMNS, _out_path(cfg, "trials"), cfg["format"])
    write_report(
        _moments_rows_from_outcome(outcome, tc.cfg, tc.seed),
        MOMENTS_COLUMNS, _out_path(cfg, "moments"), cfg["format"],
    )
    where = (
        f" cause={outcome.cause} block={outcome.block} site={outcome.site}"
        if outcome.diverged else ""
    )
    print(
        f"train: diverged={outcome.diverged} "
        f"first_divergence_step={outcome.first_divergence_step} "
        f"final_loss={outcome.final_loss:.6g}{where}"
    )
    return 0


def cmd_sweep(cfg: dict) -> int:
    tc = train_config(cfg)
    sweep_cfg = cfg["sweep"]
    seeds = list(range(sweep_cfg["seeds"]))
    result = stability_trial(tc, sweep_cfg["placements"], sweep_cfg["weight_decays"], seeds)
    write_report(result.rows(), TRIALS_COLUMNS, _out_path(cfg, "trials"), cfg["format"])
    mrows = []
    for (placement, wd, seed), outcome in sorted(result.outcomes.items()):
        if wd == sweep_cfg["weight_decays"][0]:
            mc = replace(tc.cfg, placement=placement)
            mrows += _moments_rows_from_outcome(outcome, mc, seed)
    write_report(mrows, MOMENTS_COLUMNS, _out_path(cfg, "moments"), cfg["format"])
    for (placement, wd), count in sorted(result.counts.items()):
        print(f"sweep: placement={placement} weight_decay={wd} diverged={count}/{len(seeds)}")
    return _check_trial_ordering(result.rows())


def _check_trial_ordering(rows: list[dict]) -> int:
    """Divergence-count contract: off >= pre >= peri with peri = 0, and decay
    not increasing the pre count.  Only evaluated on the slices present."""
    by = {}
    for r in rows:
        by.setdefault((r["placement"], r["weight_decay"]), []).append(int(r["diverged"]))
    counts = {k: sum(v) for k, v in by.items()}
    decays = sorted({wd for _, wd in counts})
    placements = {p for p, _ in counts}
    status = 0
    if {"off", "pre", "peri"} <= placements and decays:
        wd0 = decays[0]
        off, pre, peri = counts[("off", wd0)], counts[("pre", wd0)], counts[("peri", wd0)]
        ok = off >= pre >= peri and peri == 0
        print(f"ordering (wd={wd0}): off={off} pre={pre} peri={peri} -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            status = 1
    if "pre" in placements and len(decays) >= 2:
        lo, hi = counts[("pre", decays[0])], counts[("pre", decays[-1])]
        ok = hi <= lo
        print(f"pre decay effect: wd={decays[0]} -> {lo}, wd={decays[-1]} -> {hi} -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


def _wp_bruteforce(a: np.ndarray, b: np.ndarray, p: float) -> float:
    n = a.shape[0]
    fa, fb = a.reshape(n, -1), b.reshape(n, -1)
    cost = (np.abs(fa[:, None, :] - fb[None, :, :]) ** p).sum(axis=2)
    best = min(
        sum(cost[i, perm[i]] for i in range(n)) for perm in permutations(range(n))
    )
    return float((best / n) ** (1.0 / p))


def cmd_ot_check(cfg: dict) -> int:
    diag_cfg = cfg["diagnostics"]
    seed = cfg["seed"]
    gen = RngStream(seed, 20).generator()
    # assignment solver vs exhaustive enumeration at N = 5
    worst = 0.0
    for _ in range(diag_cfg["instances"]):
        a = gen.normal(size=(5, 3, 2))
        b = gen.normal(size=(5, 3, 2))
        p = float(gen.choice([1.0, 2.0, 3.0]))
        exact = wasserstein_exact(a, b, p)
        brute = _wp_bruteforce(a, b, p)
        worst = max(worst, abs(exact - brute))
    print(f"ot-check: hungarian vs brute force, worst |diff| {worst:.3e}")
    if worst > 1e-12:
        return _fail({"worst_diff": worst}, "ot-check hungarian")
    # bound instances with exact W_p
    reports = suites.run_wasserstein_suite(
        max(1, diag_cfg["instances"] // 2), seed,
        n_samples=diag_cfg["wasserstein_samples"], p=diag_cfg["wasserstein_p"],
    )
    rows = _bound_rows(reports)
    write_report(rows, BOUNDS_COLUMNS, _out_path(cfg, "ot"), cfg["format"])
    print(f"ot-check: {len(rows)} transport bounds, min margin {min(r['margin'] for r in rows):.3e}")
    for row in rows:
        if row["margin"] < MARGIN_TOLERANCE:
            return _fail(row, "ot-check bound")
    return 0


def cmd_report(cfg: dict) -> int:
    out = Path(cfg["output"])
    diag_cfg = cfg["diagnostics"]
    status = 0
    found = False
    for stem in ("bounds", "ot"):
        for path in (out / f"{stem}.csv", out / f"{stem}.jsonl"):
            if not path.exists():
                continue
            found = True
            rows = read_report(path)
            bad = [r for r in rows if r["margin"] < MARGIN_TOLERANCE]
            verdict = "PASS" if not bad else "FAIL"
            print(f"{verdict} {path.name}: {len(rows)} rows, {len(bad)} margin violations")
            if bad and status == 0:
                status = _fail(bad[0], stem)
    for path in (out / "gradcheck.csv", out / "gradcheck.jsonl"):
        if not path.exists():
            continue
        found = True
        rows = read_report(path)
        bad = [
            r for r in rows
            if r["rel_err"] > (
                diag_cfg["param_tolerance"] if r["category"] == "params"
                else diag_cfg["gradcheck_tolerance"]
            )
        ]
        verdict = "PASS" if not bad else "FAIL"
        print(f"{verdict} {path.name}: {len(rows)} rows, {len(bad)} over tolerance")
        if bad and status == 0:
            status = _fail(bad[0], "gradcheck")
    for path in (out / "trials.csv", out / "trials.jsonl"):
        if not path.exists():
            continue
        found = True
        rc = _check_trial_ordering(read_report(path))
        if rc and status == 0:
            status = rc
    if not found:
        print(f"report: no report files found under {out}", file=sys.stderr)
        return 2
    print("report:", "all checks pass" if status == 0 else "FAILURES present")
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnlab",
        description="Stability diagnostics for normalization-placement transformer models",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--placement", choices=PLACEMENTS)
    parser.add_argument("--delta-t", dest="delta_t", type=float, help="residual step scale")
    parser.add_argument("--depth", type=int, help="number of blocks")
    parser.add_argument("--instances", type=int, help="randomized suite size")
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("--format", choices=("csv", "jsonl"), help="report format")
    parser.add_argument(
        "command",
        choices=("gradcheck", "bounds", "diagnose", "train", "sweep", "ot-check", "report"),
    )
    return parser


HANDLERS = {
    "gradcheck": cmd_gradcheck,
    "bounds": cmd_bounds,
    "diagnose": cmd_diagnose,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "ot-check": cmd_ot_check,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return HANDLERS[args.command](cfg)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
