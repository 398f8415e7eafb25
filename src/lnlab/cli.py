"""Command-line surface: reproducible diagnostic runs and report emission.

Subcommands: gradcheck, bounds, diagnose, train, sweep, ot-check, report.
Configuration comes from a JSON file with full defaulting (unknown keys,
values not of their default's type and NaN or infinite floats are rejected);
flags override file values.  The ``model`` and ``train`` sections are
``ModelConfig``'s and ``TrainConfig``'s fields at their defaults.  Every
range is that of the library object the value fills (``ModelConfig``,
``TrainConfig``, ``first_repeat``, the transport checks); the CLI builds
them all before any work and names the config path.
Every report is a CSV file that ``_out_path`` names, where a command writes
it and ``report`` finds it.  Which rows of a report fail is decided in one
place, ``CHECKS``, against constant tolerances: a command and ``report``
apply the same rule.  Exit codes: 0 all selected checks pass,
1 a check failed (first failing row printed), 2 bad config, report or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from itertools import permutations
from numbers import Real
from pathlib import Path

import numpy as np

from . import gradcheck, suites
from .diagnostics import layer_moments
from .model import ModelConfig, model_forward, random_model
from .numerics import RngStream, check_order, check_sample_count, wasserstein_exact
from .reports import (
    BOUNDS_COLUMNS,
    GRADCHECK_COLUMNS,
    MOMENTS_COLUMNS,
    TRIALS_COLUMNS,
    format_value,
    read_report,
    write_report,
)
from .training import SweepResult, TrainConfig, first_repeat, stability_trial

# a bounds or ot row fails below this margin, a gradcheck row above its rel_err
MARGIN_TOLERANCE = -1e-9
GRADCHECK_TOLERANCE = 1e-6
PARAM_TOLERANCE = 1e-5

DEFAULTS = {
    "seed": 0,
    "output": ".",
    # the training run's model and seed are the model section and the master seed
    "model": {f.name: f.default for f in fields(ModelConfig)},
    "train": {f.name: f.default for f in fields(TrainConfig) if f.name not in ("cfg", "seed")},
    "diagnostics": {
        "instances": 20,
        "depths": [8, 16, 32, 64],
        "delta_ts": [1.0, 0.1],
        "wasserstein_samples": 32,
        "wasserstein_p": 2.0,
        "chain_depth": 16,
    },
    "sweep": {
        "placements": ["off", "pre", "peri"],
        "weight_decays": [0.0, 0.3],
        "seeds": 20,
    },
}


# sections whose int fields count things (at least 1) and whose lists are
# grids to run over (non-empty)
_COUNTED = ("diagnostics", "sweep")


class ConfigError(ValueError):
    pass


def _fits(default, value) -> bool:
    """Whether ``value`` has the type of ``default``.  An int fits a float, a
    list fits when each item fits the default's first item, and a null
    default (``train.dataset_size``) takes null or an int."""
    if isinstance(value, bool):
        return isinstance(default, bool)
    if default is None:
        return value is None or isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    return isinstance(value, type(default))


def _nonfinite_at(value) -> str | None:
    """The suffix ('[i]' for item i of a list, '' for a scalar) of the first
    item of ``value`` that is NaN or an infinity (``json.loads`` accepts them)."""
    items = [(f"[{i}]", v) for i, v in enumerate(value)] if isinstance(value, list) else [("", value)]
    return next((at for at, v in items if isinstance(v, float) and not math.isfinite(v)), None)


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
        elif not _fits(defaults[key], value):
            raise ConfigError(
                f"config field {where!r} must be of type {type(defaults[key]).__name__}, got {value!r}"
            )
        elif (at := _nonfinite_at(value)) is not None:
            raise ConfigError(f"config field '{where}{at}' must be finite, got {value!r}")
        elif path in _COUNTED and value == []:
            raise ConfigError(f"config field {where!r} must be non-empty")
        elif path in _COUNTED and type(defaults[key]) is int and value < 1:
            raise ConfigError(f"config field {where!r} must be at least 1, got {value!r}")
        else:
            # an int given for a float field, or for an item of a float list,
            # is stored as that float
            if isinstance(defaults[key], float):
                value = float(value)
            elif isinstance(defaults[key], list) and isinstance(defaults[key][0], float):
                value = [float(v) for v in value]
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULTS))  # a copy the caller may change
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(load_config(None), raw, "")


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Merge the given flags over ``cfg``, checked as config values are."""
    def given(**values):
        return {key: value for key, value in values.items() if value is not None}

    return _merge(cfg, {
        **given(seed=args.seed, output=args.out),
        "model": given(placement=args.placement, delta_t=args.delta_t, depth=args.depth),
        "diagnostics": given(instances=args.instances),
    }, "")


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(cfg=model_config(cfg), seed=cfg["seed"], **cfg["train"])


def _named(where: str, build, *args):
    """``build(*args)``, with a ValueError it raises made a ConfigError that
    gives ``where``, the config path, before the library's own words."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_sections(cfg: dict) -> None:
    """Build, before any work, every library object a command builds from the
    config (per section and per grid item), so that a value the library
    refuses is named by its config path; the CLI states no range itself."""
    mc = _named("config section 'model'", model_config, cfg)
    tc = _named("config section 'train'", train_config, cfg)
    grids = {
        "diagnostics.depths": lambda v: replace(mc, depth=v),
        "diagnostics.delta_ts": lambda v: replace(mc, delta_t=v),
        "sweep.placements": lambda v: replace(mc, placement=v),
        "sweep.weight_decays": lambda v: replace(tc, weight_decay=v),
    }
    for where, build in grids.items():
        section, key = where.split(".")
        items = cfg[section][key]
        for i, item in enumerate(items):
            _named(f"config field '{where}[{i}]'", build, item)
        if section == "sweep" and (i := first_repeat(items)) is not None:
            raise ConfigError(f"config field '{where}[{i}]' repeats {items[i]!r}")
    diag_cfg = cfg["diagnostics"]
    _named("config field 'diagnostics.wasserstein_samples'",
           check_sample_count, diag_cfg["wasserstein_samples"])
    _named("config field 'diagnostics.wasserstein_p'", check_order, diag_cfg["wasserstein_p"])


def _out_path(cfg: dict, stem: str) -> Path:
    """Where a command writes, and ``report`` looks for, the report ``stem``."""
    return Path(cfg["output"]) / f"{stem}.csv"


# ---------------------------------------------------------------------------
# Verdicts: which rows of a report fail
# ---------------------------------------------------------------------------

def _cell(row: dict, column: str, label: str, kind: type, what: str):
    value = row.get(column)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{label}: column {column!r} must hold {what}, got {value!r}")
    return value


def _number(row: dict, column: str, label: str) -> float:
    return _cell(row, column, label, Real, "a number")


def _describe(row: dict) -> str:
    """A row as ``column=value`` pairs, each value as its report file spells it."""
    return " ".join(f"{column}={format_value(value)}" for column, value in row.items())


# each check is written so that a NaN fails it
def _margin_fails(rows: list[dict], label: str) -> list[dict]:
    return [r for r in rows if not _number(r, "margin", label) >= MARGIN_TOLERANCE]


def _rel_err_fails(rows: list[dict], label: str) -> list[dict]:
    return [
        r for r in rows
        if not _number(r, "rel_err", label) <= (
            PARAM_TOLERANCE if r.get("category") == "params" else GRADCHECK_TOLERANCE
        )
    ]


def _trial_contract_fails(rows: list[dict], label: str) -> list[dict]:
    """Divergence-count contract: off >= pre >= peri with peri = 0 at the
    lowest decay, and the highest decay not raising the pre count.  Each is
    evaluated only when every slice it reads is present; the failing ones
    come back as rows, after every row that no count can take: a NaN decay,
    which no slice holds, or a ``diverged`` cell other than 0 or 1, which
    would move its slice's count by other than one trial."""
    counts, failing = {}, []
    for r in rows:
        placement = _cell(r, "placement", label, str, "text")
        wd, diverged = _number(r, "weight_decay", label), _number(r, "diverged", label)
        if wd != wd or diverged not in (0, 1):  # a NaN key matches no slice lookup
            failing.append(r)
        else:
            counts[(placement, wd)] = counts.get((placement, wd), 0) + diverged
    decays = sorted({wd for _, wd in counts})
    contracts = []
    if decays and all((p, decays[0]) in counts for p in ("off", "pre", "peri")):
        off, pre, peri = (counts[(p, decays[0])] for p in ("off", "pre", "peri"))
        contracts.append((
            {"contract": "ordering", "weight_decay": decays[0], "off": off, "pre": pre, "peri": peri},
            off >= pre >= peri == 0,
        ))
    if len(decays) >= 2 and all(("pre", wd) in counts for wd in (decays[0], decays[-1])):
        lo, hi = counts[("pre", decays[0])], counts[("pre", decays[-1])]
        contracts.append((
            {"contract": "pre_decay_effect", "low_decay": decays[0], "pre_low": lo,
             "high_decay": decays[-1], "pre_high": hi},
            hi <= lo,
        ))
    for row, ok in contracts:
        print(f"{label} {_describe(row)} -> {'PASS' if ok else 'FAIL'}")
    return failing + [row for row, ok in contracts if not ok]


# report stem -> the rows of that report that fail; trials are judged as a
# whole by the divergence-count contract
CHECKS = {
    "bounds": _margin_fails,
    "ot": _margin_fails,
    "gradcheck": _rel_err_fails,
    "trials": _trial_contract_fails,
}


def _judge(stem: str, rows: list[dict], label: str) -> int:
    """Print the verdict on one report and its first failing row; 0 or 1.
    No command writes a report without rows, so one (a truncated file) is malformed."""
    if not rows:
        raise ConfigError(f"{label}: no rows")
    failing = CHECKS[stem](rows, label)
    print(f"{'FAIL' if failing else 'PASS'} {label}: {len(rows)} rows, {len(failing)} failing")
    if failing:
        print(f"first failing row: {_describe(failing[0])}")
    return int(bool(failing))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gradcheck(cfg: dict) -> int:
    rows = gradcheck.run_all(cfg["diagnostics"]["instances"], cfg["seed"])
    write_report(rows, GRADCHECK_COLUMNS, _out_path(cfg, "gradcheck"))
    for category in gradcheck.CATEGORIES:
        worst = max(r["rel_err"] for r in rows if r["category"] == category)
        print(f"gradcheck {category}: max rel err {worst:.3e}")
    return _judge("gradcheck", rows, "gradcheck")


def cmd_bounds(cfg: dict) -> int:
    diag_cfg = cfg["diagnostics"]
    seed = cfg["seed"]
    n = diag_cfg["instances"]
    reports = suites._peri_suite(  # the growth and pathwise suites' rows, from one population per delta_t
        (0, 1), n, seed, (tuple(diag_cfg["depths"]), suites._PATHWISE_DEPTHS), tuple(diag_cfg["delta_ts"]))
    reports += suites.run_chain_suite(n, seed, depth=diag_cfg["chain_depth"])
    rows = [r.to_row() for r in reports]
    write_report(rows, BOUNDS_COLUMNS, _out_path(cfg, "bounds"))
    print(f"bounds: {len(rows)} checks, min margin {min(r['margin'] for r in rows):.3e}")
    return _judge("bounds", rows, "bounds")


def _moments_rows(layers, mc: ModelConfig, seed: int) -> list[dict]:
    """One moments row per layer state, from ``numerics.Moments`` values."""
    return [
        {
            "layer": i, "ma": mo.mean_abs, "var": mo.var, "frob": mo.frob,
            "seed": seed, "placement": mc.placement, "delta_t": mc.delta_t,
        }
        for i, mo in enumerate(layers)
    ]


def cmd_diagnose(cfg: dict) -> int:
    mc = model_config(cfg)
    stream = RngStream(cfg["seed"])
    params = random_model(mc, stream.child(0))
    x0 = stream.child(1).generator().normal(size=(mc.d, mc.n))
    tape = model_forward(x0, params, mc)
    rows = _moments_rows(layer_moments(tape), mc, cfg["seed"])
    write_report(rows, MOMENTS_COLUMNS, _out_path(cfg, "moments"))
    print(f"diagnose: wrote {len(rows)} layer rows for placement {mc.placement}")
    return 0


def _trials(cfg: dict, placements: list, weight_decays: list, seeds: list) -> SweepResult:
    """Run ``stability_trial`` over a grid of the config's training run; write
    the trials report and, at the first decay, each trial's final moments."""
    tc = train_config(cfg)
    result = stability_trial(tc, placements, weight_decays, seeds)
    write_report(result.rows(), TRIALS_COLUMNS, _out_path(cfg, "trials"))
    mrows = []
    for (placement, wd, seed), outcome in sorted(result.outcomes.items()):
        if wd == weight_decays[0] and outcome.moment_curves:
            mc = replace(tc.cfg, placement=placement)
            mrows += _moments_rows(outcome.moment_curves[-1][1], mc, seed)
    write_report(mrows, MOMENTS_COLUMNS, _out_path(cfg, "moments"))
    return result


def cmd_train(cfg: dict) -> int:
    """The one-point sweep: the config's placement, weight decay and seed."""
    result = _trials(cfg, [cfg["model"]["placement"]], [cfg["train"]["weight_decay"]], [cfg["seed"]])
    (outcome,) = result.outcomes.values()
    where = (
        f" cause={outcome.cause} block={outcome.block} site={outcome.site}"
        if outcome.diverged else ""
    )
    print(
        f"train: diverged={outcome.diverged} "
        f"first_divergence_step={outcome.first_divergence_step} "
        f"final_loss={outcome.final_loss:.6g}{where}"
    )
    return _judge("trials", result.rows(), "train")


def cmd_sweep(cfg: dict) -> int:
    sweep_cfg = cfg["sweep"]
    seeds = list(range(cfg["seed"], cfg["seed"] + sweep_cfg["seeds"]))
    result = _trials(cfg, sweep_cfg["placements"], sweep_cfg["weight_decays"], seeds)
    for (placement, wd), count in sorted(result.counts.items()):
        print(f"sweep: placement={placement} weight_decay={wd} diverged={count}/{len(seeds)}")
    return _judge("trials", result.rows(), "sweep")


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
    print(f"ot-check: assignment vs brute force, worst |diff| {worst:.3e}")
    if worst > 1e-12:
        print("FAIL ot-check assignment")
        return 1
    # bound instances with exact W_p
    reports = suites.run_wasserstein_suite(
        max(1, diag_cfg["instances"] // 2), seed,
        n_samples=diag_cfg["wasserstein_samples"], p=diag_cfg["wasserstein_p"],
    )
    rows = [r.to_row() for r in reports]
    write_report(rows, BOUNDS_COLUMNS, _out_path(cfg, "ot"))
    print(f"ot-check: {len(rows)} transport bounds, min margin {min(r['margin'] for r in rows):.3e}")
    return _judge("ot", rows, "ot-check")


def cmd_report(cfg: dict) -> int:
    found = [(stem, _out_path(cfg, stem)) for stem in CHECKS if _out_path(cfg, stem).exists()]
    if not found:
        print(f"report: no report files found under {Path(cfg['output'])}", file=sys.stderr)
        return 2
    status = max([_judge(stem, read_report(path), path.name) for stem, path in found])
    print("report:", "all checks pass" if status == 0 else "FAILURES present")
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

HANDLERS = {
    "gradcheck": cmd_gradcheck,
    "bounds": cmd_bounds,
    "diagnose": cmd_diagnose,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "ot-check": cmd_ot_check,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnlab",
        description="Stability diagnostics for normalization-placement transformer models",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--placement", help="normalization placement")
    parser.add_argument("--delta-t", dest="delta_t", type=float, help="residual step scale")
    parser.add_argument("--depth", type=int, help="number of blocks")
    parser.add_argument("--instances", type=int, help="randomized suite size")
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("command", choices=tuple(HANDLERS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        _check_sections(cfg)
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
