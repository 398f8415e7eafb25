"""The benchmark's workloads, driven through lnlab's public entry points.

``resolve`` turns the workload seed into a ``Plan`` (this is part of
set-up): a list of short units of work, each one call of an entry point,
and a ``finish`` step.  A pass runs every unit once, in order, then
``finish`` applies the program's own checks to the pass's outputs and
returns an ``Outcome``.  ``Outcome.digest`` covers the report bytes, trial
rows, divergence counts and the CLI's printed verdicts, never a timing, so
every pass on one seed must match it.

Units are short (0.01-2 s) so that the runner can time each one against
the reference kernel run next to it; see ``run.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The criterion-11 grid of the aggressive config: one unit per trial
# (placement, decay, seed) on a block of consecutive trial seeds.  One
# seed's six trials take about 2 s on one quiet core; the peri trials always
# run all 60 steps, and the pre trials diverge early on some seeds, so a
# seed's cost varies by 12% (standard deviation over mean, seeds 0-29) and
# six seeds are needed to bring the spread of a block's cost near 0.07.
GRID_PLACEMENTS = ("off", "pre", "peri")
GRID_DECAYS = (0.0, 0.3)
GRID_SEEDS = 6
AGGRESSIVE_CONFIG = Path("configs") / "aggressive.json"

# `lnlab gradcheck --instances 1` on a block of seeds: one instance of each
# category per seed.  The params category draws its shape from the seed, and
# one seed's run takes 0.02-0.9 s (0.25 s mean, coefficient of variation
# 0.85 over seeds 0-59), so gradcheck is kept a small share of its workload.
GRADCHECK_SEEDS = 3

# certify: `lnlab bounds --instances 4` (growth suite at depths 8-64,
# pathwise and chain suites) and `lnlab ot-check --instances 2` (one
# transport instance pushing 2 x 256 samples through eight peri blocks,
# exact Hungarian at N = 256, the cap of numerics.wasserstein_exact) on a
# block of seeds: about 2 s per seed on one quiet core.
CERTIFY_DIAGNOSTICS = {"wasserstein_samples": 256}
CERTIFY_BOUNDS_INSTANCES = 4
CERTIFY_OT_INSTANCES = 2
CERTIFY_SEEDS = 3


@dataclass
class Outcome:
    """One pass: the program's verdict, its output digest and the
    human-readable facts printed beside the metrics."""

    ok: bool
    digest: str
    summary: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


@dataclass
class Unit:
    """One timed call of an entry point; ``run(out)`` returns what
    ``Plan.finish`` needs, writing any files under ``out``."""

    label: str
    run: Callable[[Path], object]


@dataclass
class Plan:
    units: list[Unit]
    finish: Callable[[list, Path], Outcome]


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``lnlab`` in-process; returns (exit code, captured stdout)."""
    from lnlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_unit(command: str, seed: int, argv: list[str], stem: str) -> Unit:
    """``lnlab <argv> --seed <seed> <command>``, which writes ``<stem>.csv``;
    returns (exit code, stdout, report path)."""

    def run(out: Path):
        rc, text = _cli(argv + ["--seed", str(seed), "--out", str(out), command])
        return rc, text, out / f"{stem}.csv"

    return Unit(f"{command} seed={seed}", run)


class TrainGrid:
    """The divergence grid, one ``training.stability_trial`` call per trial."""

    def resolve(self, root: Path, seed: int, work: Path) -> Plan:
        from lnlab import cli, training

        base = cli.train_config(cli.load_config(str(root / AGGRESSIVE_CONFIG)))
        seeds = list(range(seed, seed + GRID_SEEDS))

        def trial(placement: str, wd: float, s: int) -> Unit:
            return Unit(
                f"trial {placement} wd={wd} seed={s}",
                lambda out: training.stability_trial(base, [placement], [wd], [s]),
            )

        units = [trial(p, wd, s) for s in seeds for p in GRID_PLACEMENTS for wd in GRID_DECAYS]
        return Plan(units, lambda results, out: self.finish(seeds, results, out))

    def finish(self, seeds: list[int], results: list, out: Path) -> Outcome:
        from lnlab import reports, training

        outcomes, counts = {}, {}
        for r in results:
            outcomes.update(r.outcomes)
            for key, count in r.counts.items():
                counts[key] = counts.get(key, 0) + count
        rows = training.SweepResult(outcomes, counts).rows()
        parts: list[bytes] = []
        problems: list[str] = []
        summary = []
        # one report directory per decay, so that `lnlab report` gates the
        # off >= pre >= peri = 0 ordering at every decay; the decay effect
        # (pre count with decay <= without) holds on the 20-seed grid but
        # not on every block of a few seeds, so it is printed, not gated
        for i, wd in enumerate(GRID_DECAYS):
            sub = out / f"wd{i}"
            reports.write_report(
                [r for r in rows if r["weight_decay"] == wd],
                reports.TRIALS_COLUMNS, sub / "trials.csv",
            )
            rc, text = _cli(["--out", str(sub), "report"])
            parts += [(sub / "trials.csv").read_bytes(), text.encode()]
            if rc != 0:
                problems.append(f"lnlab report (weight_decay={wd}) exited {rc}: {text.strip()}")
        for (placement, wd), count in sorted(counts.items()):
            summary.append(
                f"divergence placement={placement} weight_decay={wd} diverged={count}/{len(seeds)}"
            )
        lo, hi = counts[("pre", GRID_DECAYS[0])], counts[("pre", GRID_DECAYS[-1])]
        summary.append(f"decay effect on pre (not gated): {lo} -> {hi}")
        parts.append("\n".join(summary).encode())
        return Outcome(not problems, _digest(parts), summary, problems)


class Gradcheck:
    """``lnlab gradcheck --instances 1`` on each seed of a block."""

    def resolve(self, root: Path, seed: int, work: Path) -> Plan:
        seeds = list(range(seed, seed + GRADCHECK_SEEDS))
        units = [
            _cli_unit("gradcheck", s, ["--instances", "1"], "gradcheck")
            for s in seeds
        ]
        return Plan(units, lambda results, out: self.finish(seeds, results, out))

    def finish(self, seeds: list[int], results: list, out: Path) -> Outcome:
        from lnlab import reports

        parts: list[bytes] = []
        problems: list[str] = []
        worst: dict[str, float] = {}
        rows = 0
        for s, (rc, text, path) in zip(seeds, results):
            parts.append(text.encode())
            if rc != 0:
                problems.append(f"lnlab gradcheck --seed {s} exited {rc}: {text.strip()}")
                continue
            parts.append(path.read_bytes())
            for row in reports.read_report(path):
                rows += 1
                worst[row["category"]] = max(worst.get(row["category"], 0.0), row["rel_err"])
        summary = [f"gradcheck {c}: max rel err {e!r}" for c, e in worst.items()]
        summary.append(f"gradcheck: {rows} instances on seeds {seeds}")
        return Outcome(not problems, _digest(parts), summary, problems)


class Certify:
    """``lnlab bounds`` then ``lnlab ot-check`` on each seed of a block."""

    def resolve(self, root: Path, seed: int, work: Path) -> Plan:
        from lnlab import cli

        config = work / "certify.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps({"diagnostics": CERTIFY_DIAGNOSTICS}))
        cli.load_config(str(config))  # rejects a bad file during set-up
        units = []
        for s in range(seed, seed + CERTIFY_SEEDS):
            argv = ["--config", str(config), "--instances"]
            units.append(_cli_unit("bounds", s, argv + [str(CERTIFY_BOUNDS_INSTANCES)], "bounds"))
            units.append(_cli_unit("ot-check", s, argv + [str(CERTIFY_OT_INSTANCES)], "ot"))
        return Plan(units, lambda results, out: self.finish(units, results, out))

    def finish(self, units: list[Unit], results: list, out: Path) -> Outcome:
        from lnlab import reports

        parts: list[bytes] = []
        problems: list[str] = []
        margins: dict[str, list[float]] = {}
        for unit, (rc, text, path) in zip(units, results):
            parts.append(text.encode())
            if rc != 0:
                problems.append(f"lnlab {unit.label} exited {rc}: {text.strip()}")
                continue
            parts.append(path.read_bytes())
            command = unit.label.split()[0]
            margins.setdefault(command, []).extend(r["margin"] for r in reports.read_report(path))
        summary = [
            f"{command}: {len(m)} checks, min margin {min(m)!r}" for command, m in margins.items()
        ]
        return Outcome(not problems, _digest(parts), summary, problems)


class Sequence:
    """Parts run one after another on the same seed, as one workload."""

    def __init__(self, *parts):
        self.parts = parts

    def resolve(self, root: Path, seed: int, work: Path) -> Plan:
        plans = [p.resolve(root, seed, work / f"part{i}") for i, p in enumerate(self.parts)]

        def finish(results: list, out: Path) -> Outcome:
            outcomes, start = [], 0
            for i, plan in enumerate(plans):
                end = start + len(plan.units)
                outcomes.append(plan.finish(results[start:end], out / f"part{i}"))
                start = end
            return Outcome(
                all(o.ok for o in outcomes),
                _digest([o.digest.encode() for o in outcomes]),
                [line for o in outcomes for line in o.summary],
                [problem for o in outcomes for problem in o.problems],
            )

        return Plan([u for plan in plans for u in plan.units], finish)


# train-gradcheck runs every VJP and materialized Jacobian; certify runs
# forward passes only, so a VJP-only change predicts no change there.
WORKLOADS = {
    "train-gradcheck": Sequence(TrainGrid(), Gradcheck()),
    "certify": Certify(),
}
