"""lnlab benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload train-gradcheck --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source tree of lnlab; the package is imported
from ``src/`` next to this directory, never from an installed copy.

The workload seed resolves to a plan of short units of work.  A run makes
passes over the units in this one process, on one thread, until
``--seconds`` have passed (at least two passes).  Every pass must exit 0,
pass lnlab's own checks and produce the same output bytes as the first; a
pass that does not counts as failed.  The fixed kernel in ``reference.py``
is timed before and after every unit, and a unit's time is taken as a
multiple of the kernel's, which cancels the drift in the host's speed.
With ``--trace 0`` the run reports the end-to-end metrics: the wall and CPU
time of a pass in kernel units (each unit's median over the passes,
summed), peak resident memory of the process, and the median set-up time
of several fresh interpreters.  With ``--trace 1`` passes alternate
untraced and traced, and the run reports the per-layer metrics of the
traced ones and the tracing overhead.

Lines starting with ``#`` describe the run (header, divergence counts,
margins, raw seconds, every metric with its unit); the last line is the
JSON result.  ``--workload all`` runs every workload, each in its own
process.  ``--save FILE`` appends the header, result and samples as one JSON
line to FILE, which ``benchmarks/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# a fresh interpreter that imports numpy and nothing else; set-up is
# reported as a multiple of its launch time, times a fixed scale that turns
# the ratio into seconds (like the reference kernel, neither may change)
BARE_LAUNCH = [sys.executable, "-c", "import numpy"]
BARE_LAUNCH_S = 0.15
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The tree cannot be benchmarked; no result is printed."""


def import_lnlab():
    """Import lnlab from this tree's ``src`` and nothing else."""
    if not (SRC / "lnlab" / "__init__.py").is_file():
        raise BenchError(f"no lnlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lnlab

    if Path(lnlab.__file__).resolve().parent != (SRC / "lnlab").resolve():
        raise BenchError(f"imported lnlab from {lnlab.__file__}, not from {SRC}")
    return lnlab


def available_cores() -> int:
    """Cores this process may run on: affinity, then any cgroup quota."""
    cores = len(os.sched_getaffinity(0))
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            cores = min(cores, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return cores


def pin_threads() -> dict:
    """Run lnlab's pool on one thread unless LNLAB_THREADS is set; report it.

    On a few shared cores the default pool is slower than one thread (the
    interpreter lock serializes its workers) and its wall time follows the
    other tenants' load, so the benchmark measures the one-thread path.
    """
    from lnlab import parallel

    default = parallel.thread_count()
    pinned = "LNLAB_THREADS" not in os.environ
    if pinned:
        os.environ["LNLAB_THREADS"] = "1"
    return {
        "default_threads": default,
        "available_cores": available_cores(),
        "threads_pinned": pinned,
        "thread_count": parallel.thread_count(),
    }


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_lines() -> int:
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted((SRC / "lnlab").rglob("*.py"))
    )


def header(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "configs", "benchmarks")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        **threads,
        "env": {k: os.environ.get(k) for k in ("LNLAB_THREADS",) + BLAS_ENV},
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up sample: import, resolve, report the clock."""
    work = WORK / f"probe-{os.getpid()}"
    try:
        import_lnlab()
        from workloads import WORKLOADS

        WORKLOADS[workload].resolve(ROOT, seed, work)
        ready = time.monotonic()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"ready": ready}))
    return 0


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, bare-launch seconds) of each probe.  Set-up runs from
    launching a fresh interpreter until lnlab is imported and the workload's
    inputs are resolved (CLOCK_MONOTONIC is system-wide); the bare launch,
    timed just before, is an interpreter that only imports numpy."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        subprocess.run(BARE_LAUNCH, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
        bare = time.monotonic() - t0
        t0 = time.monotonic()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()}")
        samples.append((json.loads(res.stdout.strip().splitlines()[-1])["ready"] - t0, bare))
    return samples


def scaled_setup(samples: list[tuple[float, float]]) -> float:
    """Median set-up time scaled to a host whose bare launch takes
    BARE_LAUNCH_S: the launch follows the host's speed as set-up does, so
    the ratio does not drift with the other tenants' load."""
    return statistics.median(setup / bare for setup, bare in samples) * BARE_LAUNCH_S


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _timed(fn):
    """(result, wall seconds, process CPU seconds) of one call."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, time.process_time() - c0


def run_pass(plan, out: Path) -> tuple:
    """One pass over the plan's units, the reference kernel timed before and
    after each.  Returns the outcome and, per unit (the last is ``finish``),
    its raw (wall, CPU) seconds and its (wall, CPU) over the mean of the
    kernel's two neighbouring timings."""
    import reference

    steps = [lambda i=i, u=u: u.run(out / f"u{i}") for i, u in enumerate(plan.units)]
    results: list = []
    steps.append(lambda: plan.finish(results, out / "finish"))
    raw, ratios = [], []
    _, ref_wall, ref_cpu = _timed(reference.run)
    for step in steps:
        result, wall, cpu = _timed(step)
        results.append(result)
        _, next_wall, next_cpu = _timed(reference.run)
        raw.append((wall, cpu))
        ratios.append((2 * wall / (ref_wall + next_wall), 2 * cpu / (ref_cpu + next_cpu)))
        ref_wall, ref_cpu = next_wall, next_cpu
    return results[-1], raw, ratios


def _summed_medians(samples: list[list[float]]) -> float:
    """Time of one pass: each unit's median over the passes, summed."""
    return sum(statistics.median(s) for s in samples)


def run_workload(name: str, seed: int, seconds: int, trace: bool, save: str | None) -> int:
    import_lnlab()
    from workloads import WORKLOADS

    import tracer as tracer_mod

    threads = pin_threads()
    work = WORK / f"{name}-{os.getpid()}"
    try:
        plan = WORKLOADS[name].resolve(ROOT, seed, work / "inputs")
        setup = [] if trace else measure_setup(name, seed)
        head = header(threads)
        print("# header " + json.dumps(head, sort_keys=True))

        # samples[traced][kind][unit]: one value per successful pass, for
        # kind in wall_s, cpu_s (raw seconds), wall_ref, cpu_ref (ratios)
        kinds = ("wall_s", "cpu_s", "wall_ref", "cpu_ref")
        n = len(plan.units) + 1
        samples = {t: {k: [[] for _ in range(n)] for k in kinds} for t in (False, True)}
        pass_walls: list[float] = []
        layer_samples: list[dict] = []
        reference_digest = None
        summary: list[str] = []
        attempted = failed = 0
        start = time.perf_counter()
        while attempted < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(pass_walls) <= seconds
        ):
            traced = trace and attempted % 2 == 1
            out = work / f"pass{attempted}"
            attempted += 1
            tr = tracer_mod.Tracer() if traced else None
            p0 = time.perf_counter()
            try:
                with tr if tr is not None else contextlib.nullcontext():
                    outcome, raw, ratios = run_pass(plan, out)
            except Exception:
                failed += 1
                print(f"# pass {attempted} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                shutil.rmtree(out, ignore_errors=True)
                pass_walls.append(time.perf_counter() - p0)
            if reference_digest is None:
                reference_digest, summary = outcome.digest, outcome.summary
            if not outcome.ok or outcome.digest != reference_digest:
                failed += 1
                for problem in outcome.problems or ["outputs differ from the first pass"]:
                    print(f"# pass {attempted} failed: {problem}", file=sys.stderr)
                continue
            for i, ((wall, cpu), (wall_r, cpu_r)) in enumerate(zip(raw, ratios)):
                for kind, value in zip(kinds, (wall, cpu, wall_r, cpu_r)):
                    samples[traced][kind][i].append(value)
            if tr is not None:
                layer_samples.append(tracer_mod.layer_metrics(tr))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for line in summary:
        print(f"# {line}")
    plain = samples[False]
    if not plain["wall_s"][0] or (trace and not layer_samples):
        print("# no successful pass" + (" of each kind" if trace else ""), file=sys.stderr)
        return 1
    measured = {kind: _summed_medians(plain[kind]) for kind in kinds}
    metrics: dict[str, dict] = {}
    if trace:
        values = tracer_mod.median_metrics(layer_samples)
        overhead = _summed_medians(samples[True]["wall_s"]) - measured["wall_s"]
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / measured["wall_s"]
        for key, value in values.items():
            metrics[key] = {"value": value, "unit": tracer_mod.unit(key)}
    else:
        values = {
            "setup_s": scaled_setup(setup),
            "wall_ref": measured["wall_ref"],
            "cpu_ref": measured["cpu_ref"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"# workload {name} seed {seed}: {len(plan.units)} units, {attempted} passes, "
          f"{failed} failed, failed_ratio = {failed / attempted!r} ratio")
    kernel = statistics.median(
        wall / ratio
        for walls, ratios in zip(plain["wall_s"], plain["wall_ref"])
        for wall, ratio in zip(walls, ratios)
    )
    print(f"# raw seconds (not metrics): pass wall {measured['wall_s']!r} s, "
          f"pass cpu {measured['cpu_s']!r} s, reference kernel {kernel!r} s"
          + ("" if trace else f", set-up {statistics.median(s for s, _ in setup)!r} s, "
             f"bare launch {statistics.median(b for _, b in setup)!r} s"))
    for key, m in metrics.items():
        print(f"# {key} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if save:
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "header": head, "summary": summary, "result": result,
                  "units": [u.label for u in plan.units] + ["finish"],
                  "raw_s": {k: measured[k] for k in ("wall_s", "cpu_s")},
                  "samples": {"setup_s": setup, "pass_wall_s": pass_walls,
                              "plain": plain, "traced": samples[True]}}
        with open(save, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, one child process each; prints a combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.save:
            cmd += ["--save", args.save]
        res = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if res.returncode != 0 or not lines:
            print(f"# workload {name} exited {res.returncode}", file=sys.stderr)
            status = res.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the run's header and result to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS and not (args.workload == "all" and not args.setup_probe):
        parser.error(f"unknown workload {args.workload!r}; expected all or one of {sorted(WORKLOADS)}")
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.save)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
