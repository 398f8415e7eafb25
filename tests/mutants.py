"""A catalogue of mutants, and a runner that lists the tests each one fails.

    python tests/mutants.py                      # every mutant, the Tier-1 suite
    python tests/mutants.py solver-u-path-rows   # named mutants only
    python tests/mutants.py --tests tests/test_numerics.py -- cost-no-abs

A mutant is a ``(file, old, new)`` triple: ``old`` must occur exactly once in
``file`` (a path under the repository root), and the mutant replaces it with
``new``.  For each mutant the runner copies the tree into a temporary
directory, applies the mutant there, runs the Tier-1 command (or the test
ids given with ``--tests``) in that copy, and prints the failing tests.  The
checkout itself is never written.  A mutant that no test fails, or that only
pinned bits fail (``TestStepBits``, the goldens), marks a check that is
missing.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_results", ".benchmarks"
)
TIMEOUT_S = 900

MUTANTS = {
    # the assignment solver's dual update: the rows matched along the path
    # keep their old potentials
    "solver-u-path-rows": (
        "src/lnlab/numerics.py",
        "            u[row[c]] += reach - r\n",
        "            pass\n",
    ),
    # the predecessor is the last scanned row at the minimum, not the first
    "solver-last-seen-row": (
        "src/lnlab/numerics.py",
        "i = rows[int(seen[: len(rows), j].argmin())]",
        "i = rows[len(rows) - 1 - int(seen[len(rows) - 1 :: -1, j].argmin())]",
    ),
    # the row reduction's duals are not set: matched rows keep u = 0
    "solver-arr-stale-duals": (
        "src/lnlab/numerics.py",
        "u = [cost_rows[i].item(j) - v.item(j) if j >= 0 else 0.0 for i, j in enumerate(col)]",
        "u = [0.0] * n",
    ),
    # the cost matrix takes no absolute value
    "cost-no-abs": (
        "src/lnlab/numerics.py",
        "        np.abs(diff, out=diff)\n",
        "",
    ),
    # W_2's matched costs sum |a - b|, not its square
    "cost-p2-no-square": (
        "src/lnlab/numerics.py",
        "(flat_a - flat_b[col]) ** 2",
        "abs(flat_a - flat_b[col])",
    ),
    # the Gram ranking adds 2 a.b in place of subtracting it
    "w2-gram-sign": (
        "src/lnlab/numerics.py",
        "(-2.0 * cb)",
        "(2.0 * cb)",
    ),
    # W_2's matched costs pair a_i with b_i, not with b_col[i]
    "w2-matched-unpermuted": (
        "src/lnlab/numerics.py",
        "(flat_a - flat_b[col])",
        "(flat_a - flat_b)",
    ),
    # the data-wise variance of the growth pair also takes x0's terminal entry
    "growth-datawise-includes-x0": (
        "src/lnlab/diagnostics.py",
        "_datawise_row(inputs, pushed[1:],",
        "_datawise_row(inputs, pushed[:],",
    ),
    # the growth pair's entry moments read the last input's terminal state
    "growth-moments-last-slice": (
        "src/lnlab/diagnostics.py",
        "_growth_rows(x0, pushed[0],",
        "_growth_rows(x0, pushed[-1],",
    ),
    # the entry mean-absolute growth bound at 3 D in place of 2 D
    "growth-ma-rhs-3d": (
        "src/lnlab/diagnostics.py",
        "ma_rhs = x0_frob / np.sqrt(nd) + 2.0 * cfg.depth",
        "ma_rhs = x0_frob / np.sqrt(nd) + 3.0 * cfg.depth",
    ),
    # the entry variance growth bound without its dt
    "growth-var-rhs-no-dt": (
        "src/lnlab/diagnostics.py",
        "var_rhs = (x0_frob + 2.0 * cfg.depth * cfg.delta_t * np.sqrt(nd)",
        "var_rhs = (x0_frob + 2.0 * cfg.depth * np.sqrt(nd)",
    ),
    # a population member pushes one block past its depth before it leaves
    "population-late-exit": (
        "src/lnlab/model.py",
        "live = sum(depth > j for depth in depths)",
        "live = sum(depth >= j for depth in depths)",
    ),
    # every member's gamma_max and beta_max are taken over the whole population
    "population-shared-extrema": (
        "src/lnlab/diagnostics.py",
        "np.maximum.reduce(np.abs(t).reshape(live, -1), axis=1)",
        "np.abs(t).max()",
    ),
    # the residual adds half the scaled sublayer output, at every dt
    "residual-half-update": (
        "src/lnlab/model.py",
        "out = X + cfg.delta_t * y",
        "out = X + 0.5 * cfg.delta_t * y",
    ),
    # ... and the reverse sweep halves the gradient into the sublayer
    "residual-half-gradient": (
        "src/lnlab/model.py",
        "gupdate = cfg.delta_t * g",
        "gupdate = 0.5 * cfg.delta_t * g",
    ),
    # the same sum in another order: a rounding change only
    "ln-vjp-grouping": (
        "src/lnlab/normalization.py",
        "return (ghat - _column_mean(ghat) - proj) / s,",
        "return (ghat - (_column_mean(ghat) + proj)) / s,",
    ),
    # 1/k in place of 1/sqrt(k) in the score gradients
    "attn-vjp-scale": (
        "src/lnlab/attention.py",
        "    scale = 1.0 / math.sqrt(p.key_dim)\n    g = gbar",
        "    scale = 1.0 / p.key_dim\n    g = gbar",
    ),
    # W1's gradient transposed, then laid out in W1's shape
    "ffn-vjp-transpose": (
        "src/lnlab/attention.py",
        "gw1 = gpre @ Z.mT",
        "gw1 = (gpre @ Z.mT).mT.reshape(gpre.shape[:-1] + Z.shape[-2:-1])",
    ),
    # decay shrinks the LN gains and biases too
    "decay-mask": (
        "src/lnlab/training.py",
        "(tc.weight_decay if s.fan_in else 0.0)",
        "tc.weight_decay",
    ),
    # the gradient is gathered in name order, not in the order the rows lay the tensors out
    "layout-gather-order": (
        "src/lnlab/training.py",
        "keys = [s.name for s in slots]",
        "keys = sorted(s.name for s in slots)",
    ),
    # a bounds-suite population ordered shallowest first
    "peri-suite-ascending-depth": (
        "src/lnlab/suites.py",
        "key=lambda k: -cfgs[k].depth",
        "key=lambda k: cfgs[k].depth",
    ),
    # every instance in each delta_t's population, whatever its own delta_t
    "peri-suite-one-group": (
        "src/lnlab/suites.py",
        "if cfgs[k].delta_t == dt]",
        "if True]",
    ),
    # a member's rows read the last slices of its padded stack: a pathwise pair reads
    # two copies of its last state
    "peri-suites-pad-rows": (
        "src/lnlab/suites.py",
        "pushed[t, :len(stack)]",
        "pushed[t, width - len(stack):]",
    ),
    # a failed population is replayed one member at a time from the last member back
    "peri-suite-replay-order": (
        "src/lnlab/suites.py",
        "lambda k: push([k])",
        "lambda k: push([len(members) - 1 - k])",
    ),
    # a stack of chains takes each layer's smallest denominator over the whole stack
    "chain-stack-shared-min": (
        "src/lnlab/model.py",
        "s.min(axis=(-2, -1))",
        "s.min()",
    ),
    # m <- momentum * (m + g) in place of momentum * m + g
    "momentum-update": (
        "src/lnlab/training.py",
        "        m *= tc.momentum\n        m += g\n",
        "        m += g\n        m *= tc.momentum\n",
    ),
    # a bound row exactly at the margin tolerance fails
    "margin-strict": (
        "src/lnlab/cli.py",
        '_number(r, "margin", label) >= MARGIN_TOLERANCE',
        '_number(r, "margin", label) > MARGIN_TOLERANCE',
    ),
    # a bound row passes only at a margin of 0 or more
    "margin-zero-tolerance": (
        "src/lnlab/cli.py",
        '_number(r, "margin", label) >= MARGIN_TOLERANCE',
        '_number(r, "margin", label) >= 0.0',
    ),
    # a gradcheck row exactly at its tolerance fails
    "rel-err-strict": (
        "src/lnlab/cli.py",
        'if not _number(r, "rel_err", label) <= (',
        'if not _number(r, "rel_err", label) < (',
    ),
    # every gradcheck category at the params tolerance
    "rel-err-one-tolerance": (
        "src/lnlab/cli.py",
        'PARAM_TOLERANCE if r.get("category") == "params" else GRADCHECK_TOLERANCE',
        "PARAM_TOLERANCE",
    ),
    # the ordering contract no longer needs peri = 0
    "contract-peri-nonzero": (
        "src/lnlab/cli.py",
        "off >= pre >= peri == 0,",
        "off >= pre >= peri,",
    ),
    # the ordering contract no longer compares off with pre
    "contract-off-pre": (
        "src/lnlab/cli.py",
        "off >= pre >= peri == 0,",
        "pre >= peri == 0,",
    ),
    # the highest decay must lower the pre count, not only not raise it
    "contract-decay-strict": (
        "src/lnlab/cli.py",
        "            hi <= lo,\n",
        "            hi < lo,\n",
    ),
    # gradcheck's relative error divides by the analytic norm only
    "rel-error-analytic-denominator": (
        "src/lnlab/gradcheck.py",
        "denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)",
        "denom = max(float(np.linalg.norm(a)), 1e-12)",
    ),
    # ... or compares the two norms, not the difference
    "rel-error-norm-difference": (
        "src/lnlab/gradcheck.py",
        "return float(np.linalg.norm(a - b)) / denom",
        "return abs(float(np.linalg.norm(a)) - float(np.linalg.norm(b))) / denom",
    ),
}


def mutate(text: str, file: str, old: str, new: str) -> str:
    """``text``, the contents of ``file``, with its one ``old`` replaced; refuse any other count."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{file}: the mutant's old text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def failing_tests(output: str) -> list[str]:
    """The ids that pytest's short summary marks FAILED or ERROR."""
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE)


def _where(test: str) -> str:
    """A test id's class, or its function outside a class, without parameters."""
    parts = test.split("[", 1)[0].split("::")
    return "::".join(parts[:2])


def run_mutant(name: str, tests: list[str]) -> tuple[list[str], str, float]:
    """(failing test ids, pytest's last line, seconds) of one mutant, in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="lnlab-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        file = tree / MUTANTS[name][0]
        file.write_text(mutate(file.read_text(), *MUTANTS[name]))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *TIER1, *tests], cwd=tree, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            return failing_tests(out), f"killed after {TIMEOUT_S} s", time.perf_counter() - t0
        lines = out.strip().splitlines()
        return failing_tests(out), lines[-1] if lines else "", time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tests", nargs="+", default=[], help="test ids in place of the Tier-1 suite")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    names = args.names or list(MUTANTS)
    for name in names:  # refuse a stale catalogue before any run
        mutate((ROOT / MUTANTS[name][0]).read_text(), *MUTANTS[name])
    table, survivors = [], 0
    for name in names:
        failed, last, seconds = run_mutant(name, args.tests)
        survivors += not failed
        print(f"## {name}: {len(failed)} failing ({last}; {seconds:.0f} s)", flush=True)
        for test in failed:
            print(f"   {test}", flush=True)
        table.append(f"| {name} | {len(failed)} | {', '.join(dict.fromkeys(map(_where, failed))) or '-'} |")
    print("\n| mutant | failing | where |\n|---|---|---|")
    print("\n".join(table))
    print(f"{len(names)} mutants, {survivors} with no failing test")
    return int(survivors > 0)

if __name__ == "__main__":
    sys.exit(main())
