"""Self-test of the benchmark's tracing wrappers and timing passes.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lnlab import cli, model, training  # noqa: E402
from tracer import MODULES, Tracer, layer_metrics, unit  # noqa: E402

# one peri step at depth 2 with batch 2
TINY = training.TrainConfig(
    cfg=model.ModelConfig(d=4, n=3, k=3, m=8, heads=1, depth=2, placement="peri"),
    steps=1, batch_size=2, seed=5,
)


def _bindings() -> dict[tuple[str, str], object]:
    """Every function bound in an lnlab module, by (module, attribute)."""
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lnlab" or name.startswith("lnlab."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _cli_outputs(out: Path) -> dict[str, bytes]:
    argv = ["--seed", "3", "--depth", "2", "--instances", "2", "--out", str(out)]
    for command in ("gradcheck", "bounds", "train"):
        assert cli.main(argv + [command]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_run_gives_identical_outputs(tmp_path, capsys):
    plain = _cli_outputs(tmp_path / "plain")
    with Tracer():
        traced = _cli_outputs(tmp_path / "traced")
    assert plain.keys() == {"bounds.csv", "gradcheck.csv", "moments.csv", "trials.csv"}
    assert traced == plain
    assert repr(training.train_run(TINY)) == repr(_traced_train_run()[0])


def _traced_train_run():
    with Tracer() as tr:
        outcome = training.train_run(TINY)
    return outcome, layer_metrics(tr)


def test_call_counts_of_one_peri_step():
    _, m = _traced_train_run()
    samples, blocks, sites, tokens = 2, 2, 4, 3
    assert m["normalization.ln_vjp.calls"] == samples * blocks * sites == 16
    assert m["normalization.ln_forward_columns.calls"] == samples * blocks * sites
    assert m["normalization.ln_jacobian.calls"] == samples * blocks * sites * tokens
    assert m["normalization.vjp_jacobians_per_token"] == 1.0
    assert m["attention.attn_forward.calls"] == samples * blocks
    assert m["attention.ffn_forward.calls"] == samples * blocks
    assert m["model.model_forward.calls"] == samples
    assert m["model.backward.calls"] == samples
    assert m["model.flat_to_params.calls"] == blocks
    assert m["training.train_run.calls"] == 1
    assert m["training.steps_attempted"] == 1
    assert m["training.steps_completed"] == 1
    assert m["training.trials_diverged"] == 0
    assert m["parallel.map_indexed.calls"] == 0
    assert m["normalization.ln_vjp.self_s"] > 0.0


def test_self_times_partition_the_traced_time():
    with Tracer() as tr:
        t0 = time.thread_time()
        training.train_run(TINY)
        elapsed = time.thread_time() - t0
    self_total = sum(self_s for _, self_s in tr.stats().values())
    assert 0.5 * elapsed < self_total <= elapsed + 1e-6


def test_pool_items_are_counted_once():
    with Tracer() as tr:
        result = training.stability_trial(TINY, ["off", "peri"], [0.0], [5, 6])
    m = layer_metrics(tr)
    assert len(result.outcomes) == 4
    assert m["parallel.map_indexed.calls"] == 1
    assert m["parallel.items"] == 4
    assert m["training.train_run.calls"] == 4
    assert 1 <= m["parallel.threads"] <= 4
    assert m["parallel.item_s_sum"] > 0.0


def test_every_wrapped_attribute_is_restored():
    before = _bindings()
    tr = Tracer().install()
    patched = tr.patched
    assert {f"lnlab.{m}" for m in MODULES} <= {mod.__name__ for mod, _, _ in patched}
    for mod, attr, original in patched:
        assert getattr(mod, attr) is not original
    with pytest.raises(RuntimeError):
        tr.install()
    tr.uninstall()
    assert _bindings() == before
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _bindings() == before


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    _, m = _traced_train_run()
    emitted = set(m) | {"trace.overhead_s", "trace.overhead_share"}
    assert {d["name"] for d in spec["per_layer"]} == emitted
    assert all(d["unit"] == unit(d["name"]) for d in spec["per_layer"])
    assert {d["name"]: d["unit"] for d in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_reference_kernel_is_unchanged():
    # ratios of two commits are comparable only against the same kernel
    assert reference.run() == pytest.approx(-3.366318931890714, rel=1e-9)


def test_pass_times_each_unit_against_the_reference(tmp_path):
    seen = []
    plan = workloads.Plan(
        [workloads.Unit("kernel", lambda out: reference.run()),
         workloads.Unit("mark", lambda out: out.name)],
        lambda results, out: seen.append(list(results)) or workloads.Outcome(True, "d"),
    )
    outcome, raw, ratios = run.run_pass(plan, tmp_path)
    assert outcome.ok and seen == [[reference.run(), "u1"]]
    assert len(raw) == len(ratios) == 3  # two units and finish
    assert 0.25 < ratios[0][0] < 4.0  # the kernel against itself
    assert all(wall >= 0.0 and ratio >= 0.0 for (wall, _), (ratio, _) in zip(raw, ratios))
