"""Every ``lnlab`` name the benchmark in ``benchmarks/`` traces or calls
still resolves, so deleting one fails here instead of crashing
``benchmarks/run.py`` or leaving one of its per-layer metrics at zero."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# names the benchmark calls directly, outside the tracer's lists
CALLED = (
    "parallel.thread_count",
    "numerics.wasserstein_exact",
    "cli.main",
    "cli.load_config",
    "cli.train_config",
    "training.stability_trial",
    "training.SweepResult",
    "reports.write_report",
    "reports.TRIALS_COLUMNS",
)


def _traced() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return (*tracer.FUNCTIONS, *tracer.CHECKERS, tracer._MAP)


@pytest.mark.parametrize("name", [*_traced(), *CALLED])
def test_benchmark_name_resolves(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"lnlab.{module}"), attr), f"lnlab.{name} is gone"
