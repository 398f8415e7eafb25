"""Call tracing for the benchmark's traced runs, done from outside lnlab.

``Tracer`` replaces every public module-level function of the traced
modules with a timing wrapper, in the defining module and in every other
``lnlab`` module (or the package itself) that bound the same function
object by ``from ... import``.  ``uninstall`` puts every original back.

Spans are kept per thread and timed with that thread's CPU clock
(``time.thread_time``): a span's self time is its CPU time minus that of
the spans it directly encloses on the same thread.  Spans opened on the
worker threads of ``parallel.map_indexed`` are roots of their own thread,
so the pool's overlapping spans are never subtracted from, or added to,
the span of the thread that waits on them, and a thread waiting for the
interpreter lock accrues nothing.  The sum of all self times is therefore
comparable to the process CPU time.  Only ``parallel.map_indexed.total_s``
is wall time, so that ``parallel.concurrency`` (item CPU time over pool wall
time) reads as the number of cores the pool kept busy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from pathlib import Path

# ``control`` stays untraced: no CLI command calls it and no roadmap item
# targets it.  ``cli`` is the entry point the workloads call into.
PACKAGE = "lnlab"
MODULES = (
    "numerics", "normalization", "attention", "model", "diagnostics",
    "training", "parallel", "reports", "suites", "gradcheck",
)

# Functions whose calls and self time are summed as ``diagnostics.checks``:
# the bound checkers, each returning a BoundReport.
CHECKERS = (
    "diagnostics.peri_growth_check",
    "diagnostics.datawise_variance_check",
    "diagnostics.pathwise_stability_check",
    "diagnostics.wasserstein_stability_check",
    "diagnostics.pre_exponential_bound",
    "diagnostics.dro_bound",
)

# Functions reported one by one as ``<key>.calls`` and ``<key>.self_s``.
FUNCTIONS = (
    "normalization.ln_vjp",
    "normalization.ln_jacobian",
    "normalization.ln_forward_columns",
    "normalization.ln_forward",
    "attention.attn_forward",
    "attention.ffn_forward",
    "attention.attn_jacobian_full",
    "attention.ffn_jacobian_blockdiag",
    "model.model_forward",
    "model.backward",
    "model.local_sensitivity",
    "model.flat_to_params",
    "numerics.min_cost_assignment",
    "numerics.spectral_norm",
    "numerics.softmax_columns",
    "training.train_run",
    "reports.write_report",
    "gradcheck.check_instance",
)

_MAP = "parallel.map_indexed"


class _ThreadState:
    """Spans and counters of one thread; merged only after tracing ends."""

    def __init__(self):
        self.stack: list[list] = []  # [key, time covered by child spans]
        self.stats: dict[str, list[float]] = {}  # key -> [calls, self_s]
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Tracer:
    """Wraps the public functions of ``MODULES``; use as a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original function) for every replaced binding."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, key: str, fn):
        after = _AFTER.get(key)
        is_map = key == _MAP
        # the one nested count a metric needs: Jacobians built inside a VJP
        is_jacobian = key == "normalization.ln_jacobian"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            if is_jacobian and stack and stack[-1][0] == "normalization.ln_vjp":
                st.add("ln_jacobian_in_vjp", 1)
            frame = [key, 0.0]
            stack.append(frame)
            if is_map:
                args, idents = self._wrap_items(args, kwargs)
                w0 = time.perf_counter()
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = st.stats.get(key)
                if rec is None:
                    rec = st.stats[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
            if is_map:
                st.add("parallel.map_wall_s", time.perf_counter() - w0)
                st.counters["parallel.threads"] = max(
                    st.counters.get("parallel.threads", 0.0), float(len(idents))
                )
            if after is not None:
                after(st, args, kwargs, result)
            return result

        return traced

    def _wrap_items(self, args: tuple, kwargs: dict):
        """Time each item of a map_indexed call on the thread that runs it."""
        fn = args[0] if args else kwargs.pop("fn")
        idents: set[int] = set()

        def item(i):
            idents.add(threading.get_ident())
            t0 = time.thread_time()
            try:
                return fn(i)
            finally:
                st = self._state()
                st.add("parallel.item_s_sum", time.thread_time() - t0)
                st.add("parallel.items", 1)

        return (item,) + tuple(args[1:]), idents

    # -- results ----------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, float]]:
        """key -> (calls, self_s in thread CPU time), summed over threads."""
        out: dict[str, list[float]] = {}
        for st in self._states:
            for key, (calls, self_s) in st.stats.items():
                acc = out.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        return {k: (int(v[0]), v[1]) for k, v in out.items()}

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for name, value in st.counters.items():
                if name == "parallel.threads":
                    out[name] = max(out.get(name, 0.0), value)
                else:
                    out[name] = out.get(name, 0.0) + value
        return out


def _after_ln_vjp(st: _ThreadState, args, kwargs, result) -> None:
    X = args[0] if args else kwargs["X"]
    st.add("ln_vjp_tokens", X.shape[1])


def _after_train_run(st: _ThreadState, args, kwargs, outcome) -> None:
    started = len(outcome.loss_curve)
    st.add("training.steps_attempted", started)
    st.add("training.steps_completed", started - int(outcome.diverged))
    st.add("training.trials_diverged", int(outcome.diverged))


def _after_write_report(st: _ThreadState, args, kwargs, result) -> None:
    path = args[2] if len(args) > 2 else kwargs["path"]
    st.add("reports.bytes_written", Path(path).stat().st_size)


_AFTER = {
    "normalization.ln_vjp": _after_ln_vjp,
    "training.train_run": _after_train_run,
    "reports.write_report": _after_write_report,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    stats = tracer.stats()
    counters = tracer.counters()
    out: dict[str, float] = {}
    for key in FUNCTIONS:
        calls, self_s = stats.get(key, (0, 0.0))
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
    out["numerics.wasserstein_exact.calls"] = stats.get("numerics.wasserstein_exact", (0,))[0]
    tokens = counters.get("ln_vjp_tokens", 0.0)
    # no VJP ran (certify): no Jacobian was built for any token
    out["normalization.vjp_jacobians_per_token"] = (
        counters.get("ln_jacobian_in_vjp", 0.0) / tokens if tokens else 0.0
    )
    for name in ("training.steps_completed", "training.steps_attempted",
                 "training.trials_diverged", "reports.bytes_written"):
        out[name] = int(counters.get(name, 0))
    checks = [stats[k] for k in CHECKERS if k in stats]
    out["diagnostics.checks.calls"] = sum(c[0] for c in checks)
    out["diagnostics.checks.self_s"] = sum((c[1] for c in checks), 0.0)
    map_calls = stats.get(_MAP, (0,))[0]
    map_total = counters.get("parallel.map_wall_s", 0.0)
    out["parallel.map_indexed.calls"] = map_calls
    out["parallel.map_indexed.total_s"] = map_total
    out["parallel.items"] = int(counters.get("parallel.items", 0))
    out["parallel.item_s_sum"] = counters.get("parallel.item_s_sum", 0.0)
    out["parallel.threads"] = int(counters.get("parallel.threads", 0))
    out["parallel.concurrency"] = out["parallel.item_s_sum"] / map_total if map_total else 0.0
    for short in MODULES:
        out[f"{short}.self_s"] = sum(
            (v[1] for k, v in stats.items() if k.split(".")[0] == short), 0.0
        )
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", "_s_sum")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("per_token", "concurrency", "share")):
        return "ratio"
    return "count"


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes of one run."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        # counts repeat exactly; keep them whole numbers
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
