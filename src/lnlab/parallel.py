"""Independent instances evaluated one after another, merged by index.

Small-matrix numpy work holds the interpreter lock, so a thread pool gave
no speed here; every suite, trial grid and gradcheck runs serially.  The
module stays because the benchmark harness imports ``thread_count`` and
traces ``map_indexed``.
"""

from __future__ import annotations


def thread_count() -> int:
    return 1


def map_indexed(fn, count: int) -> list:
    """[fn(0), ..., fn(count-1)]."""
    return [fn(i) for i in range(count)]
