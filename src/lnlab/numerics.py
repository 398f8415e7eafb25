"""Dense float64 kernels shared by every other module.

Everything here is a pure function of its inputs, with no global state.
Hidden states, weights and sample sets are plain ``numpy.ndarray`` objects
in float64.  The vectorization convention is column-major throughout
(``vec`` stacks columns), which is what makes the Kronecker identities used
by the sensitivity machinery come out right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not compose; message carries both shapes."""


class NonFiniteError(ValueError):
    """An input (or intermediate state) contains NaN or +/-inf."""


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D array, got ndim={a.ndim}")
    return a


def softmax_columns(s: np.ndarray) -> np.ndarray:
    """Column-wise softmax with per-column max subtraction, of a matrix or of
    each matrix of a stack ``(..., m, n)``.

    Each output column is nonnegative and sums to one; the max shift keeps
    ``exp`` from overflowing for any finite input.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2:
        raise ShapeMismatchError(f"softmax_columns: expected (..., m, n), got ndim={s.ndim}")
    if not np.isfinite(s).all():
        raise NonFiniteError("softmax_columns: input contains non-finite entries")
    e = np.exp(s - s.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


@dataclass(frozen=True)
class Moments:
    frob: float
    mean_abs: float
    var: float


def moments(x: np.ndarray) -> Moments:
    """Frobenius norm, mean absolute value, and unbiased entry variance.

    The variance divisor is nd - 1.  By Cauchy-Schwarz,
    ``mean_abs <= frob / sqrt(nd)`` always holds.
    """
    x = as_matrix(x)
    if x.size == 0:
        raise ShapeMismatchError("moments: empty matrix")
    if x.size < 2:
        raise ShapeMismatchError("moments: variance undefined for a single entry")
    return Moments(
        frob=float(np.linalg.norm(x)),
        mean_abs=float(np.mean(np.abs(x))),
        var=float(np.var(x, ddof=1)),
    )


def spectral_norm(w: np.ndarray) -> float:
    """Largest singular value of ``w`` (LAPACK SVD)."""
    w = as_matrix(w)
    if w.size == 0:
        raise ShapeMismatchError("spectral_norm: empty matrix")
    return float(np.linalg.svd(w, compute_uv=False)[0])


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization: stacks the columns of ``x``."""
    return np.asarray(x, dtype=np.float64).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.size != rows * cols:
        raise ShapeMismatchError(f"unvec: {v.size} entries cannot fill {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def jacobian_from_vjp(vjp, d: int, n: int) -> np.ndarray:
    """nd x nd Jacobian, rows = outputs, of a map of d x n states from its
    vector-Jacobian product ``vjp``, which maps a stack ``(..., d, n)`` of
    output gradients to the matching input gradients.  Row k is the VJP of
    the k-th column-major unit vector; all nd of them run as one stack."""
    nd = d * n
    basis = np.eye(nd).reshape(nd, n, d).mT  # basis[k] = unvec(e_k)
    return vjp(basis).mT.reshape(nd, nd)


def _mix64(z: int) -> int:
    """splitmix64 finalizer; used to derive child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: Philox4x64 keyed by (seed, stream id).

    Identical (seed, stream) pairs produce identical draw sequences on every
    platform, and independent streams never share state.  Each call to
    ``generator()`` starts the stream from the beginning, so a stream is a
    value, not a mutable cursor.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive a statistically independent substream."""
        return RngStream(self.seed, _mix64(self.stream ^ _mix64(index)))


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching on a square cost matrix.

    O(N^3) Hungarian algorithm with dual potentials (shortest augmenting
    paths).  Returns ``col`` such that row i is matched to column col[i].
    """
    cost = as_matrix(cost)
    n, m = cost.shape
    if n != m:
        raise ShapeMismatchError(f"min_cost_assignment: cost must be square, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise NonFiniteError("min_cost_assignment: cost contains non-finite entries")

    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match[j] = row currently assigned to column j (1-based, 0 = free slot)
    match = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        way = np.zeros(n + 1, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            # Relax reduced costs of all unused columns against row i0.
            free = ~used[1:]
            reduced = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], inf)
            j0 = int(np.argmin(masked)) + 1
            delta = masked[j0 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        col[match[j] - 1] = j - 1
    return col


MAX_OT_SAMPLES = 256


def wasserstein_exact(
    a_samples: np.ndarray, b_samples: np.ndarray, p: float = 2.0
) -> float:
    """Exact p-Wasserstein distance between two uniform empirical measures.

    ``a_samples`` and ``b_samples`` are stacks of equally many, equally
    shaped matrices (shape (N, d, n) or (N, m) after flattening).  The cost
    of pairing A_i with B_j is the entrywise p-norm raised to the p-th
    power; the N x N assignment problem is solved exactly and the p-th root
    of the optimal mean cost is returned.
    """
    a = np.asarray(a_samples, dtype=np.float64)
    b = np.asarray(b_samples, dtype=np.float64)
    if p < 1.0:
        raise ValueError(f"wasserstein_exact: p must be >= 1, got {p}")
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"wasserstein_exact: sample sets differ in shape, {a.shape} vs {b.shape}"
        )
    if a.ndim < 2:
        raise ShapeMismatchError("wasserstein_exact: expected a stack of samples")
    n = a.shape[0]
    if n > MAX_OT_SAMPLES:
        raise ValueError(f"wasserstein_exact: N={n} exceeds the cap of {MAX_OT_SAMPLES}")
    flat_a = a.reshape(n, -1)
    flat_b = b.reshape(n, -1)
    diff = np.abs(flat_a[:, None, :] - flat_b[None, :, :])
    cost = (diff**p).sum(axis=2)
    col = min_cost_assignment(cost)
    mean_cost = float(cost[np.arange(n), col].mean())
    return mean_cost ** (1.0 / p)
