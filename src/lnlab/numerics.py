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
    e = np.exp(s - np.maximum.reduce(s, axis=-2, keepdims=True))
    return e / np.add.reduce(e, axis=-2, keepdims=True)


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


def _reduction(cost: np.ndarray) -> tuple[list, list, list, np.ndarray]:
    """The start of ``min_cost_assignment``: ``(col, row, u, v)`` of a finite
    square ``cost`` (Jonker & Volgenant 1987).  A column reduction sets ``v``
    to the column minima and gives each column its argmin row while that row
    is free.  Two rounds of augmenting row reduction then move each free row,
    in order, to its cheapest column under ``v``: on a strict minimum that
    column's ``v`` falls until the row pays its second-cheapest reduced cost
    there, and the row it displaces is retried at once (N times a round at
    most, then in the next round); on a tie the row takes the second column
    if the first is matched.  Each matched row's u is its reduced cost, its
    row minimum; free rows keep u = 0, feasible since ``v`` only falls."""
    n = len(cost)
    col = [-1] * n  # col[i] = column of row i, -1 = free
    row = [-1] * n  # row[j] = row of column j, -1 = free
    v = cost.min(axis=0)
    for j, i in enumerate(cost.argmin(axis=0).tolist()):
        if col[i] < 0:
            col[i], row[j] = j, i
    cost_rows = list(cost)
    free = [i for i in range(n) if col[i] < 0]
    for _ in range(2):
        todo, free, retries = free[::-1], [], 0
        while todo:
            i = todo.pop()
            reduced = cost_rows[i] - v
            j = int(reduced.argmin())
            low = reduced.item(j)
            reduced[j] = np.inf
            k = int(reduced.argmin())
            lowered = v.item(j) - (reduced.item(k) - low)
            displaced, strict = row[j], lowered < v.item(j)
            if strict:
                v[j] = lowered
            elif displaced >= 0:
                j, displaced = k, row[k]
            col[i], row[j] = j, i
            if displaced >= 0:
                col[displaced] = -1
                retries += strict
                (todo if strict and retries <= n else free).append(displaced)
    u = [cost_rows[i].item(j) - v.item(j) if j >= 0 else 0.0 for i, j in enumerate(col)]
    return col, row, u, v


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching on a square cost matrix.

    Shortest augmenting paths over dual potentials u, v (Jonker & Volgenant
    1987; Crouse 2016, the form behind scipy's ``linear_sum_assignment``),
    O(N^3).  ``_reduction`` starts it: a column reduction, then two rounds
    of augmenting row reduction, so only the rows they leave free need a
    path.  Each path is a Dijkstra search over reduced costs, and the duals
    are updated once per path, not once per scanned column.  Returns ``col``
    such that row i is matched to column col[i]; when several matchings are
    optimal (ties), any one of them may be returned.

    A scan runs four vector calls over rows of ``cost``; the matching
    (``col``, ``row``) and the row duals ``u`` are Python lists, since the
    scan reads and writes them one entry at a time, and ``v`` stays an
    array, since each scan subtracts all of it.
    """
    cost = as_matrix(cost)
    n, m = cost.shape
    if n != m:
        raise ShapeMismatchError(f"min_cost_assignment: cost must be square, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise NonFiniteError("min_cost_assignment: cost contains non-finite entries")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    col, row, u, v = _reduction(cost)

    cost_rows = list(cost)
    dist = np.empty(n)  # shortest path cost to each unscanned column
    open_v = np.empty(n)  # v, with -inf at scanned columns
    seen = np.empty((n, n))  # row k: reduced costs from the k-th scanned row
    seen_rows = list(seen)
    for start in [i for i in range(n) if col[i] < 0]:
        dist.fill(np.inf)
        np.copyto(open_v, v)
        rows, scanned, reached = [], [], []
        i, reach = start, 0.0
        while True:
            reduced = seen_rows[len(rows)]
            np.subtract(cost_rows[i], open_v, out=reduced)  # +inf where scanned
            reduced += reach - u[i]
            np.minimum(dist, reduced, out=dist)
            rows.append(i)
            j = int(dist.argmin())
            reach = dist.item(j)
            scanned.append(j)
            reached.append(reach)
            dist[j] = np.inf
            open_v[j] = -np.inf
            i = row[j]
            if i < 0:
                break
        # lazy dual update: every scanned column moves by how much sooner
        # than the sink it was reached, and so does the row matched to it
        v[scanned] -= reach - np.array(reached)
        for c, r in zip(scanned[:-1], reached):
            u[row[c]] += reach - r
        u[start] += reach
        # augment along the path back to the start row; a column's predecessor
        # is the first scanned row to reach its final distance (later rows: +inf)
        while True:
            i = rows[int(seen[: len(rows), j].argmin())]
            row[j] = i
            col[i], j = j, col[i]
            if i == start:
                break
    return np.array(col, dtype=np.int64)


MAX_OT_SAMPLES = 256
COST_BLOCK_ROWS = 16


def check_sample_count(n: int) -> None:
    """Refuse a transport problem of more than ``MAX_OT_SAMPLES`` samples."""
    if n > MAX_OT_SAMPLES:
        raise ValueError(f"N={n} exceeds the cap of {MAX_OT_SAMPLES}")


def check_order(p: float) -> None:
    """Refuse a transport order p outside [1, inf); NaN breaks the rule."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must be >= 1 and finite, got {p}")


def transport_cost(flat_a: np.ndarray, flat_b: np.ndarray, p: float) -> np.ndarray:
    """N x N cost ``sum_k |a_ik - b_jk|^p`` of two (N, m) sample stacks,
    built ``COST_BLOCK_ROWS`` rows at a time in one reused (rows, N, m)
    buffer.  Each entry is reduced over the same contiguous m axis as in
    the one-shot ``(np.abs(a[:, None] - b[None]) ** p).sum(axis=2)``, so
    the two agree bit for bit.  ``wasserstein_exact`` calls it at p != 2
    only; at p = 2 it ranks pairings by a Gram product instead."""
    if flat_a.ndim != 2 or flat_b.ndim != 2 or flat_a.shape[1] != flat_b.shape[1]:
        raise ShapeMismatchError(
            f"transport_cost: expected two (N, m) stacks of one width, got {flat_a.shape} and {flat_b.shape}")
    n = flat_a.shape[0]
    cost = np.empty((n, flat_b.shape[0]))
    buf = np.empty((min(n, COST_BLOCK_ROWS),) + flat_b.shape)
    for lo in range(0, n, COST_BLOCK_ROWS):
        rows = flat_a[lo : lo + COST_BLOCK_ROWS, None, :]
        diff = np.subtract(rows, flat_b[None, :, :], out=buf[: len(rows)])
        np.abs(diff, out=diff)
        diff **= p
        np.add.reduce(diff, axis=2, out=cost[lo : lo + COST_BLOCK_ROWS])
    return cost


def wasserstein_exact(
    a_samples: np.ndarray, b_samples: np.ndarray, p: float = 2.0
) -> float:
    """Exact p-Wasserstein distance between two uniform empirical measures.

    ``a_samples`` and ``b_samples`` are stacks of equally many, equally
    shaped matrices (shape (N, d, n) or (N, m) after flattening), with
    1 <= N <= ``MAX_OT_SAMPLES`` and 1 <= p < inf.  The cost of pairing A_i
    with B_j is the entrywise p-norm raised to the p-th power; the N x N
    assignment problem is solved exactly and the p-th root of the optimal
    mean cost is returned.

    At p != 2 the pairings are ranked by ``transport_cost``.  At p = 2 they
    are ranked by G_ij = |a_i|^2 - 2 a_i.b_j, one Gram product taken after
    both stacks are shifted by a's mean, so G rounds at the clouds' spread,
    not at their distance from the origin.  G is the squared-distance matrix
    less |b_j|^2, a constant per column that every pairing pays once, so the
    two have the same optimal matchings.  Only the N matched costs
    |a_i - b_col[i]|^2 are formed, each reduced over the contiguous m axis
    as ``transport_cost`` reduces an entry: W_2 keeps the cost matrix's bits
    wherever the optimal matching is unique.
    """
    a = np.asarray(a_samples, dtype=np.float64)
    b = np.asarray(b_samples, dtype=np.float64)
    check_order(p)
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"wasserstein_exact: sample sets differ in shape, {a.shape} vs {b.shape}"
        )
    if a.ndim < 2:
        raise ShapeMismatchError("wasserstein_exact: expected a stack of samples")
    n = a.shape[0]
    if n == 0:
        raise ShapeMismatchError("wasserstein_exact: need at least one sample, got N=0")
    check_sample_count(n)
    flat_a, flat_b = a.reshape(n, -1), b.reshape(n, -1)
    if p == 2:
        shift = flat_a.mean(axis=0)
        ca, cb = flat_a - shift, flat_b - shift
        gram = ca @ (-2.0 * cb).T
        gram += np.einsum("ij,ij->i", ca, ca)[:, None]
        col = min_cost_assignment(gram)
        matched = np.add.reduce((flat_a - flat_b[col]) ** 2, axis=1)
    else:
        cost = transport_cost(flat_a, flat_b, p)
        col = min_cost_assignment(cost)
        matched = cost[np.arange(n), col]
    return float(matched.mean()) ** (1.0 / p)
