"""Independent reference computations used as test oracles.

Everything here is deliberately written without reference to the library's
own derivative or transport code: central differences probe the forward
maps, the closed-form LN, attention and FFN Jacobians (the LN one per
token, the others assembled block by block with loops) pin the library's
Jacobians, which it builds from its VJPs, and the per-token LN VJP loops the
closed-form LN Jacobian (itself pinned against finite differences) to pin
the column kernels; brute-force enumeration solves small transport
problems, the textbook Hungarian loop (one dual update per scanned column)
pins the shortest-augmenting-path solver on larger ones, its shortest-path
phase keeping a predecessor array (``pred_min_cost_assignment``) pins which
optimal matching it returns on ties, ``exact_matched_cost`` sums matched
squared distances in rational arithmetic to say which of two matchings is
cheaper, and extended-precision arithmetic recomputes the scalar
kernels.  Five exceptions: ``pred_min_cost_assignment`` starts from the
library's own ``_reduction``, so that it differs from the solver only in
how a path is read back; ``cost_matrix_w2`` solves W_2 through the
library's ``transport_cost`` and ``min_cost_assignment`` on the full
squared-distance matrix, to pin the Gram path of ``wasserstein_exact`` bit
for bit; ``scripted_train_run``
and ``scripted_terminal_states`` run one sample at a time through the
library's model, to pin the stacked minibatch step and the stacked
pushforwards of the bound checks;
``per_head_attn_forward`` and ``per_head_attn_vjp`` run the library's
attention one head at a time, to pin its head axis bit for bit; and
``recompute_attn_vjp`` and ``recompute_ffn_vjp`` recompute the sublayers'
intermediates from the state, to pin bit for bit the VJPs that read them
from the forward tape.  ``central_diff_jacobian`` at its default step is the
per-entry loop that ``gradcheck.fd_jacobian`` ran before it stacked its
perturbed points: fed gradcheck's own maps one point at a time, it pins the
stacked rows bit for bit.  ``richardson_scalar_grad`` extrapolates two
central differences, for gradients too small for one difference to resolve.
``scripted_pre_chain`` is the simplified pre-norm chain's layer loop on
one chain, which pins each chain of a stacked run bit for bit.
``scripted_sample`` and ``scripted_loss_and_grad`` are the task's draw, loss
and gradient through numpy's Python-level ``mean``, ``tile`` and
``zeros_like``, which pin the task's ufunc forms bit for bit;
``mean_ln_stats`` and ``mean_ln_input_grad`` are the LN kernels' column
means through ``np.mean``, which pin them bit for bit.
``zero_weight_block`` and ``gradient_product`` are test fixtures built on
the library's model: a block whose sublayers map to zero, and the product
of its local sensitivities; ``ln_vjp_at`` is the library's LN VJP taken at
a raw input, from the statistics the forward pass tapes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from lnlab.attention import ActivationKinkError, AttentionParams, FfnParams, _check_state
from lnlab.model import (
    BlockParams,
    ChainResult,
    DivergenceError,
    ForwardTape,
    ModelConfig,
    flat_to_params,
    local_sensitivity,
    model_forward,
    param_gradients,
    params_to_flat,
    random_model,
)
from lnlab.normalization import (
    LAYERNORM,
    RMSNORM,
    DegenerateTokenError,
    LNParams,
    _column_stats,
    ln_forward_columns,
    ln_vjp,
)
from lnlab.numerics import (
    NonFiniteError,
    RngStream,
    ShapeMismatchError,
    _reduction,
    as_matrix,
    min_cost_assignment,
    moments,
    softmax_columns,
    spectral_norm,
    transport_cost,
)
from lnlab.training import (
    MEAN_REGRESSION,
    NONFINITE_LOSS,
    NORM_THRESHOLD,
    Task,
    TrainConfig,
    TrialOutcome,
    _divergence_cause,
    make_task,
)


def central_diff_jacobian(f, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """J[:, b] = (f(x + h e_b) - f(x - h e_b)) / 2h, rows = outputs."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-6 * (1.0 + float(np.abs(x).max()))
    cols = []
    for b in range(x.size):
        e = np.zeros_like(x)
        e[b] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=1)


def central_diff_scalar_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def richardson_scalar_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    """(4 D(h/2) - D(h)) / 3 of the central differences D at steps h and h/2:
    truncation O(h^4), so a wider step keeps rounding further from the gradient."""
    return (4.0 * central_diff_scalar_grad(f, x, h / 2.0) - central_diff_scalar_grad(f, x, h)) / 3.0


def relative_error(a, b, floor: float = 1e-12) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), floor)
    return float(np.linalg.norm(a - b)) / denom


def softmax_longdouble(column) -> np.ndarray:
    """Column softmax recomputed in extended precision."""
    col = np.asarray(column, dtype=np.longdouble)
    e = np.exp(col - col.max())
    return (e / e.sum()).astype(np.float64)


def wasserstein_bruteforce(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Exact W_p between uniform empirical measures by permutation search."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    fa = a.reshape(n, -1)
    fb = b.reshape(n, -1)
    cost = (np.abs(fa[:, None, :] - fb[None, :, :]) ** p).sum(axis=2)
    best = min(sum(cost[i, pi] for i, pi in enumerate(perm)) for perm in permutations(range(n)))
    return float((best / n) ** (1.0 / p))


def cost_matrix_w2(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """(W_2, matching) of two equally shaped sample stacks through the N x N
    squared-distance matrix: ``transport_cost``, then ``min_cost_assignment``,
    then the root of the mean matched entry."""
    n = a.shape[0]
    cost = transport_cost(a.reshape(n, -1), b.reshape(n, -1), 2.0)
    col = min_cost_assignment(cost)
    return float(cost[np.arange(n), col].mean()) ** 0.5, col


def exact_matched_cost(a: np.ndarray, b: np.ndarray, rows, col) -> Fraction:
    """sum over ``rows`` i of |a_i - b_col[i]|^2, in exact rational arithmetic."""
    n = a.shape[0]
    fa, fb = a.reshape(n, -1), b.reshape(n, -1)
    return sum(
        (sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(fa[i].tolist(), fb[col[i]].tolist()))
         for i in rows),
        Fraction(0),
    )


def assignment_bruteforce(cost: np.ndarray) -> float:
    """Minimum assignment cost by exhaustive enumeration."""
    n = cost.shape[0]
    return min(
        float(sum(cost[i, pi] for i, pi in enumerate(perm)))
        for perm in permutations(range(n))
    )


def scripted_min_cost_assignment(cost: np.ndarray) -> np.ndarray:
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


def pred_min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching on a square cost matrix.

    The shortest-path phase of ``min_cost_assignment`` (Jonker & Volgenant
    1987; Crouse 2016), started from the same partial matching and duals,
    those of the library's ``_reduction`` (column reduction, two rounds of
    augmenting row reduction, duals from complementary slackness), so that
    the two differ only in how a path is read back: here a predecessor array
    is updated on every strict decrease of a column's distance.  Each path
    is a Dijkstra search over reduced costs, with the duals updated once per
    path.  Returns ``col`` such that row i is matched to column col[i].
    The start itself is pinned by brute force, by the Hungarian loop of
    ``scripted_min_cost_assignment`` and by criterion 7, not here.
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
    col = np.array(col, dtype=np.int64)  # col[i] = column of row i, -1 = free
    row = np.array(row, dtype=np.int64)  # row[j] = row of column j, -1 = free
    u = np.array(u)

    dist = np.empty(n)  # shortest path cost to each unscanned column
    open_v = np.empty(n)  # v, with -inf at scanned columns
    reduced = np.empty(n)
    closer = np.empty(n, dtype=bool)
    pred = np.empty(n, dtype=np.int64)  # row before column j on its path
    for start in np.flatnonzero(col < 0).tolist():
        dist.fill(np.inf)
        np.copyto(open_v, v)
        scanned, reached = [], []
        i, reach = start, 0.0
        while True:
            np.subtract(cost[i], open_v, out=reduced)  # +inf where scanned
            reduced += reach - u[i]
            np.less(reduced, dist, out=closer)
            np.copyto(pred, i, where=closer)
            np.minimum(dist, reduced, out=dist)
            j = int(dist.argmin())
            reach = float(dist[j])
            scanned.append(j)
            reached.append(reach)
            dist[j] = np.inf
            open_v[j] = -np.inf
            if row[j] < 0:
                break
            i = int(row[j])
        # lazy dual update: every scanned column moves by how much sooner
        # than the sink it was reached, and so does the row matched to it
        cols = np.array(scanned)
        shift = reach - np.array(reached)
        v[cols] -= shift
        u[row[cols[:-1]]] += shift[:-1]
        u[start] += reach
        # augment along the path back to the start row
        while True:
            i = int(pred[j])
            row[j] = i
            col[i], j = j, int(col[i])
            if i == start:
                break
    return col


def scripted_attention(X, q, k, v, w) -> np.ndarray:
    """Direct transcription of the attention map for cross-checking.

    Stacks of per-head (k, d) matrices; softmax computed column by column
    with plain loops rather than the library kernel.
    """
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    heads = q.shape[0]
    kdim = q.shape[1]
    out = np.zeros((d, n))
    for h in range(heads):
        scores = (k[h] @ X).T @ (q[h] @ X) / np.sqrt(kdim)
        attn = np.zeros((n, n))
        for j in range(n):
            e = np.exp(scores[:, j] - scores[:, j].max())
            attn[:, j] = e / e.sum()
        out += w[h] @ v[h] @ X @ attn
    return out


def per_head_attn_forward(X: np.ndarray, p: AttentionParams) -> np.ndarray:
    """The library's ``attn_forward`` as it was before heads became a stack
    axis: one head at a time, accumulated into a zero state."""
    X = _check_state(X, p)
    scale = 1.0 / np.sqrt(p.key_dim)
    out = np.zeros_like(X)
    for h in range(p.heads):
        scores = (p.k[h] @ X).mT @ (p.q[h] @ X) * scale
        attn = softmax_columns(scores)
        out += p.w[h] @ (p.v[h] @ X) @ attn
    return out


def per_head_attn_vjp(Z: np.ndarray, p: AttentionParams, gbar: np.ndarray):
    """The library's ``attn_vjp`` as it was before heads became a stack axis:
    one head at a time, each weight gradient written into its slot of a
    zero buffer."""
    scale = 1.0 / np.sqrt(p.key_dim)
    lead = gbar.shape[:-2]
    gq, gk, gv, gw = (np.zeros(lead + m.shape) for m in (p.q, p.k, p.v, p.w))
    gz = np.zeros_like(gbar)
    for h in range(p.heads):
        kz = p.k[h] @ Z
        qz = p.q[h] @ Z
        attn = softmax_columns(kz.mT @ qz * scale)
        vz = p.v[h] @ Z
        gw[..., h, :, :] = gbar @ (vz @ attn).mT
        t = p.w[h].T @ gbar
        t_at = t @ attn.mT
        gv[..., h, :, :] = t_at @ Z.mT
        ga = vz.mT @ t
        gs = attn * (ga - (attn * ga).sum(axis=-2, keepdims=True))
        gkz = qz @ gs.mT * scale
        gqz = kz @ gs * scale
        gk[..., h, :, :] = gkz @ Z.mT
        gq[..., h, :, :] = gqz @ Z.mT
        gz += p.v[h].T @ t_at + p.k[h].T @ gkz + p.q[h].T @ gqz
    return gz, {"attn.q": gq, "attn.k": gk, "attn.v": gv, "attn.w": gw}


def _recompute_heads(Z: np.ndarray, p: AttentionParams):
    """The score scale and the keys, queries, column-softmax attention and
    values of the state(s) ``Z`` for every head at once: heads are axis -3,
    so a ``(..., d, n)`` stack gives ``(..., H, ., n)`` maps."""
    Zh = Z[..., None, :, :]
    scale = 1.0 / np.sqrt(p.key_dim)
    kz, qz = p.k @ Zh, p.q @ Zh
    return scale, kz, qz, softmax_columns(kz.mT @ qz * scale), p.v @ Zh


def recompute_attn_vjp(Z: np.ndarray, p: AttentionParams, gbar: np.ndarray):
    """The library's ``attn_vjp`` as it was before the forward pass taped its
    intermediates: it recomputes the keys, queries, attention and values
    from ``Z``."""
    scale, kz, qz, attn, vz = _recompute_heads(Z, p)
    g = gbar[..., None, :, :]
    t = p.w.mT @ g
    t_at = t @ attn.mT
    ga = vz.mT @ t
    gs = attn * (ga - (attn * ga).sum(axis=-2, keepdims=True))
    gkz = qz @ gs.mT * scale
    gqz = kz @ gs * scale
    gz = np.add.reduce(p.v.mT @ t_at + p.k.mT @ gkz + p.q.mT @ gqz, axis=-3)
    Zt = Z[..., None, :, :].mT
    gw = g @ (vz @ attn).mT
    return gz, {"attn.q": gqz @ Zt, "attn.k": gkz @ Zt, "attn.v": t_at @ Zt, "attn.w": gw}


def _recompute_activation_derivative(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - np.tanh(pre) ** 2
    if np.any(pre == 0.0):
        raise ActivationKinkError(
            "relu pre-activation is exactly zero; derivative undefined, use tanh"
        )
    return (pre > 0.0).astype(np.float64)


def recompute_ffn_vjp(Z: np.ndarray, p: FfnParams, gbar: np.ndarray):
    """The library's ``ffn_vjp`` as it was before the forward pass taped its
    intermediates: it recomputes the pre-activation, the activation and
    tanh's derivative from ``Z``."""
    pre = p.w1 @ Z
    act = (np.tanh if p.activation == "tanh" else lambda z: np.maximum(z, 0.0))(pre)
    gw2 = gbar @ act.mT
    gpre = (p.w2.T @ gbar) * _recompute_activation_derivative(p.activation, pre)
    gw1 = gpre @ Z.mT
    gz = p.w1.T @ gpre
    return gz, {"ffn.w1": gw1, "ffn.w2": gw2}


def scripted_ffn(X, w1, w2, activation: str) -> np.ndarray:
    phi = np.tanh if activation == "tanh" else lambda z: np.where(z > 0, z, 0.0)
    return w2 @ phi(w1 @ X)


def scripted_attention_jacobian(X, q, k, v, w) -> np.ndarray:
    """The attention Jacobian assembled block by block with loops.

    Block (j, i) = sum_h W V (a_ij I + X S_j M_ij), where S_j is the softmax
    Jacobian of column j and M_ij = (e_i (K^T Q x_j)^T + 1_{i=j} X^T K^T Q)
    / sqrt(k) is the derivative of the logits column j by x_i.
    """
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    scale = 1.0 / np.sqrt(q.shape[1])
    full = np.zeros((n * d, n * d))
    for h in range(q.shape[0]):
        scores = (k[h] @ X).T @ (q[h] @ X) * scale
        for j in range(n):
            e = np.exp(scores[:, j] - scores[:, j].max())
            a = e / e.sum()
            soft = np.diag(a) - np.outer(a, a)
            for i in range(n):
                m = np.zeros((n, d))
                m[i, :] = k[h].T @ q[h] @ X[:, j]
                if i == j:
                    m += X.T @ k[h].T @ q[h]
                block = w[h] @ v[h] @ (a[i] * np.eye(d) + X @ soft @ (m * scale))
                full[j * d:(j + 1) * d, i * d:(i + 1) * d] += block
    return full


def scripted_ffn_jacobian(X, w1, w2, activation: str) -> np.ndarray:
    """The FFN Jacobian assembled token by token: block (j, j) is
    W2 diag(phi'(W1 x_j)) W1 and every off-token block is zero."""
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    full = np.zeros((n * d, n * d))
    for j in range(n):
        pre = w1 @ X[:, j]
        dphi = 1.0 - np.tanh(pre) ** 2 if activation == "tanh" else np.where(pre > 0, 1.0, 0.0)
        full[j * d:(j + 1) * d, j * d:(j + 1) * d] = w2 @ np.diag(dphi) @ w1
    return full


def ln_vjp_at(X, p, gbar):
    """``ln_vjp`` at a raw input: the statistics its LN site's forward pass tapes, then the VJP."""
    _, stats = ln_forward_columns(X, p)
    return ln_vjp(*stats, p, gbar)


def scripted_ln_jacobian(x, p) -> np.ndarray:
    """Closed-form d x d Jacobian of the normalization map, rows = outputs.

    For LayerNorm with denominator s = sqrt(var + eps) and c = x - mean(x):

        J[a, b] = gamma_a * ((delta_ab - 1/d) / s - c_a c_b / (d s^3))

    The mean and the denominator are both differentiated, so J annihilates
    the constant direction (J @ 1 = 0) and matches central finite
    differences of ``ln_forward``.  At eps=0 the map is (-1)-homogeneous:
    J(c x) = J(x) / c for any c > 0.  RMSNorm drops the mean terms:

        J[a, b] = gamma_a * (delta_ab / r - x_a x_b / (d r^2 * r))
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    c, s = _column_stats(x[:, None], p)
    c, s = c[:, 0], s[0, 0]
    core = np.eye(d) - 1.0 / d if p.kind == LAYERNORM else np.eye(d)
    return p.gamma[:, None] * (core / s) - np.outer(p.gamma * c, c) / (d * s**3)


def scripted_ln_vjp(X, p, gbar):
    """Column-wise LN backward pass, one token at a time: J_j^T gbar_j with the
    closed-form Jacobian of token j, plus the gamma and beta sums."""
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    gx = np.zeros((d, n))
    ggamma = np.zeros(d)
    gbeta = np.zeros(d)
    for j in range(n):
        x = X[:, j]
        gx[:, j] = scripted_ln_jacobian(x, p).T @ gbar[:, j]
        c = x - x.mean() if p.kind == LAYERNORM else x
        ggamma += c / np.sqrt(np.mean(c * c) + p.epsilon) * gbar[:, j]
        gbeta += gbar[:, j]
    return gx, ggamma, gbeta if p.kind == LAYERNORM else None


def mean_ln_stats(X, p):
    """The LN kernels' statistics through ``np.mean``: the centered (LayerNorm)
    or raw (RMSNorm) columns of a state or stack, and their denominators."""
    c = X - np.mean(X, axis=-2, keepdims=True) if p.kind == LAYERNORM else X
    return c, np.sqrt(np.mean(c * c, axis=-2, keepdims=True) + p.epsilon)


def mean_ln_input_grad(X, p, gbar):
    """``ln_vjp``'s input gradient through ``np.mean``, from ``mean_ln_stats``:
    (g^ - mean(g^) - x^ * mean(x^ * g^)) / s, RMSNorm dropping mean(g^)."""
    c, s = mean_ln_stats(X, p)
    xhat = c / s
    ghat = p.gamma[..., None] * gbar
    proj = xhat * np.mean(xhat * ghat, axis=-2, keepdims=True)
    if p.kind == RMSNORM:
        return (ghat - proj) / s
    return (ghat - np.mean(ghat, axis=-2, keepdims=True) - proj) / s


def scripted_sublayer(placement: str, X, f, ln_in, ln_out, dt: float) -> np.ndarray:
    """The README's placement formulas, transcribed one branch each.

    ``f``, ``ln_in`` and ``ln_out`` map a d x n state to a d x n state;
    the LN callables a placement does not use may be None.
    """
    if placement == "off":
        return X + dt * f(X)
    if placement == "pre":
        return X + dt * f(ln_in(X))
    if placement == "peri":
        return X + dt * ln_out(f(ln_in(X)))
    if placement == "post":
        return ln_out(X + dt * f(X))
    raise ValueError(f"unknown placement {placement!r}")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def scripted_pre_chain(X0, weights, gammas, attn_q=None, attn_k=None) -> ChainResult:
    """``simplified_pre_chain`` of one chain, layer by layer on 2-D arrays, through
    ``spectral_norm`` and whole-array means and norms."""
    X = np.asarray(X0, dtype=np.float64)
    d, n = X.shape
    states, factors = [X.copy()], np.empty(len(weights))
    for i, (w, gamma) in enumerate(zip(weights, gammas)):
        z, (_, s) = ln_forward_columns(X, LNParams(gamma, epsilon=0.0, kind=RMSNORM))
        if attn_q is None:
            a = np.full((n, n), 1.0 / n)
        else:
            a = softmax_columns((attn_k[i] @ z).T @ (attn_q[i] @ z) / np.sqrt(attn_q[i].shape[0]))
        factors[i] = 1.0 + (
            np.sqrt(n) * np.max(np.abs(gamma)) * (1.0 / (np.sqrt(d) * s.min())) * spectral_norm(w)
        )
        X = X + w @ z @ a
        states.append(X.copy())
    bound_rhs = float(np.prod(factors) * np.linalg.norm(states[0]) / np.sqrt(d * n))
    return ChainResult(tuple(states), float(np.mean(np.abs(X))), bound_rhs, factors)


def scripted_terminal_states(inputs, params, cfg) -> list[np.ndarray]:
    """The terminal state of each input, one ``model_forward`` call per input."""
    return [model_forward(x, params, cfg).x_final for x in inputs]


def zero_weight_block(cfg: ModelConfig, ln_kind: str = LAYERNORM) -> BlockParams:
    """A block of ``cfg`` with all attention and FFN weights zero, gamma = 1, beta = 0."""
    d, k, m, heads = cfg.d, cfg.k, cfg.m, cfg.heads
    attn = AttentionParams(
        np.zeros((heads, k, d)), np.zeros((heads, k, d)),
        np.zeros((heads, k, d)), np.zeros((heads, d, k)),
    )
    ffn = FfnParams(np.zeros((m, d)), np.zeros((d, m)), cfg.activation)
    ln = {site: LNParams(np.ones(d), np.zeros(d), cfg.epsilon, ln_kind) for site in cfg.sites}
    return BlockParams(attn, ffn, ln)


def gradient_product(tape: ForwardTape, i: int) -> np.ndarray:
    """d vec(X_D) / d vec(X_i): the product of local sensitivities of blocks
    i..D-1, ordered to match finite differences of the composite map."""
    if not (0 <= i < tape.depth):
        raise IndexError(f"block index {i} out of range for depth {tape.depth}")
    prod = np.eye(tape.cfg.nd)
    for j in range(i, tape.depth):
        prod = local_sensitivity(tape, j) @ prod
    return prod


def scripted_sample(task: Task, step: int, index: int):
    """``Task.sample`` through numpy's ``mean`` wrapper: the (x0, y) of a sample."""
    tc = task.tc
    if tc.dataset_size is not None:
        step = step % tc.dataset_size
    gen = task.stream.child(step).child(index).generator()
    x0 = gen.normal(size=(tc.cfg.d, tc.cfg.n))
    if tc.task == MEAN_REGRESSION:
        y = task.target_map @ x0.mean(axis=1)
    else:
        y = x0[:, 0] + tc.noise_std * gen.normal(size=tc.cfg.d)
    return x0, y


def scripted_loss_and_grad(task: Task, x_final: np.ndarray, y: np.ndarray):
    """``Task.loss_and_grad`` through numpy's ``mean``, ``tile`` and ``zeros_like``."""
    d, n = x_final.shape
    if task.tc.task == MEAN_REGRESSION:
        yhat = task.readout @ x_final.mean(axis=1)
        err = yhat - y
        loss = float(err @ err) / d
        gcol = task.readout.T @ (2.0 * err / d) / n
        grad = np.tile(gcol[:, None], (1, n))
    else:
        yhat = task.readout @ x_final[:, 0]
        err = yhat - y
        loss = float(err @ err) / d
        grad = np.zeros_like(x_final)
        grad[:, 0] = task.readout.T @ (2.0 * err / d)
    return loss, grad


def scripted_train_run(tc: TrainConfig) -> TrialOutcome:
    """``training.train_run`` as a per-sample loop: one forward pass and one
    reverse sweep per sample, gradients accumulated sample by sample, every
    predicate checked in sample order."""
    root = RngStream(tc.seed)
    params = random_model(tc.cfg, root.child(0))
    task = make_task(tc, root.child(1))
    flats = [
        {k: v.copy() for k, v in params_to_flat(b).items()} for b in params
    ]
    momenta = [{k: np.zeros_like(v) for k, v in f.items()} for f in flats]

    losses: list[float] = []
    checkpoints: list[tuple[int, tuple]] = []
    first_divergence = None
    cause = block = site = None

    for step in range(tc.steps):
        params = [flat_to_params(f, b) for f, b in zip(flats, params)]
        batch_loss = 0.0
        grad_accum = [{k: np.zeros_like(v) for k, v in f.items()} for f in flats]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for bi in range(tc.batch_size):
                    x0, y = task.sample(step, bi)
                    tape = model_forward(x0, params, tc.cfg)
                    if bi == 0 and (step % tc.checkpoint_every == 0 or step == tc.steps - 1):
                        checkpoints.append((step, tuple(moments(x) for x in tape.states)))
                    final_norm = float(np.linalg.norm(tape.x_final))
                    if not np.isfinite(final_norm) or final_norm > tc.divergence_threshold:
                        raise DivergenceError(
                            f"terminal norm {final_norm:g} crossed threshold",
                            block=tc.cfg.depth - 1, cause=NORM_THRESHOLD,
                        )
                    loss, gbar = task.loss_and_grad(tape.x_final, y)
                    if not np.isfinite(loss):
                        raise DivergenceError("loss is non-finite", None, NONFINITE_LOSS)
                    batch_loss += loss / tc.batch_size
                    grads = param_gradients(tape, gbar / tc.batch_size)
                    for acc, g in zip(grad_accum, grads):
                        for k in acc:
                            acc[k] += g[k]
        except (DivergenceError, DegenerateTokenError, ActivationKinkError) as exc:
            # the predicate: loss non-finite, terminal norm over threshold, or
            # an LN site or relu derivative left undefined by the iterate
            cause, block, site = _divergence_cause(exc)
            first_divergence = step
            losses.append(float("inf"))
            break
        losses.append(batch_loss)
        for f, m, acc in zip(flats, momenta, grad_accum):
            for k in f:
                m[k] = tc.momentum * m[k] + acc[k]
                # decay shrinks the attention and FFN weights, never an LN parameter
                decay = tc.weight_decay if k.startswith(("attn.", "ffn.")) else 0.0
                f[k] = (1.0 - tc.lr * decay) * f[k] - tc.lr * m[k]

    final_loss = losses[-1] if losses else float("nan")
    return TrialOutcome(
        diverged=cause is not None,
        first_divergence_step=first_divergence,
        final_loss=final_loss,
        loss_curve=tuple(losses),
        moment_curves=tuple(checkpoints),
        cause=cause,
        block=block,
        site=site,
    )
