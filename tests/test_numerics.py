import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    assignment_bruteforce,
    cost_matrix_w2,
    exact_matched_cost,
    pred_min_cost_assignment,
    scripted_min_cost_assignment,
    softmax_longdouble,
    wasserstein_bruteforce,
)

from lnlab import numerics
from lnlab.model import ModelConfig, model_forward, random_model
from lnlab.numerics import (
    COST_BLOCK_ROWS,
    MAX_OT_SAMPLES,
    NonFiniteError,
    RngStream,
    ShapeMismatchError,
    jacobian_from_vjp,
    min_cost_assignment,
    moments,
    softmax_columns,
    spectral_norm,
    transport_cost,
    unvec,
    vec,
    wasserstein_exact,
)


class TestSoftmaxColumns:
    def test_all_zero_symmetry(self):
        out = softmax_columns(np.zeros((2, 2)))
        assert np.allclose(out, 0.5, atol=0)

    def test_large_logit_no_overflow(self):
        out = softmax_columns(np.array([[1000.0], [0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 1 - 1e-12 and out[1, 0] < 1e-12

    def test_against_extended_precision(self):
        # frozen from the longdouble oracle
        got = softmax_columns(np.array([[1.0], [2.0], [3.0]]))[:, 0]
        expected = np.array([0.09003057317038046, 0.24472847105479764, 0.6652409557748219])
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(got, softmax_longdouble([1.0, 2.0, 3.0]), atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax_columns(np.array([[np.inf], [0.0]]))

    def test_columns_sum_to_one_extreme_inputs(self):
        gen = RngStream(2024).generator()
        s = gen.uniform(-1e3, 1e3, size=(8, 10_000))
        out = softmax_columns(s)
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12
        assert (out >= 0).all()


class TestMoments:
    def test_equal_magnitude_entries(self):
        mo = moments(np.array([[1.0, -1.0], [1.0, -1.0]]))
        assert mo.frob == 2.0 and mo.mean_abs == 1.0
        # Cauchy-Schwarz equality case: mean_abs == frob / sqrt(nd)
        assert mo.mean_abs == pytest.approx(mo.frob / 2.0, abs=0)

    def test_zero_matrix(self):
        mo = moments(np.zeros((2, 2)))
        assert (mo.frob, mo.mean_abs, mo.var) == (0.0, 0.0, 0.0)

    def test_hand_values(self):
        mo = moments(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert mo.frob == pytest.approx(np.sqrt(30.0), rel=1e-15)
        assert mo.mean_abs == 2.5
        assert mo.var == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_single_entry_var_undefined(self):
        with pytest.raises(ShapeMismatchError, match="variance"):
            moments(np.array([[3.0]]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(scale=gen.uniform(0.1, 100.0), size=(gen.integers(1, 7), gen.integers(2, 7)))
        mo = moments(x)
        assert mo.mean_abs <= mo.frob / np.sqrt(x.size) + 1e-12


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_adversarial_symmetric(self):
        # top eigenvector orthogonal to the all-ones direction
        w = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert spectral_norm(w) == pytest.approx(3.0, rel=1e-10)

    def test_against_svd_oracle(self):
        for seed in range(300):
            w = np.random.default_rng(seed).normal(size=(3, 3))
            top = float(np.linalg.svd(w, compute_uv=False)[0])
            assert abs(spectral_norm(w) - top) / top < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0))
    def test_absolute_homogeneity(self, seed, c):
        w = np.random.default_rng(seed).normal(size=(4, 3))
        base = spectral_norm(w)
        assert spectral_norm(c * w) == pytest.approx(abs(c) * base, rel=1e-8, abs=1e-12)

    def test_never_below_svd(self):
        # the chain bound multiplies |W|_2 factors, so an under-estimate
        # would weaken an upper bound
        for seed in range(300):
            gen = np.random.default_rng(seed)
            w = gen.normal(size=tuple(gen.integers(1, 9, size=2)))
            assert spectral_norm(w) >= np.linalg.svd(w, compute_uv=False)[0]

    def test_row_and_column_vectors(self):
        v = np.array([[3.0, 4.0]])
        assert spectral_norm(v) == pytest.approx(5.0, rel=1e-10)
        assert spectral_norm(v.T) == pytest.approx(5.0, rel=1e-10)


class TestUnvec:
    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            unvec(np.zeros(5), 2, 3)


class TestVec:
    def test_column_major(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(x), [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(unvec(vec(x), 2, 2), x)


class TestJacobianFromVjp:
    @pytest.mark.parametrize("d, n", [(3, 2), (2, 5)])
    def test_linear_map_comes_back_exactly(self, d, n):
        # J[j*d + a, i*d + b] = d out[a, j] / d in[b, i]: integer entries, so
        # every VJP entry is exact, and J is far from symmetric
        nd = d * n
        J = RngStream(d * 10 + n).generator().integers(-9, 10, size=(nd, nd)).astype(np.float64)
        assert not np.array_equal(J, J.T)
        T = J.reshape(n, d, n, d)

        def vjp(G):
            return np.einsum("...aj,jaib->...bi", G, T)

        assert np.array_equal(jacobian_from_vjp(vjp, d, n), J)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().normal(size=8)
        b = RngStream(7, 3).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 3).generator().normal(size=8)
        b = RngStream(7, 4).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_children_distinct_and_stable(self):
        root = RngStream(11)
        kids = [root.child(i) for i in range(64)]
        assert len({k.stream for k in kids}) == 64
        assert root.child(5) == root.child(5)

    def test_known_philox_draw(self):
        # regression pin: Philox keyed draws must never change across platforms
        first = RngStream(0, 0).generator().integers(0, 2**63)
        assert first == RngStream(0, 0).generator().integers(0, 2**63)

    def test_restart_draws_what_a_fresh_generator_draws(self):
        reused = RngStream(1).generator()
        for stream in [RngStream(7, 3), RngStream(2**64 - 1, 5).child(9), RngStream(7, 3)]:
            reused.normal(size=5)  # the draws before a restart leave nothing behind
            fresh = stream.generator()
            assert stream._restart(reused) is reused
            assert np.array_equal(reused.normal(size=9), fresh.normal(size=9))
            assert np.array_equal(reused.integers(0, 2**63, size=3), fresh.integers(0, 2**63, size=3))


def _certify_pushforward() -> tuple[np.ndarray, np.ndarray]:
    """The pushed-forward W_2 problem of one ot-check instance at N = 256,
    as two (N, nd) stacks."""
    stream = RngStream(2001, 2).child(0)
    gen = stream.child(1).generator()
    cfg = ModelConfig(depth=8)
    params = random_model(cfg, stream.child(2))
    mu0 = gen.normal(size=(MAX_OT_SAMPLES, cfg.d, cfg.n))
    nu0 = gen.normal(size=(MAX_OT_SAMPLES, cfg.d, cfg.n)) + gen.normal(scale=0.5)
    mu_d = model_forward(mu0, params, cfg).x_final.reshape(MAX_OT_SAMPLES, -1)
    nu_d = model_forward(nu0, params, cfg).x_final.reshape(MAX_OT_SAMPLES, -1)
    return mu_d, nu_d


def _clouds(n: int, m: int, seed: int, offset: float, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Two (n, m) standard normal clouds, both moved by ``offset`` in every
    coordinate and the second by ``shift`` more."""
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, m)) + offset
    return a, gen.normal(size=(n, m)) + (offset + shift)


def _solved(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``wasserstein_exact(a, b, 2.0)``, the matrix it handed its solver and
    the matching the solver returned."""
    solved = []
    solve = numerics.min_cost_assignment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "min_cost_assignment", lambda g: solved.append((g, solve(g))) or solved[-1][1])
        w = wasserstein_exact(a, b, 2.0)
    return (w,) + solved[0]


class TestAssignment:
    def test_vs_bruteforce(self):
        for seed in range(150):
            cost = np.random.default_rng(seed).uniform(0, 10, size=(5, 5))
            col = min_cost_assignment(cost)
            assert sorted(col) == list(range(5))
            got = float(cost[np.arange(5), col].sum())
            assert got == pytest.approx(assignment_bruteforce(cost), abs=1e-12)

    def test_negative_costs(self):
        for seed in range(50):
            cost = np.random.default_rng(seed).uniform(-5, 5, size=(5, 5))
            col = min_cost_assignment(cost)
            got = float(cost[np.arange(5), col].sum())
            assert got == pytest.approx(assignment_bruteforce(cost), abs=1e-12)

    def test_vs_bruteforce_after_the_row_reduction(self):
        # the rank-one Gram cost a_i^2 - 2 a_i b_j with rows at equal gaps,
        # a_i = i, and every b_j past the last row: each column's minimum falls
        # on that row, so the row reduction leaves rows for the shortest paths
        left_free = 0
        for n in (6, 7, 8):
            for seed in range(20):
                a = np.arange(n, dtype=np.float64)
                b = np.random.default_rng(seed).uniform(n, 2 * n, size=n)
                cost = (a * a)[:, None] - 2.0 * np.outer(a, b)
                left_free += sum(j < 0 for j in numerics._reduction(cost)[0])
                col = min_cost_assignment(cost)
                assert sorted(col) == list(range(n))
                got = float(cost[np.arange(n), col].sum())
                assert got == pytest.approx(assignment_bruteforce(cost), abs=1e-9)
        assert left_free > 60  # the path phase places more than one row a problem on average

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeMismatchError):
            min_cost_assignment(np.zeros((2, 3)))

    def test_empty_matrix(self):
        col = min_cost_assignment(np.zeros((0, 0)))
        assert col.dtype == np.int64 and col.shape == (0,)

    def test_moderate_size_runs(self):
        cost = np.random.default_rng(0).uniform(size=(128, 128))
        col = min_cost_assignment(cost)
        assert sorted(col) == list(range(128))


class TestAssignmentVsHungarian:
    """The shortest-augmenting-path solver against the textbook Hungarian
    loop of ``oracles.scripted_min_cost_assignment``."""

    @settings(max_examples=60)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_continuous_costs_same_col(self, n, seed):
        cost = np.random.default_rng(seed).uniform(-10, 10, size=(n, n))
        assert np.array_equal(min_cost_assignment(cost), scripted_min_cost_assignment(cost))

    @settings(max_examples=60)
    @given(
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False)),
    )
    def test_tied_costs_same_total(self, n, seed, constant):
        # integers in {0, 1, 2}, or one constant: many optimal matchings,
        # any of which may come back, but all at exactly the same total
        if constant is None:
            cost = np.random.default_rng(seed).integers(0, 3, size=(n, n)).astype(np.float64)
        else:
            cost = np.full((n, n), constant)
        col = min_cost_assignment(cost)
        assert col.dtype == np.int64
        assert np.array_equal(np.sort(col), np.arange(n))
        rows = np.arange(n)
        expected = cost[rows, scripted_min_cost_assignment(cost)].sum()
        assert cost[rows, col].sum() == expected

    @settings(max_examples=60)
    @given(
        st.builds(
            _clouds,
            st.integers(1, 64),
            st.integers(1, 30),
            st.integers(0, 2**32 - 1),
            st.just(0.0),
            st.floats(-5, 5),
        )
    )
    def test_gram_costs_same_col(self, clouds):
        # W_2's Gram ranking: its column minima pile onto few rows, which is
        # where augmenting row reduction displaces rows
        _, gram, col = _solved(*clouds)
        assert np.array_equal(col, scripted_min_cost_assignment(gram))

    def test_certify_shaped_same_col(self):
        # the Gram ranking that certify's W_2 hands the solver, then the full
        # squared-distance matrix of the same clouds
        _, gram, col = _solved(*_certify_pushforward())
        assert np.array_equal(col, scripted_min_cost_assignment(gram))
        cost = transport_cost(*_certify_pushforward(), 2.0)
        assert np.array_equal(min_cost_assignment(cost), scripted_min_cost_assignment(cost))


class TestAssignmentVsPredArray:
    """The solver against ``oracles.pred_min_cost_assignment``, the same
    search from the same start, keeping a predecessor array updated on every
    strict decrease: reading predecessors from the scanned rows must pick
    the same column for every row, ties included."""

    @settings(max_examples=150)
    @given(
        st.integers(0, 64),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["continuous", "integers", "constant"]),
    )
    @example(MAX_OT_SAMPLES, 1301, "integers")  # ties at certify's N
    @example(MAX_OT_SAMPLES, 1301, "constant")
    def test_same_col(self, n, seed, kind):
        gen = np.random.default_rng(seed)
        if kind == "continuous":
            cost = gen.uniform(-10, 10, size=(n, n))
        elif kind == "integers":
            cost = gen.integers(0, 3, size=(n, n)).astype(np.float64)
        else:
            cost = np.full((n, n), gen.normal())
        assert np.array_equal(min_cost_assignment(cost), pred_min_cost_assignment(cost))


class TestTransportCost:
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize(
        "n", [0, 1, COST_BLOCK_ROWS - 1, COST_BLOCK_ROWS, COST_BLOCK_ROWS + 1, MAX_OT_SAMPLES]
    )
    @pytest.mark.parametrize("extra", [0, 5])
    def test_same_bits_as_one_shot_broadcast(self, n, p, extra):
        # extra > 0: the second stack holds more samples than the first
        gen = np.random.default_rng(n)
        a = gen.normal(size=(n, 12))
        b = gen.normal(size=(n + extra, 12)) + 0.25
        expected = (np.abs(a[:, None] - b[None]) ** p).sum(axis=2)
        assert np.array_equal(transport_cost(a, b, p), expected)

    @pytest.mark.parametrize("a, b", [
        (np.zeros((2, 1)), np.ones((3, 5))),
        (np.zeros((2, 5)), np.ones((3, 1))),
        (np.zeros((2, 3, 2)), np.ones((3, 3, 2))),
        (np.zeros(4), np.ones((3, 4))),
    ], ids=["narrow_first", "narrow_second", "three_axes", "one_axis"])
    def test_stacks_of_other_shapes_rejected(self, a, b):
        with pytest.raises(ShapeMismatchError, match="transport_cost: expected two"):
            transport_cost(a, b, 2.0)


class TestWassersteinExact:
    def test_identical_sets_any_order(self):
        gen = np.random.default_rng(1)
        a = gen.normal(size=(6, 3, 2))
        shuffled = a[np.array([3, 1, 5, 0, 2, 4])]
        assert wasserstein_exact(a, shuffled, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_single_points(self):
        x = np.random.default_rng(2).normal(size=(1, 3, 2))
        y = np.random.default_rng(3).normal(size=(1, 3, 2))
        for p in (1.0, 2.0, 3.5):
            expected = float(np.sum(np.abs(x - y) ** p) ** (1.0 / p))
            assert wasserstein_exact(x, y, p) == pytest.approx(expected, rel=1e-12)

    def test_vs_bruteforce_n5(self):
        for seed in range(60):
            gen = np.random.default_rng(seed)
            a = gen.normal(size=(5, 2, 2))
            b = gen.normal(size=(5, 2, 2)) + gen.normal()
            for p in (1.0, 2.0):
                assert wasserstein_exact(a, b, p) == pytest.approx(
                    wasserstein_bruteforce(a, b, p), abs=1e-12
                )

    def test_metric_properties(self):
        gen = np.random.default_rng(9)
        for _ in range(25):
            n = int(gen.integers(2, 9))
            a = gen.normal(size=(n, 2, 2))
            b = gen.normal(size=(n, 2, 2))
            c = gen.normal(size=(n, 2, 2))
            p = float(gen.choice([1.0, 2.0, 3.0]))
            ab = wasserstein_exact(a, b, p)
            ba = wasserstein_exact(b, a, p)
            assert ab == pytest.approx(ba, abs=1e-9)
            ac = wasserstein_exact(a, c, p)
            cb = wasserstein_exact(c, b, p)
            assert ab <= ac + cb + 1e-9

    def test_unequal_counts_rejected(self):
        with pytest.raises(ShapeMismatchError):
            wasserstein_exact(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), 2.0)

    @pytest.mark.parametrize("p", [0.5, float("nan"), float("inf"), float("-inf")])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must"):
            wasserstein_exact(np.ones((3, 2, 2)), np.zeros((3, 2, 2)), p)

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ShapeMismatchError, match="at least one sample"):
            wasserstein_exact(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), 2.0)

    def test_sample_cap(self):
        n = MAX_OT_SAMPLES + 1
        with pytest.raises(ValueError, match="cap"):
            wasserstein_exact(np.zeros((n, 1, 1)), np.zeros((n, 1, 1)), 2.0)

    @pytest.mark.parametrize("p, calls", [(1.0, 1), (2.0, 0), (3.0, 1)])
    def test_cost_matrix_only_off_p2(self, monkeypatch, p, calls):
        seen = []
        cost = numerics.transport_cost
        monkeypatch.setattr(numerics, "transport_cost", lambda a, b, q: seen.append(q) or cost(a, b, q))
        gen = np.random.default_rng(4)
        wasserstein_exact(gen.normal(size=(7, 3, 2)), gen.normal(size=(7, 3, 2)), p)
        assert seen == [p] * calls


class TestWassersteinGram:
    """W_2 from the Gram product against ``oracles.cost_matrix_w2``, the
    same solver on the full squared-distance matrix."""

    @settings(max_examples=60)
    @given(
        st.builds(
            _clouds,
            st.integers(1, MAX_OT_SAMPLES),
            st.integers(1, 30),
            st.integers(0, 2**32 - 1),
            st.floats(-1e4, 1e4),
            st.floats(-1e4, 1e4),
        )
    )
    @example(_certify_pushforward())
    @example(_clouds(MAX_OT_SAMPLES, 1, 2, -1e4, 1e4))  # the two matchings part
    def test_same_bits_as_the_cost_matrix(self, clouds):
        a, b = clouds
        w, _, col = _solved(a, b)
        ref_w, ref_col = cost_matrix_w2(a, b)
        rows = np.flatnonzero(col != ref_col)
        if rows.size == 0:
            assert w == ref_w
        else:
            # the cost matrix rounds each entry at eps |a - b|^2, G at about
            # eps |a - mean(a)| |b - mean(a)|: where the two part, the cost
            # matrix's pick must cost more, exactly
            assert exact_matched_cost(a, b, rows, col) < exact_matched_cost(a, b, rows, ref_col)
            assert w == pytest.approx(ref_w, rel=1e-12)

    @settings(max_examples=40)
    @given(
        st.integers(1, MAX_OT_SAMPLES),
        st.integers(1, 30),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_duplicated_samples_same_optimal_cost(self, n, m, k, seed):
        # k distinct points per cloud: ties, so any optimal matching may come back
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(k, m))[gen.integers(0, k, size=n)]
        b = (gen.normal(size=(k, m)) + gen.normal())[gen.integers(0, k, size=n)]
        assert wasserstein_exact(a, b, 2.0) == pytest.approx(cost_matrix_w2(a, b)[0], rel=1e-12)
