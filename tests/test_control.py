import re

import numpy as np
import pytest

from oracles import loglog_slope

from lnlab.control import (
    ZeroAdjointError,
    hamiltonian_maximizer,
    integrate_projected_flow,
    postln_projection,
    radial_reprojection,
    sample_ellipsoid,
)
from lnlab.normalization import LNParams, ellipsoid_residual
from lnlab.numerics import NonFiniteError, RngStream, ShapeMismatchError


def random_site(gen, d, with_beta=True):
    gamma = gen.normal(1.0, 0.4, size=d)
    gamma[np.abs(gamma) < 0.1] = 0.5
    beta = gen.normal(0.0, 0.5, size=d) if with_beta else np.zeros(d)
    return LNParams(gamma, beta, 0.0, "layernorm")


class TestHamiltonianMaximizer:
    def test_axis_adjoint_on_circle(self):
        f = hamiltonian_maximizer(np.array([[1.0], [0.0]]), np.ones(2), np.zeros(2))
        assert np.allclose(f[:, 0], [-np.sqrt(2.0), 0.0], atol=1e-15)
        assert -(np.array([1.0, 0.0]) @ f[:, 0]) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_dense_grid_oracle_d2(self):
        gen = RngStream(0).generator()
        gamma = np.array([1.3, 0.6])
        p = gen.normal(size=(2, 1))
        f = hamiltonian_maximizer(p, gamma, np.zeros(2))[:, 0]
        theta = np.linspace(0.0, 2.0 * np.pi, 200_001)
        grid = np.sqrt(2.0) * np.vstack([gamma[0] * np.cos(theta), gamma[1] * np.sin(theta)])
        grid_best = float((-(p[:, 0] @ grid)).max())
        assert -(p[:, 0] @ f) == pytest.approx(grid_best, abs=1e-8)

    def test_beta_is_a_translation(self):
        gen = RngStream(1).generator()
        P = gen.normal(size=(4, 3))
        gamma = np.abs(gen.normal(1.0, 0.3, size=4)) + 0.1
        beta = gen.normal(size=4)
        base = hamiltonian_maximizer(P, gamma, np.zeros(4))
        shifted = hamiltonian_maximizer(P, gamma, beta)
        assert np.allclose(shifted, base + beta[:, None], atol=1e-14)

    def test_columns_on_ellipsoid(self):
        gen = RngStream(2).generator()
        for _ in range(20):
            d = int(gen.integers(2, 8))
            site = random_site(gen, d)
            P = gen.normal(size=(d, 5))
            f = hamiltonian_maximizer(P, site.gamma, site.beta)
            for j in range(5):
                assert abs(ellipsoid_residual(f[:, j], site)) <= 1e-10

    def test_dominates_random_ellipsoid_points(self):
        for seed in range(20):
            gen = RngStream(seed, 3).generator()
            d = int(gen.integers(2, 8))
            site = random_site(gen, d)
            P = gen.normal(size=(d, 4))
            fstar = hamiltonian_maximizer(P, site.gamma, site.beta)
            samples = sample_ellipsoid(site, RngStream(seed, 4), 10_000)
            for j in range(4):
                best_star = -(P[:, j] @ fstar[:, j])
                sampled = -(P[:, j] @ samples)
                assert best_star >= sampled.max() - 1e-9

    def test_zero_adjoint_column_rejected(self):
        P = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ZeroAdjointError, match="column 1"):
            hamiltonian_maximizer(P, np.ones(2), np.zeros(2))

    def test_short_beta_rejected(self):
        # numpy would broadcast a length-1 beta over all three rows
        with pytest.raises(ShapeMismatchError, match=r"gamma \(3,\) and beta \(1,\)"):
            hamiltonian_maximizer(np.eye(3), np.ones(3), np.zeros(1))


class TestProjection:
    def test_tangent_vector_unchanged(self):
        gen = RngStream(5).generator()
        site = random_site(gen, 4)
        x = sample_ellipsoid(site, RngStream(6), 1)[:, 0]
        c = x - site.beta
        # build f orthogonal to (x - beta) in the Gamma^-2 inner product
        f = gen.normal(size=4)
        f -= (c @ (f / site.gamma**2)) / (c @ (c / site.gamma**2)) * c
        assert np.allclose(postln_projection(x, f, site), f, atol=1e-13)

    def test_parallel_vector_killed(self):
        gen = RngStream(7).generator()
        site = random_site(gen, 3)
        x = sample_ellipsoid(site, RngStream(8), 1)[:, 0]
        f = 2.7 * (x - site.beta)
        assert np.allclose(postln_projection(x, f, site), 0.0, atol=1e-12)

    def test_orthogonality_in_weighted_inner_product(self):
        gen = RngStream(9).generator()
        for _ in range(200):
            d = int(gen.integers(2, 8))
            site = random_site(gen, d)
            x = gen.normal(size=d) + site.beta
            f = gen.normal(scale=3.0, size=d)
            proj = postln_projection(x, f, site)
            c = x - site.beta
            assert abs(c @ (proj / site.gamma**2)) <= 1e-12 * max(1.0, np.abs(f).max())

    def test_idempotent(self):
        gen = RngStream(10).generator()
        site = random_site(gen, 5)
        x = gen.normal(size=5)
        f = gen.normal(size=5)
        once = postln_projection(x, f, site)
        twice = postln_projection(x, once, site)
        assert np.allclose(twice, once, atol=1e-12)

    def test_center_rejected(self):
        site = random_site(RngStream(11).generator(), 3)
        with pytest.raises(ValueError, match="center"):
            postln_projection(site.beta.copy(), np.ones(3), site)


class TestParameterDim:
    # numpy would broadcast a length-1 gamma, beta or velocity over the point
    @pytest.mark.parametrize("call, match", [
        (lambda x: radial_reprojection(x, LNParams(np.ones(1))), "columns of length 3, parameters of dim 1"),
        (lambda x: postln_projection(x, x, LNParams(np.ones(1))), "columns of length 3, parameters of dim 1"),
        (lambda x: postln_projection(x, np.ones(1), LNParams(np.ones(3))), "columns of length 1, parameters of dim 3"),
    ], ids=["radial_reprojection", "postln_projection", "postln_projection-velocity"])
    def test_mismatched_dim_raises(self, call, match):
        with pytest.raises(ShapeMismatchError, match=match):
            call(np.array([1.0, 2.0, 3.0]))

    # gamma (2, 3) holds two sites' parameters, which numpy would broadcast over one point
    @pytest.mark.parametrize("name, call", [
        ("radial_reprojection", radial_reprojection),
        ("postln_projection", lambda x, p: postln_projection(x, x, p)),
    ], ids=["radial_reprojection", "postln_projection"])
    def test_stacked_parameters_rejected(self, name, call):
        p = LNParams(np.ones((2, 3)), np.zeros(3))
        with pytest.raises(ShapeMismatchError, match="^" + re.escape(
                f"{name} takes one parameter set, got gamma (2, 3) and beta (3,)")):
            call(np.array([1.0, 2.0, 4.0]), p)


class TestIntegrateProjectedFlow:
    def test_zero_field_constant(self):
        site = random_site(RngStream(12).generator(), 4)
        x0 = sample_ellipsoid(site, RngStream(13), 1)[:, 0]
        traj = integrate_projected_flow(x0, lambda x: np.zeros(4), site, steps=20, h=0.1)
        assert np.array_equal(traj[0], traj[-1])

    def test_residual_stays_small_with_reprojection(self):
        gen = RngStream(14).generator()
        site = random_site(gen, 3)
        x0 = sample_ellipsoid(site, RngStream(15), 1)[:, 0]
        field = lambda x: np.array([x[1], -x[0], 0.5 * x[2]])
        traj = integrate_projected_flow(x0, field, site, steps=200, h=0.05)
        for point in traj:
            assert abs(ellipsoid_residual(point, site)) <= 1e-9

    def test_drift_without_reprojection_is_second_order(self):
        # one Euler step off the ellipsoid drifts by exactly h^2 v^T G^-2 v,
        # so halving h must quarter the drift: slope 2 on a log-log fit
        gen = RngStream(16).generator()
        site = random_site(gen, 3)
        x0 = sample_ellipsoid(site, RngStream(17), 1)[:, 0]
        field = lambda x: np.array([x[1] - x[2], -x[0], x[0] * 0.3])
        hs = [0.02 / 2**i for i in range(5)]
        drifts = []
        for h in hs:
            traj = integrate_projected_flow(x0, field, site, steps=1, h=h, reproject=False)
            drifts.append(abs(ellipsoid_residual(traj[-1], site)))
        slope = loglog_slope(hs, drifts)
        assert abs(slope - 2.0) <= 0.3

    def test_circular_field_preserves_speed(self):
        # rotational field on the circle (d=2, gamma=1, beta=0): the projected
        # flow is a rigid rotation, so step speeds stay equal
        site = LNParams(np.ones(2), np.zeros(2), 0.0, "layernorm")
        x0 = np.array([np.sqrt(2.0), 0.0])
        field = lambda x: np.array([-x[1], x[0]])
        traj = integrate_projected_flow(x0, field, site, steps=100, h=0.01)
        speeds = np.linalg.norm(np.diff(traj, axis=0), axis=1)
        assert np.abs(speeds - speeds[0]).max() <= 1e-6

    def test_off_ellipsoid_start_rejected(self):
        site = random_site(RngStream(18).generator(), 3)
        with pytest.raises(ValueError, match="residual"):
            integrate_projected_flow(site.beta + 10.0, lambda x: x, site, steps=1, h=0.1)

    def test_nonfinite_field_rejected(self):
        site = LNParams(np.ones(2), np.zeros(2), 0.0, "layernorm")
        x0 = np.array([np.sqrt(2.0), 0.0])
        with pytest.raises(NonFiniteError):
            integrate_projected_flow(x0, lambda x: np.array([np.nan, 0.0]), site, steps=1, h=0.1)


class TestSampler:
    def test_samples_on_ellipsoid(self):
        gen = RngStream(19).generator()
        for kind in ("layernorm", "rmsnorm"):
            site = LNParams(
                np.abs(gen.normal(1.0, 0.4, size=5)) + 0.1,
                gen.normal(size=5) if kind == "layernorm" else None,
                0.0, kind,
            )
            pts = sample_ellipsoid(site, RngStream(20), 500)
            for j in range(pts.shape[1]):
                assert abs(ellipsoid_residual(pts[:, j], site)) <= 1e-9

    def test_reprojection_exact(self):
        gen = RngStream(21).generator()
        site = random_site(gen, 4)
        y = gen.normal(scale=5.0, size=4)
        assert abs(ellipsoid_residual(radial_reprojection(y, site), site)) <= 1e-12
