import numpy as np
import pytest

from oracles import scripted_fd_jacobian

from lnlab import gradcheck


def test_one_call_on_interleaved_points():
    x = np.array([1.0, -2.0, 0.5])
    calls = []

    def f(points):
        calls.append(points)
        return np.stack([points.sum(axis=-1), (points ** 2).sum(axis=-1)], axis=-1)

    jac = gradcheck.fd_jacobian(f, x)
    h = 1e-6 * 3.0
    steps = [s * h * e for e in np.eye(3) for s in (1.0, -1.0)]
    assert len(calls) == 1 and np.array_equal(calls[0], x + np.array(steps))
    assert jac.shape == (2, 3) and jac.flags.c_contiguous
    assert np.array_equal(jac, scripted_fd_jacobian(lambda v: f(v[None])[0], x))


@pytest.mark.parametrize("category", gradcheck.CATEGORIES)
def test_rows_equal_the_per_entry_loop(category, monkeypatch):
    """Every row of seeds 0-59 is repr-equal to the one the per-entry loop
    gives on the same maps, called one point at a time."""
    stacked = [repr(gradcheck.check_instance(category, seed, 0)) for seed in range(60)]
    monkeypatch.setattr(gradcheck, "fd_jacobian", scripted_fd_jacobian)
    assert stacked == [repr(gradcheck.check_instance(category, seed, 0)) for seed in range(60)]
