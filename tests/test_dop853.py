"""The in-repo DOP853 loop: its tableau, and scipy's solve_ivp as oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lorenzlab import FieldSpec, _dop853, integrate
from lorenzlab.dynamics import _solve
from lorenzlab.errors import DomainError


def test_tableau_order_conditions():
    """Row sums give the nodes, the weights integrate c^k exactly up to the
    method's order 8 (and not beyond), and both error weights sum to 0."""
    a, b, c = _dop853._A, _dop853._B, _dop853._C
    np.testing.assert_allclose(a.sum(axis=1), c, rtol=0.0, atol=1e-14)
    for k in range(8):
        assert abs(b @ c[:12] ** k - 1.0 / (k + 1)) <= 1e-14
    assert abs(b @ c[:12] ** 8 - 1.0 / 9) > 1e-6
    assert abs(_dop853._E5.sum()) <= 1e-14
    assert abs(_dop853._E3.sum()) <= 1e-14


def _rotation(y):
    """y1 = sin t, y2 = cos t, y3 = e^{-t/2} from (0, 1, 1)."""
    return np.array([y[1], -y[0], -0.5 * y[2]])


def _ivp(fun, y0, t_end, tol, **options):
    sol = solve_ivp(lambda t, y: fun(y), (0.0, t_end), y0, method="DOP853",
                    rtol=tol, atol=tol, **options)
    assert sol.success
    return sol


def test_terminal_crossing_matches_solve_ivp():
    """y1 falls through zero at t = pi; the crossing's time and state."""
    def g(y):
        return y[0]

    def ev(t, y):
        return g(y)

    ev.terminal, ev.direction = True, -1.0
    y0 = np.array([0.0, 1.0, 1.0])
    t, y = _solve(_rotation, y0, 5.0, 1e-10, "test", event=g)
    ref = _ivp(_rotation, y0, 5.0, 1e-10, events=[ev])
    assert ref.status == 1
    assert abs(t[-1] - ref.t_events[0][0]) <= 1e-9
    assert np.max(np.abs(y[-1] - ref.y_events[0][0])) <= 1e-9
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9
    assert abs(t[-1] - math.pi) <= 1e-9
    # the start's own zero is not a downward crossing
    assert t[-1] > 1.0


def test_no_crossing_before_t_end_returns_none():
    assert _solve(_rotation, np.array([0.0, 1.0, 1.0]), 3.0, 1e-10, "test",
                  event=lambda y: y[0]) is None


def test_t_eval_read_matches_solve_ivp():
    ts = np.linspace(0.0, 4.0, 41)
    y0 = np.array([0.0, 1.0, 1.0])
    t, y = _solve(_rotation, y0, 4.0, 1e-10, "test", t_eval=ts)
    ref = _ivp(_rotation, y0, 4.0, 1e-10, t_eval=ts)
    np.testing.assert_array_equal(t, ts)
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9
    exact = np.column_stack([np.sin(ts), np.cos(ts), np.exp(-0.5 * ts)])
    assert np.max(np.abs(y - exact)) <= 1e-8


def test_stacked_lanes_match_solve_ivp():
    """Two lanes in one state vector, each with its own rotation rate."""
    rates = np.array([1.0, 2.5])

    def rhs(flat):
        y = flat.reshape(2, 3)
        return np.column_stack([rates * y[:, 1], -rates * y[:, 0],
                                -0.5 * y[:, 2]]).ravel()

    y0 = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 2.0])
    ts = np.array([0.3, 1.1, 2.0])
    t, y = _solve(rhs, y0, 2.0, 1e-10, "test", t_eval=ts)
    ref = _ivp(rhs, y0, 2.0, 1e-10, t_eval=ts)
    assert y.shape == (3, 6)
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9
    t, y = _solve(rhs, y0, 2.0, 1e-10, "test")
    ref = _ivp(rhs, y0, 2.0, 1e-10)
    assert len(t) == len(ref.t)
    assert np.max(np.abs(t - ref.t)) <= 1e-9
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9


@pytest.mark.parametrize("t_eval", [[0.5, 0.2], [-0.1, 0.5], [0.5, 2.5],
                                    [[0.5]]])
def test_integrate_rejects_bad_t_eval(t_eval):
    with pytest.raises(DomainError, match="t_eval"):
        integrate(FieldSpec(), [1.0, 1.0, -30.0], 2.0, t_eval=t_eval)
