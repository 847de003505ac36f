"""Vector field, integrator, and Casimir bound tests."""

import math

import numpy as np
import pytest

from lorenzlab import (
    FieldSpec,
    Frame,
    casimir,
    casimir_derivatives,
    check_lyapunov_bound,
    integrate,
    lyapunov_sweep,
    to_x_frame,
    to_y_frame,
)
from lorenzlab.dynamics import absorption_rate, eval_field, integrate_rk4
from lorenzlab.errors import DomainError, IntegrationError


def test_classical_defaults(field):
    assert field.zeta == 10.0
    assert field.gamma == 28.0
    assert field.beta == pytest.approx(8.0 / 3.0)
    assert field.frame is Frame.Y
    assert field.shift == 38.0
    np.testing.assert_allclose(field.h0, [0.0, 0.0, -8.0 / 3.0 * 38.0])


def test_parameter_validation():
    with pytest.raises(DomainError):
        FieldSpec(zeta=-1.0)
    with pytest.raises(DomainError):
        FieldSpec(beta=0.0)
    with pytest.raises(DomainError):
        FieldSpec(forcing=(0.0, 0.0, 2.0))
    with pytest.raises(DomainError):
        eval_field(FieldSpec(), [1.0, 2.0])


def test_equilibria(field):
    # saddle: origin of the raw frame
    np.testing.assert_allclose(field.velocity(field.saddle), 0.0,
                               atol=1e-12)
    # wing centers, shifted frame
    w = math.sqrt(field.beta * (field.gamma - 1.0))
    for s in (+1.0, -1.0):
        wing = np.array([s * w, s * w, field.gamma - 1.0 - field.shift])
        np.testing.assert_allclose(field.velocity(wing), 0.0, atol=1e-10)


def test_jacobian_matches_finite_differences(field):
    for fld in (field, field.in_frame(Frame.X)):
        rng = np.random.default_rng(1)
        for y in rng.normal(scale=10.0, size=(5, 3)):
            jac = fld.jacobian(y)
            fd = np.empty((3, 3))
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (fld.velocity(y + e)
                            - fld.velocity(y - e)) / (2 * h)
            np.testing.assert_allclose(jac, fd, atol=1e-6)


def test_velocity_batch_matches_velocity(field):
    rng = np.random.default_rng(7)
    for fld in (field, field.in_frame(Frame.X)):
        ys = rng.normal(scale=20.0, size=(64, 3))
        etas = rng.uniform(-0.5, 0.5, size=64)
        etas[:4] = 0.0
        batch = fld.velocity_batch(ys, eta=etas)
        for y, eta, v in zip(ys, etas, batch):
            assert np.array_equal(v, fld.with_eta(eta).velocity(y))


def test_casimir_derivatives_match_finite_differences(field):
    rng = np.random.default_rng(2)
    for y in rng.normal(scale=8.0, size=(4, 3)):
        cdot, cddot = casimir_derivatives(field, y)
        h = 1e-5
        cm = casimir(y)
        cp = casimir(integrate(field, y, h, t_eval=[h]).y[-1])
        cpp = casimir(integrate(field, y, 2 * h, t_eval=[2 * h]).y[-1])
        fd1 = (cp - cm) / h
        fd2 = (cpp - 2 * cp + cm) / h**2
        assert abs(cdot - fd1) < 5e-3 * max(1.0, abs(cdot))
        assert abs(cddot - fd2) < 5e-2 * max(1.0, abs(cddot))


def test_axis_decay_closed_form(field):
    """On the invariant y3-axis the flow is linear with rate beta."""
    y0 = np.array([0.0, 0.0, 2.0])
    ts = np.linspace(0.1, 2.0, 8)
    traj = integrate(field, y0, 2.0, t_eval=ts)
    expected = -field.shift + (2.0 + field.shift) * np.exp(
        -field.beta * ts)
    np.testing.assert_allclose(traj.y[:, 2], expected, atol=1e-8)
    np.testing.assert_allclose(traj.y[:, :2], 0.0, atol=1e-12)


def test_frame_conjugacy(field):
    """X-frame and Y-frame integrations agree through the coordinate map.

    Both runs use tol 1e-10; sensitivity of the flow grows the gap to
    roughly 1e-7 over five time units, which bounds this check.
    """
    fx = field.in_frame(Frame.X)
    y0 = np.array([2.0, 3.0, 15.0])
    ts = np.linspace(0.0, 5.0, 26)
    ty = integrate(field, to_y_frame(field, y0), 5.0, t_eval=ts)
    tx = integrate(fx, y0, 5.0, t_eval=ts)
    shifted = np.array([to_y_frame(field, p) for p in tx.y])
    assert np.max(np.abs(shifted - ty.y)) < 1e-6


def test_round_trip_frames(field):
    y = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(to_x_frame(field, to_y_frame(field, y)), y)


def test_rk4_cross_check(field):
    y0 = np.array([1.0, 2.0, -20.0])
    fine = integrate_rk4(field, y0, 2.0, n_steps=200_000)
    ref = integrate(field, y0, 2.0, t_eval=[2.0])
    assert np.max(np.abs(fine.y[-1] - ref.y[-1])) < 1e-8


def test_failed_solve_raises_integration_error():
    """A blow-up in finite time (dy/dt = y^2) fails the solve."""
    class Blowup:
        def velocity(self, y):
            return y * y

    with pytest.raises(IntegrationError, match="integrate: Required step"):
        integrate(Blowup(), [1.0, 1.0, 1.0], 2.0)


def test_trajectory_csv_round_trip(tmp_path, field):
    traj = integrate(field, [1.0, 1.0, -30.0], 1.0,
                     t_eval=np.linspace(0.0, 1.0, 11))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1:4], traj.y, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(data[:, 4], traj.casimir_series())


def test_forced_field_bound(field):
    rng = np.random.default_rng(3)
    for eta in (-1.0, 0.3, 1.0):
        f = field.with_eta(eta)
        y0 = rng.normal(scale=30.0, size=3)
        rep = check_lyapunov_bound(f, y0, t=3.0)
        assert rep.satisfied, f"eta={eta}: {rep}"


def test_small_sweep_zero_violations(field):
    rep = lyapunov_sweep(500, field=field, seed=4)
    assert rep.violations == 0
    assert rep.min_margin > 0.0


def test_absorption_rate_classical(field):
    assert absorption_rate(field) == 1.0
    assert absorption_rate(FieldSpec(zeta=0.5)) == 0.5
    assert absorption_rate(FieldSpec(beta=0.2)) == 0.2
