"""Vector field, integrator, and Casimir bound tests."""

import math

import numpy as np
import pytest

from lorenzlab import (
    FieldSpec,
    _dop853,
    casimir,
    integrate,
    lyapunov_sweep,
)
from lorenzlab.dynamics import (Trajectory, absorption_constant,
                                 absorption_rate)
from lorenzlab.errors import DomainError, IntegrationError
from lorenzlab.section import surface_derivatives


def integrate_rk4(field, y0, t_end: float, n_steps: int) -> Trajectory:
    """Fixed-step classical RK4, an independent oracle for `integrate`."""
    h = float(t_end) / n_steps
    ys = np.empty((n_steps + 1, 3))
    ys[0] = y = np.asarray(y0, dtype=float)
    for i in range(n_steps):
        k1 = field.velocity(y)
        k2 = field.velocity(y + 0.5 * h * k1)
        k3 = field.velocity(y + 0.5 * h * k2)
        k4 = field.velocity(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return Trajectory(t=h * np.arange(n_steps + 1), y=ys)


def stacked_velocity(fld, ys, eta=None) -> np.ndarray:
    """Velocities of states of shape (k, 3): _terms on the columns, the
    form the stored flow's Hermite resample evaluates its nodes in."""
    return np.stack(fld._terms(*ys.T, eta=eta), axis=-1)


class TextbookLorenz:
    """Lorenz'63 in its textbook coordinates x, written out independently."""

    def __init__(self, zeta, gamma, beta):
        self.zeta, self.gamma, self.beta = zeta, gamma, beta

    def _terms(self, x1, x2, x3):
        return (self.zeta * (x2 - x1), x1 * (self.gamma - x3) - x2,
                x1 * x2 - self.beta * x3)


def test_classical_defaults(field):
    assert field.zeta == 10.0
    assert field.gamma == 28.0
    assert field.beta == pytest.approx(8.0 / 3.0)
    assert field.shift == 38.0


def test_parameter_validation():
    with pytest.raises(DomainError):
        FieldSpec(zeta=-1.0)
    with pytest.raises(DomainError):
        FieldSpec(beta=0.0)
    with pytest.raises(DomainError):
        integrate(FieldSpec(), [1.0, 2.0], 1.0)


def test_equilibria(field):
    # saddle: origin of the textbook coordinates
    saddle = np.array([0.0, 0.0, -field.shift])
    np.testing.assert_allclose(field.velocity(saddle), 0.0, atol=1e-12)
    # wing centers, shifted frame
    w = math.sqrt(field.beta * (field.gamma - 1.0))
    for s in (+1.0, -1.0):
        wing = np.array([s * w, s * w, field.gamma - 1.0 - field.shift])
        np.testing.assert_allclose(field.velocity(wing), 0.0, atol=1e-10)


def test_jacobian_matches_finite_differences():
    """J(y) v from jacobian_times against central differences of the field,
    along the basis vectors and along the flow (the stored-flow
    accelerations), forced at eta 0.3. The field is quadratic, so the
    differences are exact up to rounding."""
    fld = FieldSpec(eta=0.3)
    ys = np.random.default_rng(4).normal(scale=20.0, size=(50, 3))
    h = 1e-4
    basis = [np.broadcast_to(e, ys.shape) for e in np.eye(3)]
    for vs in [*basis, stacked_velocity(fld, ys)]:
        fd = (stacked_velocity(fld, ys + h * vs)
              - stacked_velocity(fld, ys - h * vs)) / (2.0 * h)
        np.testing.assert_allclose(fld.jacobian_times(ys, vs), fd,
                                   rtol=1e-8, atol=1e-7)


def test_jacobian_times_is_jacobian_product():
    """The stacked J(y) v used for stored-flow accelerations, against the
    Jacobian matrix of the shifted-frame field written out here (the
    constant forcing does not enter it)."""
    fld = FieldSpec(eta=0.3)
    ys = np.random.default_rng(4).normal(scale=20.0, size=(50, 3))
    acc = fld.jacobian_times(ys, stacked_velocity(fld, ys))
    z, b = fld.zeta, fld.beta
    for y, a in zip(ys, acc):
        y1, y2, y3 = y
        jac = np.array([[-z, z, 0.0],
                        [fld.gamma - fld.shift - y3, -1.0, -y1],
                        [y2, y1, -b]])
        np.testing.assert_allclose(a, jac @ fld.velocity(y),
                                   rtol=1e-13, atol=1e-10)


def test_stacked_terms_match_velocity():
    """_terms on the columns of stacked states, at the field's own eta or
    an array of them, rounds as the one-state velocity, for the classical
    field and one with zeta 0.5, forced at eta 0.3."""
    rng = np.random.default_rng(7)
    ys = rng.normal(scale=20.0, size=(64, 3))
    etas = rng.uniform(-0.5, 0.5, size=64)
    etas[:4] = 0.0
    for field in (FieldSpec(), FieldSpec(zeta=0.5, eta=0.3)):
        batch = stacked_velocity(field, ys, eta=etas)
        for y, eta, v in zip(ys, etas, batch):
            assert np.array_equal(v, field.with_eta(eta).velocity(y))
        for eta in (0.0, 0.05, -0.7):
            fld = field.with_eta(eta)
            for y in ys:
                assert np.array_equal(fld.velocity(y),
                                      stacked_velocity(fld, y[None])[0])


@pytest.mark.parametrize("eta", [0.3, -0.7])
def test_forcing_is_a_rayleigh_shift(eta):
    """Forcing at eta along e3 is the unforced field at gamma' = gamma -
    eta / beta, term for term: dy1 and dy2 do not read gamma, and dy3's
    constants -beta (gamma + zeta) + eta and -beta (gamma' + zeta) differ
    only by rounding, a few ulps of the terms of dy3. The bounds: 4 eps
    (|y1 y2| + beta |y3| + beta (gamma + zeta) + |eta|) per state, and for
    two solves to t = 5 from (1, 1, -37), the solver's tolerance 1e-10."""
    forced = FieldSpec(eta=eta)
    shifted = FieldSpec(gamma=forced.gamma - eta / forced.beta)
    ys = np.random.default_rng(18).normal(0.0, 20.0, (1000, 3))
    a, b = forced._terms(*ys.T), shifted._terms(*ys.T)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    y1, y2, y3 = ys.T
    bound = 4.0 * np.finfo(float).eps * (
        np.abs(y1 * y2) + forced.beta * (np.abs(y3) + forced.shift)
        + abs(eta))
    assert np.all(np.abs(a[2] - b[2]) <= bound)
    ts = np.linspace(0.0, 5.0, 51)
    ya = integrate(forced, [1.0, 1.0, -37.0], 5.0, t_eval=ts).y
    yb = integrate(shifted, [1.0, 1.0, -37.0], 5.0, t_eval=ts).y
    assert np.max(np.abs(ya - yb)) <= 1e-10


def test_casimir_derivatives_match_finite_differences(field):
    rng = np.random.default_rng(2)
    for y in rng.normal(scale=8.0, size=(4, 3)):
        # at eta = 0 the surface function is C' and its slope C''
        cdot, cddot = surface_derivatives(field, y)
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
    """The shifted field and the textbook flow agree through the shift.

    Both runs use tol 1e-10; sensitivity of the flow grows the gap to
    roughly 1e-7 over five time units, which bounds this check.
    """
    fx = TextbookLorenz(field.zeta, field.gamma, field.beta)
    shift = np.array([0.0, 0.0, field.shift])
    x0 = np.array([2.0, 3.0, 15.0])
    ts = np.linspace(0.0, 5.0, 26)
    ty = integrate(field, x0 - shift, 5.0, t_eval=ts)
    tx = integrate(fx, x0, 5.0, t_eval=ts)
    assert np.max(np.abs((tx.y - shift) - ty.y)) < 1e-6


def test_rk4_cross_check(field):
    y0 = np.array([1.0, 2.0, -20.0])
    fine = integrate_rk4(field, y0, 2.0, n_steps=200_000)
    ref = integrate(field, y0, 2.0, t_eval=[2.0])
    assert np.max(np.abs(fine.y[-1] - ref.y[-1])) < 1e-8


def test_failed_solve_raises_integration_error():
    """A blow-up in finite time (dy/dt = y^2) fails the solve."""
    class Blowup:
        def _terms(self, y1, y2, y3):
            return y1 * y1, y2 * y2, y3 * y3

    with pytest.raises(IntegrationError, match="integrate: Required step"):
        integrate(Blowup(), [1.0, 1.0, 1.0], 2.0)


def test_infinite_horizon_rejected_before_solving(monkeypatch):
    """t_end = inf stepped forever; it is refused before any solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(_dop853, "solve", no_solve)
    with pytest.raises(DomainError, match="t_end must be positive and finite"):
        integrate(FieldSpec(), [1.0, 1.0, -30.0], float("inf"))


def test_trajectory_csv_round_trip(tmp_path, field):
    traj = integrate(field, [1.0, 1.0, -30.0], 1.0,
                     t_eval=np.linspace(0.0, 1.0, 11))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1:4], traj.y, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(data[:, 4], traj.casimir_series())


def test_small_sweep_zero_violations(field):
    rep = lyapunov_sweep(500, field=field, seed=4)
    assert rep.violations == 0
    assert rep.min_margin > 0.0


def test_sweep_reads_each_sample_at_its_own_horizon(field):
    """750 samples: one full chunk of 500 and a partial one of 250.

    The worst sample, integrated alone, matches the stacked value. The
    stacked lanes share one step control, whose error chaos amplifies over
    t <= 10, hence 1e-4; a lane read at another lane's horizon is off by
    O(1).
    """
    rep = lyapunov_sweep(750, field=field, seed=1)
    assert rep.n_samples == 750
    assert rep.violations == 0
    w = rep.worst
    alone = integrate(field.with_eta(w["eta"]), w["y0"], w["t"],
                      t_eval=[w["t"]])
    lhs = casimir(alone.y[-1])
    assert abs(lhs - w["lhs"]) <= 1e-4 * lhs
    m = absorption_rate(field)
    decay = math.exp(-m * w["t"])
    k2 = (w["eta"] - field.beta * field.shift) ** 2 / m**2
    rhs = casimir(w["y0"]) * decay + k2 * (1.0 + decay)
    assert w["rhs"] == pytest.approx(rhs, rel=1e-12)
    assert rep.min_margin == pytest.approx(w["rhs"] - w["lhs"], rel=1e-12)


def test_absorption_rate_classical(field):
    assert absorption_rate(field) == 1.0
    assert absorption_rate(FieldSpec(zeta=0.5)) == 0.5
    assert absorption_rate(FieldSpec(beta=0.2)) == 0.2


def test_absorption_constant_closed_form():
    """K = (eta - beta (zeta+gamma))^2 / m^2 at zeta 0.5: m = 0.5 and
    beta (zeta+gamma) = 8/3 * 28.5 = 76, for scalars and an array."""
    fld = FieldSpec(zeta=0.5)
    etas = np.array([-1.0, 0.0, 0.5])
    expected = [4.0 * 77.0 ** 2, 4.0 * 76.0 ** 2, 4.0 * 75.5 ** 2]
    for eta, k in zip(etas, expected):
        assert absorption_constant(fld, float(eta)) == pytest.approx(
            k, rel=1e-13)
    np.testing.assert_array_equal(
        absorption_constant(fld, etas),
        [absorption_constant(fld, float(eta)) for eta in etas])


@pytest.mark.parametrize("fld", [FieldSpec(), FieldSpec(eta=0.3)])
def test_stage_is_velocity_at_the_stage_point(fld):
    """The one-state solver forms the stage point y + h d in floats and
    calls _terms on it: bit for bit velocity at the point numpy forms."""
    rng = np.random.default_rng(5)
    for _ in range(500):
        y, d = rng.normal(0.0, 20.0, 3), rng.normal(0.0, 300.0, 3)
        h = rng.uniform(0.0, 0.05)
        point = [yi + di * h for yi, di in zip(y.tolist(), d.tolist())]
        np.testing.assert_array_equal(fld._terms(*point),
                                      fld.velocity(y + d * h))


def test_sweep_stage_is_velocity_lane_by_lane():
    """The sweep's RHS, _terms on the stacked stage point's strided
    components with lane k forced at etas[k], is bit for bit each lane's
    own velocity at its stage point."""
    rng = np.random.default_rng(6)
    base, n = FieldSpec(), 200
    etas = rng.uniform(-1.0, 1.0, n)
    y, d = rng.normal(0.0, 20.0, 3 * n), rng.normal(0.0, 300.0, 3 * n)
    h = 0.0123
    point = y + d * h
    out = np.column_stack(base._terms(point[0::3], point[1::3], point[2::3],
                                      eta=etas))
    for k in range(n):
        lane = slice(3 * k, 3 * k + 3)
        np.testing.assert_array_equal(
            out[k], base.with_eta(etas[k]).velocity(y[lane] + d[lane] * h))
