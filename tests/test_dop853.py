"""The in-repo DOP853 loop, on one state in floats and on stacked lanes in
numpy: its tableau, with scipy's solve_ivp and brentq as oracles, and the
two forms of state against each other."""

import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lorenzlab import (FieldSpec, NoiseLaw, SectionSpec, _dop853, integrate,
                       sample_chain, settle_on_attractor)
from lorenzlab.errors import DomainError, IntegrationError
from lorenzlab.section import _g


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


def _rotation(y1, y2, y3):
    """y1 = sin t, y2 = cos t, y3 = e^{-t/2} from (0, 1, 1)."""
    return y2, -y1, -0.5 * y3


def _ivp(fun, y0, t_end, tol, **options):
    """solve_ivp's DOP853 on fun(y), an array's field as an array."""
    sol = solve_ivp(lambda t, y: fun(y), (0.0, t_end), y0,
                    method="DOP853", rtol=tol, atol=tol, **options)
    assert sol.success
    return sol


def _array(f):
    """The field f(y1, y2, y3) of the one-state loop, on arrays."""
    return lambda y: np.array(f(*y.tolist()))


def test_terminal_crossing_matches_solve_ivp():
    """y1 falls through zero at t = pi; the crossing's time and state."""
    def g(y, v):
        return y[0]

    def ev(t, y):
        return g(y, None)

    ev.terminal, ev.direction = True, -1.0
    y0 = np.array([0.0, 1.0, 1.0])
    t, y = _dop853.solve(_rotation, y0, 5.0, 1e-10, "test", event=g)
    ref = _ivp(_array(_rotation), y0, 5.0, 1e-10, events=[ev])
    assert ref.status == 1
    assert abs(t[-1] - ref.t_events[0][0]) <= 1e-9
    assert np.max(np.abs(y[-1] - ref.y_events[0][0])) <= 1e-9
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9
    assert abs(t[-1] - math.pi) <= 1e-9
    # the start's own zero is not a downward crossing
    assert t[-1] > 1.0


def test_no_crossing_before_t_end_returns_none():
    assert _dop853.solve(_rotation, np.array([0.0, 1.0, 1.0]), 3.0, 1e-10,
                         "test", event=lambda y, v: y[0]) is None


def test_t_eval_read_matches_solve_ivp():
    ts = np.linspace(0.0, 4.0, 41)
    y0 = np.array([0.0, 1.0, 1.0])
    t, y = _dop853.solve(_rotation, y0, 4.0, 1e-10, "test", t_eval=ts)
    ref = _ivp(_array(_rotation), y0, 4.0, 1e-10, t_eval=ts)
    np.testing.assert_array_equal(t, ts)
    assert np.max(np.abs(y - ref.y.T)) <= 1e-9
    exact = np.column_stack([np.sin(ts), np.cos(ts), np.exp(-0.5 * ts)])
    assert np.max(np.abs(y - exact)) <= 1e-8


def test_stacked_lanes_match_solve_ivp():
    """R lanes in one flat state vector, lane k forced at its own eta[k]:
    the accepted steps and a read at sorted t_eval are solve_ivp's DOP853
    on the flat system, bit for bit, at R = 2, 7, 64 and 500."""
    rng = np.random.default_rng(8)
    fld = FieldSpec()
    for n_lanes in (2, 7, 64, 500):
        etas = rng.uniform(-1.0, 1.0, n_lanes)
        y0 = rng.normal(0.0, 15.0, (n_lanes, 3))
        ts = np.sort(rng.uniform(0.0, 2.0, 40))
        lanes = partial(fld._terms, eta=etas)

        def flat(y):
            return np.stack(lanes(*y.reshape(-1, 3).T), axis=-1).ravel()

        t, y = _dop853.solve(lanes, y0, 2.0, 1e-10, "test", t_eval=ts)
        ref = _ivp(flat, y0.ravel(), 2.0, 1e-10, t_eval=ts)
        assert y.shape == (40, 3 * n_lanes)
        np.testing.assert_array_equal(y, ref.y.T)
        t, y = _dop853.solve(lanes, y0, 2.0, 1e-10, "test")
        ref = _ivp(flat, y0.ravel(), 2.0, 1e-10)
        np.testing.assert_array_equal(t, ref.t)
        np.testing.assert_array_equal(y, ref.y.T)


_FORCED = FieldSpec(eta=0.3)
_START = np.array([1.0, 1.0, -37.0])


def test_accepted_steps_are_solve_ivps_bits():
    """The one-state loop's 173 nodes to t = 5, the start and the accepted
    steps, are solve_ivp's DOP853 nodes bit for bit: times and states."""
    t, y = _dop853.solve(_FORCED._terms, _START, 5.0, 1e-10, "test")
    ref = _ivp(_FORCED.velocity, _START, 5.0, 1e-10)
    assert len(t) == 173
    np.testing.assert_array_equal(t, ref.t)
    np.testing.assert_array_equal(y, ref.y.T)


def test_t_eval_read_is_solve_ivps_bits():
    ts = np.linspace(0.0, 5.0, 501)
    t, y = _dop853.solve(_FORCED._terms, _START, 5.0, 1e-10, "test",
                         t_eval=ts)
    ref = _ivp(_FORCED.velocity, _START, 5.0, 1e-10, t_eval=ts)
    np.testing.assert_array_equal(t, ts)
    np.testing.assert_array_equal(y, ref.y.T)


def test_section_crossing_is_solve_ivps_bits():
    """The crossing search's solve from the settled point at eta 0.04,
    with the section's g as a terminal downward event: the crossing's time
    and state, and every step before it, bit for bit."""
    fld = FieldSpec(eta=0.04)
    y0 = settle_on_attractor(fld)

    def ev(t, y):
        return _g(fld, y, fld.velocity(y))

    ev.terminal, ev.direction = True, -1.0
    t, y = _dop853.solve(fld._terms, y0, 100.0, 1e-10, "test",
                         event=partial(_g, fld))
    ref = _ivp(fld.velocity, y0, 100.0, 1e-10, events=[ev])
    assert ref.status == 1
    assert t[-1] == ref.t_events[0][0]
    np.testing.assert_array_equal(y[-1], ref.y_events[0][0])
    np.testing.assert_array_equal(t, ref.t)
    np.testing.assert_array_equal(y, ref.y.T)


def test_one_state_loop_is_the_stacked_loops_bits():
    """One state of shape (1, 3) runs the loop as a lane of numpy arrays,
    shape (3,) in floats: the same accepted steps and t_eval read, bit for
    bit."""
    lane = partial(FieldSpec()._terms, eta=np.array([_FORCED.eta]))
    ts = np.linspace(0.0, 5.0, 501)
    for t_eval in (None, ts):
        t1, y1 = _dop853.solve(_FORCED._terms, _START, 5.0, 1e-10, "test",
                               t_eval=t_eval)
        tn, yn = _dop853.solve(lane, _START[None, :], 5.0, 1e-10, "test",
                               t_eval=t_eval)
        np.testing.assert_array_equal(t1, tn)
        np.testing.assert_array_equal(y1, yn)


def test_picked_components_are_the_full_rows_bits():
    """pick keeps a chosen set of components per t_eval row, repeated
    times included, and leaves the step sequence as it is."""
    y0 = np.array([0.0, 1.0, 1.0])
    ts = np.array([0.0, 0.25, 0.25, 1.7, 3.1, 4.0])
    pick = np.array([[0, 2], [1, 1], [2, 0], [0, 1], [2, 2], [1, 0]])
    _, full = _dop853.solve(_rotation, y0, 4.0, 1e-10, "test", t_eval=ts)
    t, y = _dop853.solve(_rotation, y0, 4.0, 1e-10, "test", t_eval=ts,
                         pick=pick)
    np.testing.assert_array_equal(t, ts)
    np.testing.assert_array_equal(y, np.take_along_axis(full, pick, axis=1))


def test_overflowing_field_fails_as_solve_ivp_does():
    """dy/dt = 1e300 (1 + y) overflows f(y0) / scale, so the starting step
    is 0 and the step underflows at once: scipy's status -1 and message,
    raised as IntegrationError."""
    class Overflow:
        def _terms(self, y1, y2, y3):
            return tuple(1e300 * (1.0 + v) for v in (y1, y2, y3))

    y0, f = np.ones(3), _array(Overflow()._terms)
    with np.errstate(all="ignore"):
        ref = solve_ivp(lambda t, y: f(y), (0.0, 5.0), y0, method="DOP853",
                        rtol=1e-10, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(IntegrationError) as err:
            integrate(Overflow(), y0, 5.0)
    assert str(err.value) == f"integrate: {ref.message}"


def test_non_finite_state_raises_integration_error():
    """A constant field from near the largest float: the step grows tenfold
    with a zero error norm until y overflows to inf."""
    with np.errstate(all="ignore"), pytest.raises(IntegrationError) as err:
        _dop853.solve(lambda y1, y2, y3: (1.0, 1.0, 1.0), np.full(3, 1.7e308),
                      1e308, 1e-10, "test")
    assert str(err.value) == "test: non-finite state reached"


@pytest.mark.parametrize("t_eval", [[0.5, 0.2], [-0.1, 0.5], [0.5, 2.5],
                                    [[0.5]], [0.0, math.nan, 0.5],
                                    [math.nan], [0.5, math.nan]])
def test_integrate_rejects_bad_t_eval(t_eval):
    with pytest.raises(DomainError, match="t_eval"):
        integrate(FieldSpec(), [1.0, 1.0, -30.0], 2.0, t_eval=t_eval)


def test_event_with_t_eval_or_lanes_rejected():
    """An event roots the crossing of one state's solve; with t_eval the
    rows after the root were never written, and stacked lanes have none."""
    fld = FieldSpec()
    y0, g = settle_on_attractor(fld), partial(_g, fld)
    with pytest.raises(DomainError, match="event"):
        _dop853.solve(fld._terms, y0, 5.0, 1e-10, "test",
                      t_eval=np.linspace(0.0, 5.0, 11), event=g)
    with pytest.raises(DomainError, match="event"):
        _dop853.solve(partial(fld._terms, eta=np.zeros(2)),
                      np.stack([y0, y0]), 5.0, 1e-10, "test", event=g)


def _scipy_brentq(f, a, b):
    from scipy.optimize import brentq

    tol = 4 * _dop853.EPS
    return brentq(f, a, b, xtol=tol, rtol=tol)


def test_brentq_port_returns_scipys_root_on_random_brackets():
    """Steep, shifted and flat roots on fixed random brackets: the same
    float; and the same failure on a cubic's root, flat to 100 iterations."""
    rng = np.random.default_rng(11)
    for _ in range(1500):
        r = rng.uniform(-2.0, 2.0)
        a, b = r - rng.uniform(1e-3, 3.0), r + rng.uniform(1e-3, 3.0)
        k, q, sign = rng.uniform(0.1, 20.0), rng.uniform(0.0, 5.0), \
            rng.choice([-1.0, 1.0])
        for f in (lambda x: sign * (math.expm1(k * (x - r)) + q * (x - r) ** 3),
                  lambda x: sign * math.atan(k * (x - r)) - 1e-3 * q,
                  lambda x: sign * ((x - r) ** 3 + 1e-3 * q * (x - r))):
            assert _dop853._brentq(f, a, b) == _scipy_brentq(f, a, b)
    for root in (_dop853._brentq, _scipy_brentq):
        with pytest.raises(RuntimeError, match="converge"):
            root(lambda x: (x + 1.5) ** 3, -3.0, 0.3)


def test_brentq_port_returns_scipys_root_on_chain_crossings(monkeypatch):
    """Each crossing of a short forced chain roots the event on its step's
    interpolant; scipy's brentq on the same function and bracket agrees."""
    pairs = []
    port = _dop853._brentq

    def both(f, a, b):
        pairs.append((port(f, a, b), _scipy_brentq(f, a, b)))
        return pairs[-1][0]

    monkeypatch.setattr(_dop853, "_brentq", both)
    fld = FieldSpec()
    sample_chain(NoiseLaw.uniform(0.05), SectionSpec(field=fld, eps_box=25.0),
                 settle_on_attractor(fld), n=30, seed=4)
    assert len(pairs) >= 31
    assert all(mine == ref for mine, ref in pairs)
