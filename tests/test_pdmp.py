"""Randomly forced flow: trajectories, ergodic estimators, drift, conjugation."""

import math

import numpy as np
import pytest

from lorenzlab import (
    NoiseLaw,
    SectionSpec,
    drift_check,
    integrate,
    lifted_measure_probe,
    ratio_formula_estimate,
    sample_chain,
    suspension_conjugation_check,
)
from lorenzlab import pdmp
from lorenzlab.errors import DomainError, HorizonExceeded, TangencyWarning
from lorenzlab.pdmp import PdmpTrajectory


def _trajectory(law, section, y_start, n, seed, t_final):
    """Resampled flow of an n-transition chain, viewed up to t_final.

    Each n is the number of transitions after which the chain from
    y_start at this seed first crosses the section at or past t_final.
    """
    trace = sample_chain(law, section, y_start, n=n, seed=seed,
                         keep_segments=True)
    return PdmpTrajectory(trace=trace, t_final=t_final)


@pytest.fixture(scope="module")
def traj_det(section, y_start):
    """Deterministic run over ten time units."""
    return _trajectory(NoiseLaw.delta_zero(), section, y_start, n=13,
                       seed=0, t_final=10.0)


@pytest.fixture(scope="module")
def traj_noisy(section, y_start):
    return _trajectory(NoiseLaw.uniform(0.05), section, y_start, n=52,
                       seed=3, t_final=40.0)


def test_delta_zero_matches_deterministic_flow(section, y_start, traj_det):
    """Grid states against one dense deterministic solve.

    Both sides run at tol 1e-10, but the flow stretches local error by
    about e^(0.9 t), so parity at T = 10 is a few 1e-6, not 1e-10.
    """
    ts, ys = traj_det.grid()
    # segment junctions can repeat a time up to cumsum rounding
    keep = np.concatenate([[True], np.diff(ts) > 0])
    ref = integrate(section.field, y_start, float(ts[keep][-1]),
                    t_eval=ts[keep])
    assert np.max(np.abs(ys[keep] - ref.y)) < 1e-4


def crossing_times(trace) -> np.ndarray:
    """Absolute times of all recorded crossings, final one included."""
    return np.append(trace.sigma, trace.sigma[-1] + trace.tau[-1])


def n_crossings(trace, t: float) -> int:
    """Renewal index at time t: the largest n with crossing time <= t.

    Returns -1 during an approach phase that has not reached the section
    yet. With this convention the sandwich sigma[n] <= t < sigma[n + 1]
    holds at every probe time.
    """
    return int(np.searchsorted(crossing_times(trace), t, side="right")) - 1


def age(trace, t: float) -> float:
    """Elapsed time since the last crossing (since start before it)."""
    n = n_crossings(trace, t)
    return float(t) if n < 0 else float(t - crossing_times(trace)[n])


def active_eta(trace, t: float) -> float:
    """Amplitude driving the flow at time t."""
    n = n_crossings(trace, t)
    if n < 0 and trace.approach_eta is not None:
        return float(trace.approach_eta)
    return float(trace.eta[np.clip(n, 0, len(trace) - 1)])


def state(traj, t: float) -> np.ndarray:
    """State at time t, linearly interpolated on the trajectory's grid."""
    ts, ys = traj.grid()
    return np.array([np.interp(t, ts, ys[:, i]) for i in range(3)])


def test_crossing_bookkeeping(traj_noisy):
    tr = traj_noisy.trace
    times = crossing_times(tr)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, traj_noisy.t_final, 100):
        n = n_crossings(tr, t)
        if t < tr.sigma[0]:
            assert n == -1
            assert age(tr, t) == pytest.approx(t)
        else:
            # renewal sandwich around the probe time
            assert times[n] <= t < times[n + 1]
            assert 0.0 <= age(tr, t) < tr.tau[n]
            assert active_eta(tr, t) == tr.eta[n]
    t = tr.sigma[0] + 0.1
    assert n_crossings(tr, t) == 0
    assert age(tr, t) == pytest.approx(0.1, abs=1e-9)


def test_final_count_matches_recorded_crossings(traj_noisy):
    tr = traj_noisy.trace
    n_t = n_crossings(tr, traj_noisy.t_final)
    assert n_t == len(tr.tau) - 1
    assert crossing_times(tr)[n_t] <= traj_noisy.t_final


def test_state_interpolation_continuous(traj_noisy):
    for t in (traj_noisy.trace.sigma[0], crossing_times(traj_noisy.trace)[5]):
        before = state(traj_noisy, t - 1e-9)
        after = state(traj_noisy, t + 1e-9)
        assert np.max(np.abs(after - before)) < 1e-5


def test_reproducible_per_seed(section, y_start):
    law = NoiseLaw.uniform(0.05)
    a = _trajectory(law, section, y_start, n=6, seed=21, t_final=5.0)
    b = _trajectory(law, section, y_start, n=6, seed=21, t_final=5.0)
    ta, ya = a.grid()
    tb, yb = b.grid()
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(ta, tb)
    c = _trajectory(law, section, y_start, n=6, seed=22, t_final=5.0)
    assert not np.array_equal(a.trace.eta, c.trace.eta)


def test_time_average_normalization(traj_noisy):
    est = traj_noisy.time_average(lambda y: np.ones(len(y)))
    assert est.value == 1.0
    assert est.se == 0.0


def test_observable_of_wrong_shape_rejected(traj_noisy, chain_med):
    """An observable maps (k, 3) states to (k,) values, not (k, 1)."""
    column = lambda y: np.einsum("ij,ij->i", y, y)[:, None]
    with pytest.raises(DomainError, match="observable"):
        traj_noisy.time_average(column)
    with pytest.raises(DomainError, match="observable"):
        ratio_formula_estimate(column, chain_med, burn_in=100)


def test_ratio_normalization(chain_med):
    one = lambda y: np.ones(len(np.atleast_2d(y)))
    est = ratio_formula_estimate(one, chain_med, burn_in=100)
    assert est.value == 1.0
    assert est.se == 0.0
    assert lifted_measure_probe(chain_med, one, burn_in=100) == 1.0
    assert est.n_used == len(chain_med.tau) - 100


def test_ratio_and_lifted_agree(chain_med):
    """Trapezoid and Simpson on one stored grid agree to 1e-6 relative."""
    cas = lambda y: np.einsum("ij,ij->i", y, y)
    est = ratio_formula_estimate(cas, chain_med, burn_in=100)
    probe = lifted_measure_probe(chain_med, cas, burn_in=100)
    assert abs(est.value - probe) <= 1e-6 * abs(est.value)


def test_simpson_weights_integrate_cubics():
    """Exact on a cubic for even and odd interval counts, per piece."""
    counts = (64, 65, 2, 3, 5)
    ends = np.array([0.7, 1.3, 0.4, 0.9, 1.1])
    t = np.concatenate([np.linspace(0.0, e, n + 1)
                        for n, e in zip(counts, ends)])
    off = np.cumsum([0] + [n + 1 for n in counts])
    w = pdmp._simpson_weights(t, off)
    got = np.add.reduceat(w * (2.0 * t ** 3 - t ** 2 + 0.5 * t + 1.0),
                          off[:-1])
    exact = ends ** 4 / 2.0 - ends ** 3 / 3.0 + ends ** 2 / 4.0 + ends
    np.testing.assert_allclose(got, exact, rtol=1e-13)
    single = pdmp._simpson_weights(np.array([0.0, 0.5]), np.array([0, 2]))
    np.testing.assert_array_equal(single, [0.25, 0.25])


def _drop_last_interval(f, trace, start):
    """_sojourn_integrals with a fault: each sojourn loses its last interval."""
    off = trace.sojourn_offsets[start:]
    terms = pdmp._trapezoid_terms(f, trace.flow_t[off[0]:],
                                  trace.flow_y[off[0]:])
    off = off - off[0]
    terms[off[1:-1] - 1] = 0.0
    terms[off[1:] - 2] = 0.0
    return np.add.reduceat(terms, off[:-1])


def test_ratio_lifted_gap_detects_quadrature_fault(chain_med, monkeypatch):
    """The trapezoid losing one interval per sojourn breaks the 1e-6 bound."""
    cas = lambda y: np.einsum("ij,ij->i", y, y)
    probe = lifted_measure_probe(chain_med, cas, burn_in=100)
    monkeypatch.setattr(pdmp, "_sojourn_integrals", _drop_last_interval)
    faulty = ratio_formula_estimate(cas, chain_med, burn_in=100)
    assert lifted_measure_probe(chain_med, cas, burn_in=100) == probe
    assert abs(faulty.value - probe) > 1e-6 * abs(faulty.value)


def test_estimator_duality(chain_med):
    """Time average and the renewal ratio estimate the same functional."""
    cas = lambda y: np.einsum("ij,ij->i", y, y)
    ratio = ratio_formula_estimate(cas, chain_med, burn_in=100)
    direct = PdmpTrajectory(
        trace=chain_med, t_final=float(chain_med.sigma[-1] * 0.75)
    ).time_average(cas)
    gap = abs(ratio.value - direct.value)
    assert gap < 3.0 * math.hypot(ratio.se, direct.se)


def test_ratio_needs_enough_transitions(chain_short):
    cas = lambda y: np.einsum("ij,ij->i", y, y)
    with pytest.raises(DomainError):
        ratio_formula_estimate(cas, chain_short, burn_in=10)


def test_drift_inequality_holds(chain_med):
    rep = drift_check(chain_med.law, chain_med)
    assert rep.violations_strong == 0
    assert rep.violations_weak == 0
    assert rep.m == 1.0
    assert 0.0 < rep.a_eps < 1.0
    assert rep.a_eps == pytest.approx(
        math.exp(-rep.m * (rep.inf_tau - chain_med.section.tol)), rel=1e-12)
    assert rep.k_bar == pytest.approx(
        (1.0 - rep.a_eps) + rep.k_eps * (1.0 + rep.a_eps), rel=1e-12)
    assert "empirical" in rep.caveat


def test_drift_floor_is_classical_forcing_norm(section, x_on_section):
    """Unforced drift constant equals |H0|^2 = (304/3)^2."""
    law = NoiseLaw.delta_zero()
    tr = sample_chain(law, section, x_on_section, n=40, seed=1)
    rep = drift_check(law, tr)
    assert rep.k_eps == pytest.approx((304.0 / 3.0) ** 2, rel=1e-12)
    assert rep.violations_strong == 0


def test_conjugation_check(section, x_on_section):
    rep = suspension_conjugation_check(NoiseLaw.uniform(0.05), section,
                                       x_on_section, seed=12, probes=100)
    assert rep.passed
    assert rep.max_discrepancy <= 1e-7
    assert rep.n_probes == 100
    assert rep.n_skipped == 0


def test_conjugation_holds_at_seed_38(section, y_start):
    """The pdmp workload's check at seed 38: the chain's first crossing,
    probe seed 39, 100 probes. With a refined tolerance of 1e-12 its
    largest discrepancy was 4.38e-7, over the 1e-7 bound."""
    law = NoiseLaw.uniform(0.05)
    x = sample_chain(law, section, y_start, n=1, seed=38).x[0]
    rep = suspension_conjugation_check(law, section, x, seed=39, probes=100)
    assert rep.max_discrepancy <= 1e-7
    assert rep.passed


def test_conjugation_check_validation(section, x_on_section, y_start):
    with pytest.raises(DomainError):
        suspension_conjugation_check(NoiseLaw.uniform(0.05), section,
                                     x_on_section, seed=0, probes=50)
    with pytest.raises(DomainError):
        suspension_conjugation_check(NoiseLaw.uniform(0.05), section,
                                     y_start, seed=0, probes=100)


def test_conjugation_rejects_min_crossings_beyond_lookahead(section,
                                                            x_on_section):
    for bad in (-1, 70):
        with pytest.raises(DomainError):
            suspension_conjugation_check(NoiseLaw.uniform(0.05), section,
                                         x_on_section, seed=1,
                                         min_crossings=bad)


def test_conjugation_skips_tangent_crossings(field, x_on_section):
    """Every crossing tangent: only probes inside one sojourn are kept."""
    grazing = SectionSpec(field, eps_box=25.0, tangency_tol=1e12)
    with pytest.warns(TangencyWarning):
        rep = suspension_conjugation_check(NoiseLaw.uniform(0.05), grazing,
                                           x_on_section, seed=1,
                                           min_crossings=0)
    assert rep.n_skipped > 0
    assert rep.n_multi_crossing == 0


def test_conjugation_stops_when_no_probe_qualifies(field, x_on_section):
    """No probe can span a crossing that is not tangent: raise, not hang."""
    grazing = SectionSpec(field, eps_box=25.0, tangency_tol=1e12)
    with pytest.warns(TangencyWarning), \
            pytest.raises(DomainError, match="kept 0 of 100 probes after"):
        suspension_conjugation_check(NoiseLaw.uniform(0.05), grazing,
                                     x_on_section, seed=1, min_crossings=1)


def test_grid_is_a_view_of_the_trace(traj_noisy):
    ts, ys = traj_noisy.grid()
    assert np.shares_memory(ys, traj_noisy.trace.flow_y)
    assert len(ts) == len(traj_noisy.trace.flow_t)


def test_trajectory_validation(chain_short, field, y_start):
    with pytest.raises(DomainError):
        PdmpTrajectory(trace=chain_short, t_final=-1.0)
    horizon = float(chain_short.sigma[-1] + chain_short.tau[-1])
    with pytest.raises(DomainError):
        PdmpTrajectory(trace=chain_short, t_final=horizon + 5.0)
    # the partial trace of a failed approach holds no transition
    short = SectionSpec(field, eps_box=25.0, t_max=0.05)
    with pytest.raises(HorizonExceeded) as err:
        sample_chain(NoiseLaw.delta_zero(), short, y_start, n=5, seed=0,
                     keep_segments=True)
    with pytest.raises(DomainError, match="at least one transition"):
        PdmpTrajectory(trace=err.value.partial, t_final=0.01)
