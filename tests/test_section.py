"""Crossing detection, return map, and sampled renewal chains."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lorenzlab import (
    HorizonExceeded,
    SectionSpec,
    casimir,
    integrate,
    next_crossing,
    on_section,
    sample_chain,
)
from lorenzlab.errors import DomainError, TangencyWarning
from lorenzlab.noise import NoiseLaw
from lorenzlab.section import (
    _g,
    settle_on_attractor,
    surface_derivatives,
)


def test_crossing_lands_on_surface(section, y_start):
    assert not on_section(section, y_start)
    ev = next_crossing(section, y_start)
    assert ev.t > 0.0
    assert on_section(section, ev.y)
    # local maximum of the energy-like quantity: stationary and curving down
    cdot, cddot = surface_derivatives(section.field, ev.y)
    assert abs(cdot) < 1e-6
    assert cddot < 0.0


def test_return_map_composition(section, x_on_section):
    """Two single steps of R_0 equal one double step, up to solver error."""
    s1 = next_crossing(section, x_on_section)
    s2 = next_crossing(section, s1.y)
    assert s1.t > 0.0 and s2.t > 0.0
    direct = integrate(section.field, x_on_section,
                       s1.t + s2.t, t_eval=[s1.t + s2.t])
    assert np.max(np.abs(direct.y[-1] - s2.y)) < 1e-6


def test_next_crossing_replays_the_chain(section, chain_short):
    """From each chain state on M, next_crossing at that sojourn's amplitude
    is the chain's own transition, bit for bit."""
    x_next = _x_next(chain_short)
    for k in range(len(chain_short)):
        ev = next_crossing(section, chain_short.x[k], chain_short.eta[k])
        assert ev.t == chain_short.tau[k]
        np.testing.assert_array_equal(ev.y, x_next[k])


def test_return_times_plausible(section, chain_med):
    tau = chain_med.tau
    assert np.all(tau > 0.0)
    assert 0.5 < tau.min() < 0.75
    assert 0.6 < tau.mean() < 0.9


def test_chain_reproducible(section, x_on_section):
    law = NoiseLaw.uniform(0.05)
    a = sample_chain(law, section, x_on_section, n=20, seed=11)
    b = sample_chain(law, section, x_on_section, n=20, seed=11)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.tau, b.tau)
    np.testing.assert_array_equal(a.eta, b.eta)
    c = sample_chain(law, section, x_on_section, n=20, seed=12)
    assert not np.array_equal(a.eta, c.eta)


def test_amplitudes_are_one_uniform_draw(chain_med, chain_short, section,
                                         y_start):
    """Common random numbers: a chain with seed s and n transitions drives
    its pieces with law.ppf(default_rng(s).random(n + 1)), element 0 on the
    approach of an off-section start and the next n on the sojourns."""
    gauss = sample_chain(NoiseLaw.trunc_gauss(0.025, 0.05), section, y_start,
                         n=3, seed=4)
    assert chain_short.approach_eta is None
    assert chain_med.approach_eta is not None
    for tr in (chain_short, chain_med, gauss):
        n = len(tr)
        omega = tr.law.ppf(np.random.default_rng(tr.seed).random(n + 1))
        if tr.approach_eta is None:
            np.testing.assert_array_equal(tr.eta, omega[:n])
        else:
            assert tr.approach_eta == omega[0]
            np.testing.assert_array_equal(tr.eta, omega[1:])


def test_chain_layout(chain_med, section):
    tr = chain_med
    n = len(tr.tau)
    assert tr.x.shape == (n, 3)
    assert tr.eta.shape == (n,)
    assert tr.sigma.shape == (n,)
    # sigma accumulates: sigma[k] = sigma0 + sum of earlier sojourns
    np.testing.assert_allclose(np.diff(tr.sigma), tr.tau[:-1], atol=1e-12)
    assert all(on_section(section, xk) for xk in tr.x[:50])
    np.testing.assert_allclose(tr.casimir[:50],
                               [casimir(xk) for xk in tr.x[:50]])
    # every crossing, and the state after the last, meets the residual bound
    g = [surface_derivatives(section.field, y)[0]
         for y in np.vstack([tr.x, tr.x_end])]
    assert max(map(abs, g)) <= section.root_tol


def _x_next(trace) -> np.ndarray:
    """x_{n+1} for every transition n: the next state, x_end after the last."""
    return np.vstack([trace.x[1:], trace.x_end])


def test_chain_states_match_segments(chain_short):
    tr = chain_short
    assert tr.segments is not None
    assert len(tr.segments) == len(tr.tau)
    for k in (0, 5, len(tr.tau) - 1):
        seg = tr.segments[k]
        np.testing.assert_allclose(seg.y[0], tr.x[k], atol=1e-9)
        np.testing.assert_allclose(seg.y[-1], _x_next(tr)[k], atol=1e-9)
        assert seg.t[0] == 0.0
        assert seg.t[-1] == pytest.approx(tr.tau[k], abs=1e-9)
        assert seg.eta == tr.eta[k]
        # views into the flat flow arrays, not copies
        assert np.shares_memory(seg.y, tr.flow_y)
        assert not seg.y.flags.writeable


def test_storage_does_not_touch_the_chain(section, x_on_section,
                                         chain_short):
    """Kept segments are read off the solver's steps, never steer them."""
    bare = sample_chain(chain_short.law, section, x_on_section,
                        n=len(chain_short), seed=chain_short.seed)
    assert bare.flow_t is None
    for name in ("x", "tau", "sigma", "casimir", "tangent", "x_end"):
        np.testing.assert_array_equal(getattr(bare, name),
                                      getattr(chain_short, name))


_RESAMPLE_TOL = 1e-5  # the benchmark's re-integration tolerance


def test_stored_flow_matches_reintegration(section, chain_med):
    """Stored states against a fresh solve of the sojourn on its grid."""
    segments = chain_med.segments
    for k in (0, 1, 300, 777, len(chain_med) - 1):
        seg = segments[k]
        ref = integrate(section.field.with_eta(seg.eta), chain_med.x[k],
                        seg.t[-1], t_eval=seg.t)
        assert np.max(np.abs(seg.y - ref.y)) < _RESAMPLE_TOL


def continuity_defect(trace) -> float:
    """Max mismatch between stored x_n, x_{n+1} and sojourn endpoints."""
    off = trace.sojourn_offsets
    return float(max(np.max(np.abs(trace.flow_y[off[:-1]] - trace.x)),
                     np.max(np.abs(trace.flow_y[off[1:] - 1]
                                   - _x_next(trace)))))


def test_continuity_defect_small(chain_short):
    assert continuity_defect(chain_short) < 1e-7


def test_continuity_defect_flags_moved_junction(chain_short):
    off = chain_short.sojourn_offsets
    for row in (off[5], off[6] - 1):  # start and end of sojourn 5
        moved = dataclasses.replace(chain_short,
                                    flow_y=chain_short.flow_y.copy())
        moved.flow_y[row, 1] += 1e-3
        assert continuity_defect(moved) == pytest.approx(1e-3, rel=1e-3)


def test_off_section_start_records_approach(section, y_start):
    law = NoiseLaw.uniform(0.05)
    tr = sample_chain(law, section, y_start, n=5, seed=2,
                      keep_segments=True)
    # the chain proper starts once the surface is reached
    assert tr.sigma[0] > 0.0
    assert tr.approach is not None
    np.testing.assert_allclose(tr.approach.y[-1], tr.x[0], atol=1e-9)
    assert tr.approach.t[-1] == pytest.approx(tr.sigma[0], abs=1e-9)


def test_bad_start_rejected(field, x_on_section):
    """Start outside the box never reaches the surface: plain rejection."""
    tight = SectionSpec(field, eps_box=5.0)
    with pytest.raises(HorizonExceeded):
        sample_chain(NoiseLaw.delta_zero(), tight, x_on_section,
                     n=50, seed=0)


def test_failed_search_attaches_partial_trace(field, x_on_section):
    short = SectionSpec(field, eps_box=25.0, t_max=0.7)
    with pytest.raises(HorizonExceeded) as err:
        sample_chain(NoiseLaw.delta_zero(), short, x_on_section,
                     n=30, seed=0)
    partial = err.value.partial
    assert not partial.valid
    assert 0 < len(partial.tau) < 30
    assert np.all(partial.tau < 0.7)


def test_failed_approach_attaches_partial_trace(field, y_start):
    """A start off the section whose approach search fails."""
    short = SectionSpec(field, eps_box=25.0, t_max=0.05)
    with pytest.raises(HorizonExceeded) as err:
        sample_chain(NoiseLaw.delta_zero(), short, y_start, n=5, seed=0,
                     keep_segments=True)
    partial = err.value.partial
    assert not partial.valid
    assert len(partial) == 0
    np.testing.assert_array_equal(partial.x_end, y_start)
    assert partial.segments == []
    assert partial.approach is None


def test_grazing_crossing_is_flagged(field, y_start):
    """A tangency tolerance above every |dg/dt| makes each crossing tangent."""
    grazing = SectionSpec(field, eps_box=25.0, tangency_tol=1e12)
    with pytest.warns(TangencyWarning):
        ev = next_crossing(grazing, y_start)
    assert ev.tangent
    with pytest.warns(TangencyWarning):
        trace = sample_chain(NoiseLaw.uniform(0.05), grazing, y_start,
                             n=10, seed=0)
    assert len(trace) == 10
    assert trace.tangent.all()


def test_write_jsonl_round_trip(tmp_path, chain_short):
    path = tmp_path / "trace.jsonl"
    chain_short.write_jsonl(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(chain_short.tau)
    row = json.loads(lines[2])
    assert row["n"] == 2
    assert row["tau"] == pytest.approx(chain_short.tau[2])
    assert row["t_abs"] == pytest.approx(chain_short.sigma[2])
    np.testing.assert_allclose(row["y"], chain_short.x[2])


def test_rejects_low_sample_count(section, x_on_section):
    with pytest.raises(DomainError):
        sample_chain(NoiseLaw.delta_zero(), section, x_on_section,
                     n=0, seed=0)


def calibrate_eps_box(fld, n_events: int = 2000, coverage: float = 0.99,
                      tol: float = 1e-9) -> float:
    """Smallest box half-width capturing >= coverage of attractor crossings.

    Runs the unforced flow, collects surface crossings without a box
    restriction, and returns the coverage quantile of the per-event
    requirement max(|y1|, |y2|, y3 + gamma + zeta).
    """
    if not (0.0 < coverage <= 1.0):
        raise DomainError("coverage must be in (0, 1]")
    base = fld.with_eta(0.0)
    y = settle_on_attractor(base)

    def ev(t, y):
        return _g(base, y, base.velocity(y))

    ev.direction = -1.0  # every downward crossing, none terminal
    reqs: list[float] = []
    while len(reqs) < n_events:
        sol = solve_ivp(lambda t, y: base.velocity(y), (0.0, 100.0), y,
                        method="DOP853", rtol=tol, atol=tol, events=[ev])
        assert sol.success
        for y_ev in sol.y_events[0]:
            reqs.append(max(abs(y_ev[0]), abs(y_ev[1]), y_ev[2] + base.shift))
        y = sol.y[:, -1]
    arr = np.sort(np.asarray(reqs[:n_events]))
    idx = min(len(arr) - 1, int(math.ceil(coverage * len(arr))) - 1)
    return float(arr[idx])


@pytest.mark.slow
def test_calibrated_box_near_default(field):
    """The default eps_box = 25 against the calibration oracle above."""
    est = calibrate_eps_box(field, n_events=400)
    assert 15.0 < est < 30.0
