"""Cusp-map construction, branch fits, perturbation audits."""

import numpy as np
import pytest
from scipy.optimize import brentq

from lorenzlab.cuspmap import (
    EmpiricalCuspMap,
    IntervalMap,
    SyntheticCuspMap,
    _LogBranch,
    audit_assumptions,
    cylinder_anatomy,
    fit_branch_exponents,
    make_perturbed_family,
)
from lorenzlab.errors import (
    ConstructionError,
    DomainError,
    FitError,
    NumericalError,
    ShapeError,
    SingularPoint,
)
from lorenzlab.manifest import write_csv


def sup_distance(m1, m2, n: int = 4096) -> float:
    """Sup of |m1 - m2| over a uniform grid on [0, 1]."""
    x = np.linspace(0.0, 1.0, n)
    return float(np.max(np.abs(m1(x) - m2(x))))


def brentq_inverse(m, a: float, b: float, ys) -> np.ndarray:
    """One scalar Brent solve per value on the branch [a, b]: the oracle.

    Values are clamped to the branch range and the branch end values map to
    the ends exactly, as in the package's inverses.
    """
    fa, fb = m(a), m(b)
    lo, hi = min(fa, fb), max(fa, fb)
    out = []
    for y in np.clip(ys, lo, hi):
        if y in (fa, fb):
            out.append(a if y == fa else b)
        else:
            out.append(brentq(lambda u: m(u) - y, a, b, xtol=1e-14, maxiter=200))
    return np.asarray(out)


@pytest.fixture(scope="module")
def synth():
    return SyntheticCuspMap()


def _orbit_pairs(m, n, x=0.2345):
    vals = [x]
    for _ in range(n):
        x = m(x)
        if x <= 1e-12 or x >= 1.0 - 1e-12:
            x = 0.3
        vals.append(x)
    vals = np.asarray(vals)
    return np.column_stack([vals[:-1], vals[1:]])


def _matched_sup(emp, truth, n=4001):
    """Sup distance with the builder's normalization applied to truth.

    The builder rescales its input by robust quantiles, so the rebuilt
    map lives in slightly different coordinates than the generator. The
    singular cusp cap amplifies even a 1e-3 coordinate shift into an O(1)
    pointwise gap, so the honest comparison maps the generator through
    the same affine change of variables.
    """
    lo, hi = emp.norm
    g = np.linspace(0.0, 1.0, n)
    ref = (truth(np.clip(lo + g * (hi - lo), 0.0, 1.0)) - lo) / (hi - lo)
    return float(np.max(np.abs(emp(g) - ref)))


def test_synthetic_shape(synth):
    m = synth
    assert m(0.0) == 0.0
    assert m(1.0) == pytest.approx(0.0, abs=1e-3)
    # cusp caps approach 1 at the construction's own power-law rate
    for sign, amp, b in ((-1, m.amp_left, m.b_left),
                         (+1, m.amp_right, m.b_right)):
        v = m(m.x0 + sign * 1e-8)
        assert v > 1.0 - 5e-3
        assert 1.0 - v == pytest.approx(amp * 1e-8**b, rel=1e-3)
    xs = np.linspace(0.01, m.x0 - 1e-6, 50)
    assert np.all(np.diff(m(xs)) > 0)
    xs = np.linspace(m.x0 + 1e-6, 0.99, 50)
    assert np.all(np.diff(m(xs)) < 0)


def test_synthetic_validation():
    with pytest.raises(ConstructionError):
        SyntheticCuspMap(alpha_left=0.9)
    with pytest.raises(ConstructionError):
        SyntheticCuspMap(alpha_right=1.2)
    with pytest.raises(ConstructionError):
        SyntheticCuspMap(b_left=1.3)
    with pytest.raises(ConstructionError):
        SyntheticCuspMap(x0=1.2)
    for kw in ({"amp_left": 0.0}, {"amp_right": -0.5}):
        with pytest.raises(ConstructionError, match="amplitudes must be positive"):
            SyntheticCuspMap(**kw)
    # a large cusp amplitude bends each branch back on itself
    with pytest.raises(ConstructionError, match="left branch is not increasing"):
        SyntheticCuspMap(amp_left=3.0)
    with pytest.raises(ConstructionError, match="right branch is not decreasing"):
        SyntheticCuspMap(amp_right=3.0)


def test_map_arguments_must_be_in_domain(synth):
    with pytest.raises(DomainError, match="1-d arrays"):
        synth(np.full((2, 2), 0.5))
    for bad in (-1e-9, 1.0 + 1e-9, np.nan, [0.2, 1.5]):
        with pytest.raises(DomainError, match=r"lie in \[0, 1\]"):
            synth(bad)
        with pytest.raises(DomainError, match=r"lie in \[0, 1\]"):
            synth.derivative(bad)


def test_derivative_matches_finite_differences(synth):
    m = synth
    xs = np.concatenate([np.linspace(0.02, m.x0 - 0.02, 25),
                         np.linspace(m.x0 + 0.02, 0.98, 25)])
    h = 1e-7
    fd = (m(xs + h) - m(xs - h)) / (2.0 * h)
    closed = m.derivative(xs)
    rel = np.abs(closed - fd) / np.maximum(1.0, np.abs(closed))
    assert np.max(rel) < 1e-6


def test_derivative_singular_at_cusp(synth):
    with pytest.raises(SingularPoint):
        synth.derivative(synth.x0)
    # |DT| grows like d^(b-1) approaching the cusp
    d = np.geomspace(1e-6, 1e-4, 12)
    for sign, b in ((-1, synth.b_left), (+1, synth.b_right)):
        slope = np.polyfit(np.log(d),
                           np.log(np.abs(synth.derivative(
                               synth.x0 + sign * d))), 1)[0]
        assert abs(slope - (b - 1.0)) < 0.02


def test_fit_recovers_ground_truth():
    m = SyntheticCuspMap(alpha_left=1.8, b_left=0.6, b_right=0.7)
    fit = fit_branch_exponents(m)
    for est, truth in ((fit.alpha_left, 1.8), (fit.b_left, 0.6),
                       (fit.b_right, 0.7), (fit.alpha_right, 0.53)):
        assert abs(est.value - truth) < 0.05
        assert est.ci_low <= est.value <= est.ci_high


def test_fit_windows_consistent(synth):
    """Shrinking fit windows move estimates toward the construction."""
    errs = []
    for delta in (4e-3, 2e-3, 1e-3):
        fit = fit_branch_exponents(synth, delta=delta)
        errs.append(abs(fit.alpha_left.value - synth.alpha_left)
                    + abs(fit.b_left.value - synth.b_left))
    assert errs[0] > errs[1] > errs[2]


def test_fit_rejects_a_flat_cusp_window():
    """1 - T vanishes on the whole cusp window: no log-log points remain."""

    class FlatTop(SyntheticCuspMap):
        def _values(self, x):
            out = super()._values(x)
            out[np.abs(x - self.x0) < 0.05] = 1.0
            return out

    with pytest.raises(FitError, match="fewer than 20"):
        fit_branch_exponents(FlatTop())


def test_fit_window_must_fit_inside_both_branches(synth):
    # [delta, 10 delta] must stay inside (0, x0) and (x0, 1); x0 = 0.39
    for delta in (0.0, -1e-3, 0.039, 0.1):
        with pytest.raises(DomainError, match="fit inside both branches"):
            fit_branch_exponents(synth, delta=delta)
    fit_branch_exponents(synth, delta=0.038)


def test_inverse_branches(synth):
    for y in (0.2, 0.5, 0.9):
        xl = synth.inverse_left(y)
        xr = synth.inverse_right(y)
        assert xl < synth.x0 < xr
        assert synth(xl) == pytest.approx(y, abs=1e-9)
        assert synth(xr) == pytest.approx(y, abs=1e-9)


def test_inverse_rejects_values_outside_branch_range(synth):
    for inverse in (synth.inverse_left, synth.inverse_right):
        for y in (1.5, -0.1):
            with pytest.raises(DomainError):
                inverse(y)


def test_inverse_endpoints_exact(synth):
    """Branch-end values map to the branch ends without a root search."""
    assert synth.inverse_left(0.0) == 0.0
    assert synth.inverse_right(0.0) == 1.0
    assert synth.inverse_left(1.0) == synth.x0


def _inverse_grid(m):
    rng = np.random.default_rng(11)
    return np.concatenate([np.linspace(0.0, 1.0, 201), rng.uniform(0.0, 1.0, 200),
                           1.0 - np.geomspace(1e-15, 1e-2, 15),
                           np.geomspace(1e-300, 1e-2, 15)])


@pytest.mark.parametrize("eps", [None, 0.005, 0.05, 0.1])
def test_inverses_match_brentq_oracle(synth, eps):
    m = synth if eps is None else make_perturbed_family(synth, eps)
    ys = _inverse_grid(m)
    for inverse, a, b in ((m.inverse_left, 0.0, m.x0),
                          (m.inverse_right, m.x0, 1.0)):
        got = inverse(ys)
        assert np.max(np.abs(got - brentq_inverse(m, a, b, ys))) <= 1e-13


def test_inverse_scalar_matches_vector_bitwise(synth):
    for m in (synth, make_perturbed_family(synth, 0.02)):
        ys = _inverse_grid(m)
        for inverse in (m.inverse_left, m.inverse_right):
            vec = inverse(ys)
            assert all(inverse(float(y)) == vec[i] for i, y in enumerate(ys))


class _NanInterior(IntervalMap):
    """Tent map whose values are NaN everywhere but at 0, x0 and 1."""

    x0 = 0.5

    def _values(self, x):
        out = 1.0 - np.abs(2.0 * x - 1.0)
        out[(x > 0.0) & (x < 1.0) & (x != self.x0)] = np.nan
        return out


def test_inverse_raises_when_bracket_cannot_close():
    m = _NanInterior()
    assert m.inverse_left(1.0) == 0.5
    with pytest.raises(NumericalError):
        m.inverse_left(0.3)
    with pytest.raises(NumericalError):
        m.inverse_right(np.array([0.0, 0.7]))


def test_round_trip_uniform_samples(synth):
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, 20_000)
    emp = EmpiricalCuspMap(np.column_stack([xs, synth(xs)]))
    assert _matched_sup(emp, synth) < 0.01


def test_round_trip_orbit(synth):
    """Orbit data censors the top quantile, so the cusp cap is fuzzier."""
    emp = EmpiricalCuspMap(_orbit_pairs(synth, 20_000))
    lo, hi = emp.norm
    assert abs(emp.x0 - (synth.x0 - lo) / (hi - lo)) < 1e-3
    assert _matched_sup(emp, synth) < 0.05


def test_build_requires_1000_pairs(synth):
    with pytest.raises(DomainError):
        EmpiricalCuspMap(_orbit_pairs(synth, 800))


def test_build_rejects_three_columns(synth):
    pairs = _orbit_pairs(synth, 2000)
    with pytest.raises(DomainError):
        EmpiricalCuspMap(np.column_stack([pairs, pairs[:, 0]]))


def test_build_rejects_degenerate_maxima():
    with pytest.raises(DomainError, match="degenerate Casimir maxima"):
        EmpiricalCuspMap(np.full((1500, 2), 7.0))


def test_log_branch_needs_four_bins():
    u = np.log(np.geomspace(1e-3, 0.3, 3))
    with pytest.raises(ShapeError, match="too few usable bins"):
        _LogBranch(u, np.linspace(-2.0, 0.0, 3))


def test_bimodal_scatter_rejected():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 4000)
    y = np.where(x < 0.5,
                 0.9 - 3.0 * np.abs(x - 0.25),
                 0.9 - 3.0 * np.abs(x - 0.75))
    y = np.clip(y + rng.normal(0.0, 0.01, x.size), 0.0, 1.0)
    with pytest.raises(ShapeError):
        EmpiricalCuspMap(np.column_stack([x, y]))


def test_empirical_export(tmp_path, synth):
    emp = EmpiricalCuspMap(_orbit_pairs(synth, 3000))
    assert 0.0 < emp.x0 < 1.0
    csv = tmp_path / "scatter.csv"
    write_csv(csv, "m_n,m_next", emp.pairs)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "m_n,m_next"
    assert len(lines) == 1 + 3000


def test_perturbed_family_limits(synth):
    assert sup_distance(make_perturbed_family(synth, 0.0), synth) == 0.0
    dists = [sup_distance(make_perturbed_family(synth, e), synth)
             for e in (0.05, 0.02, 0.01, 0.005)]
    assert dists[0] > dists[1] > dists[2] > dists[3]
    with pytest.raises(ConstructionError):
        make_perturbed_family(synth, 0.8)
    with pytest.raises(DomainError):
        make_perturbed_family(synth, -0.01)
    emp = EmpiricalCuspMap(_orbit_pairs(synth, 3000))
    with pytest.raises(DomainError, match="defined for synthetic maps"):
        make_perturbed_family(emp, 0.01)


def test_audit_identity(synth):
    rep = audit_assumptions(synth, synth, eps=0.0, n_grid=1024)
    assert all(c.passed for c in rep.checks.values())
    assert rep.checks["uniform_closeness"].value == 0.0
    assert rep.checks["branch_non_crossing"].value == 0.0


def test_audit_family(synth):
    pert = make_perturbed_family(synth, 0.01)
    rep = audit_assumptions(synth, pert, eps=0.01, n_grid=2048)
    assert all(c.passed for c in rep.checks.values())
    assert rep.checks["expansion_floor"].value > 1.0


def test_audit_adversarial_crossing(synth):
    adv = SyntheticCuspMap(x0=synth.x0 - 0.02,
                           alpha_left=synth.alpha_left * 0.9,
                           alpha_right=synth.alpha_right,
                           b_left=synth.b_left, b_right=synth.b_right)
    rep = audit_assumptions(synth, adv, eps=0.04, n_grid=2048)
    assert not rep.checks["branch_non_crossing"].passed
    assert rep.checks["uniform_closeness"].passed


def test_cylinder_anatomy(synth):
    info = cylinder_anatomy(synth)
    assert set(info) == {"a_left0", "a_right0", "b_right1"}
    assert 0.0 < info["a_left0"] < synth.x0
    assert synth.x0 < info["a_right0"] < 1.0


@pytest.mark.parametrize("loglog", [False, True])
def test_slope_interval_is_student_t_ppf(monkeypatch, loglog):
    """The fit's 95% half-width reads scipy.special.stdtrit(dof, 0.975):
    the same bits as scipy.stats.t.ppf(0.975, dof) times the SE."""
    import scipy.special
    from scipy.stats import t as student_t

    from lorenzlab.cuspmap import _slope

    rng = np.random.default_rng(17)
    x = np.linspace(1e-3, 1e-2, 257)
    y = (2.0 * x ** 1.3 if loglog else 1.7 * x) \
        * (1.0 + 0.05 * rng.standard_normal(x.size))
    mine = _slope(x, y, loglog)
    dof = x.size - 2 if loglog else x.size - 1
    quantile, calls = student_t.ppf(0.975, dof), []

    def t_ppf(*args):
        calls.append(args)
        return quantile

    monkeypatch.setattr(scipy.special, "stdtrit", t_ppf)
    assert _slope(x, y, loglog) == mine
    assert calls == [(dof, 0.975)]
    assert mine.ci_low < mine.value < mine.ci_high
