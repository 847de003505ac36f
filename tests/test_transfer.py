"""Ulam discretization, invariant densities, stability and inducing checks."""

import numpy as np
import pytest
from scipy import sparse

from lorenzlab.cuspmap import SyntheticCuspMap, make_perturbed_family
from lorenzlab.errors import (DomainError, ShapeError, SpectralError,
                              TruncationWarning)
from lorenzlab.noise import NoiseLaw
from lorenzlab.transfer import (
    Density,
    UlamMatrix,
    averaged_transfer_operator,
    birkhoff_histogram,
    build_test_dictionary,
    build_ulam,
    build_ulam_exact,
    l1_distance,
    operator_distance,
    pianigiani_check,
    quasi_holder_norm,
    quasi_holder_seminorm,
    stationary_density,
    statistical_stability_experiment,
    _ulam_senders,
)


def doubling(x):
    return (2.0 * x) % 1.0


def tent(x):
    return 1.0 - np.abs(2.0 * x - 1.0)


def logistic(x):
    return 4.0 * x * (1.0 - x)


def arcsine_density(n_bins):
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    cdf = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
    return Density(values=n_bins * np.diff(cdf))


def uniform_density(n_bins):
    return Density(values=np.ones(n_bins))


@pytest.fixture(scope="module")
def synth():
    return SyntheticCuspMap()


@pytest.mark.parametrize("m", [doubling, tent], ids=["doubling", "tent"])
def test_piecewise_linear_maps_exact(m):
    """Markov maps aligned with the dyadic bins have exact Ulam matrices."""
    p = build_ulam(m, 1024)
    d = stationary_density(p)
    assert l1_distance(d, uniform_density(1024)) <= 1e-10


def test_logistic_density_regression():
    # The piecewise-linear rows sit 0.0159 from the binned arcsine law at
    # 4096 bins, pinned with slack as a regression guard; bin-indicator
    # rows give 0.0306 (sampled) or 0.0216 (exact) and trip it.
    d = stationary_density(build_ulam(logistic, 4096))
    assert l1_distance(d, arcsine_density(4096)) < 0.018


def test_power_iteration_nonconvergence_raises():
    with pytest.raises(SpectralError):
        stationary_density(build_ulam(logistic, 64), max_iter=1)


def test_build_ulam_validation():
    with pytest.raises(DomainError):
        build_ulam(doubling, 8)
    with pytest.raises(DomainError):
        build_ulam(lambda x: 2.0 * x, 64)


def test_density_values_must_be_1d():
    assert uniform_density(64).n_bins == 64
    with pytest.raises(ShapeError):
        Density(values=np.ones((4, 16)))


def test_density_values_must_be_finite():
    for bad in (np.nan, np.inf):
        values = np.ones(8)
        values[3] = bad
        with pytest.raises(DomainError):
            Density(values=values)


def test_birkhoff_histogram_without_samples_raises():
    """No orbit samples give 0/0 bin masses, which Density rejects."""
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        birkhoff_histogram(logistic, 0, 8)


def test_ulam_matrix_must_be_square():
    """Rows of 0.2 sum to 1, so only the shape check can refuse 3 x 5."""
    assert build_ulam(doubling, 64).n_bins == 64
    with pytest.raises(ShapeError):
        UlamMatrix(matrix=sparse.csr_matrix(np.full((3, 5), 0.2)))


def _csr_equal(p, q):
    return all(np.array_equal(getattr(p.matrix, k), getattr(q.matrix, k))
               for k in ("data", "indices", "indptr"))


def test_build_ulam_repeats_exactly(synth):
    assert _csr_equal(build_ulam(synth, 128), build_ulam(synth, 128))


def test_ulam_senders_read_only():
    xs, senders = _ulam_senders(64)
    for arr in (xs, senders.data, senders.indices, senders.indptr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.5


def test_ulam_sender_cache_per_grid(synth):
    _ulam_senders.cache_clear()
    fresh = build_ulam(synth, 96)
    build_ulam(synth, 80)
    assert _csr_equal(build_ulam(synth, 96), fresh)
    xs, senders = _ulam_senders(96)
    assert len(xs) == senders.shape[1] == 96 * 64 and senders.shape[0] == 96
    assert _ulam_senders(80)[1].shape[0] == 80


def test_exact_builder_agrees_with_sampled(synth):
    p = build_ulam_exact(synth, 512)
    rows = np.asarray(p.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)
    d_exact = stationary_density(p)
    d_sampled = stationary_density(build_ulam(synth, 512))
    assert l1_distance(d_exact, d_sampled) < 0.03


def test_exact_builder_resolves_cusp_cap(synth):
    # Only points within ~1e-7 of the cusp reach the top bin, far below
    # the sampled builder's sub-sample spacing. The exact rows keep that
    # mass, so the stationary density stays positive at both ends.
    p = build_ulam_exact(synth, 256)
    top_column = np.asarray(
        abs(p.matrix[:, -1]).sum(axis=0)).ravel()[0]
    assert top_column > 0.0
    d = stationary_density(p)
    assert d.values[0] > 0.0
    assert d.values[-1] > 0.0


def test_exact_builder_validation():
    with pytest.raises(DomainError):
        build_ulam_exact(SyntheticCuspMap(), 8)
    with pytest.raises(DomainError):
        build_ulam_exact(doubling, 64)


def test_matrix_is_stochastic_and_conserves_mass(synth):
    p = build_ulam(synth, 256)
    rows = np.asarray(p.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)
    rng = np.random.default_rng(1)
    v = rng.gamma(1.0, size=256)
    v /= v.mean()
    out = p.matrix.T @ v
    assert out.mean() == pytest.approx(1.0, abs=1e-12)
    assert out.min() >= 0.0


def test_stationary_density_is_fixed_point(synth):
    p = build_ulam(synth, 256)
    d = stationary_density(p)
    assert d.values.mean() == pytest.approx(1.0, abs=1e-12)
    again = p.matrix.T @ d.values
    assert np.max(np.abs(again - d.values)) < 1e-9


def test_birkhoff_matches_transfer_density():
    hist = birkhoff_histogram(logistic, 400_000, 512, seed=1)
    assert l1_distance(hist, arcsine_density(512)) < 0.05


def test_averaged_operator_delta_zero_is_base(synth):
    fam = lambda eta: (make_perturbed_family(synth, abs(eta))
                       if eta else synth)
    pav = averaged_transfer_operator(fam, NoiseLaw.delta_zero(), 256)
    pbase = build_ulam(synth, 256)
    assert abs(pav.matrix - pbase.matrix).max() == 0.0


def test_averaged_operator_is_convex_combination(synth):
    fam = lambda eta: (make_perturbed_family(synth, abs(eta))
                       if eta else synth)
    law = NoiseLaw.discrete((0.01, 0.03), weights=(0.25, 0.75))
    pav = averaged_transfer_operator(fam, law, 256)
    manual = (0.25 * build_ulam(fam(0.01), 256).matrix
              + 0.75 * build_ulam(fam(0.03), 256).matrix)
    assert abs(pav.matrix - manual).max() < 1e-15


def test_quasi_holder_indicator_value():
    """Two jump points each contribute 2*eps*height to the oscillation."""
    vals = np.zeros(1024)
    vals[256:512] = 1.0
    height = 1.0 / vals.mean()
    d = Density(values=vals * height)
    expected = 4.0 * height * 0.125 ** 0.5
    assert quasi_holder_seminorm(d.values, 0.5, 0.125) == pytest.approx(
        expected, rel=0.02)
    assert quasi_holder_norm(d.values, 0.5, 0.125) == pytest.approx(
        expected + 1.0, rel=0.02)


@pytest.mark.parametrize("alpha,eps0", [(0.0, 0.125), (1.5, 0.125),
                                        (0.5, 0.0), (0.5, 0.75)])
def test_quasi_holder_parameter_validation(alpha, eps0):
    with pytest.raises(DomainError):
        quasi_holder_seminorm(np.ones(64), alpha, eps0)


def test_quasi_holder_smooth_small():
    g = (np.arange(512) + 0.5) / 512
    vals = 1.0 + 0.2 * np.sin(2.0 * np.pi * g)
    vals /= vals.mean()
    d = Density(values=vals)
    # Lipschitz density: oscillation integral is O(eps^2), seminorm
    # sup eps^(1-alpha) * Lip stays below ~ 0.5
    assert quasi_holder_seminorm(d.values, 0.5, 0.125) < 1.0


def test_sup_norm_embedding():
    """Quasi-Holder control of the sup norm with C_s = max(1,e0^a)/e0."""
    rng = np.random.default_rng(0)
    c_s = max(1.0, 0.125 ** 0.5) / 0.125
    for _ in range(25):
        v = rng.gamma(0.7, size=256)
        v = np.maximum(v, 1e-12)
        v /= v.mean()
        d = Density(values=v)
        assert v.max() <= c_s * quasi_holder_norm(d.values, 0.5, 0.125) + 1e-12


def test_operator_distance_properties(synth):
    p = build_ulam(synth, 256)
    assert operator_distance(p, p) == 0.0
    d1 = operator_distance(p, build_ulam(make_perturbed_family(synth, 0.01),
                                         256))
    d2 = operator_distance(p, build_ulam(make_perturbed_family(synth, 0.05),
                                         256))
    assert 0.0 < d1 < d2


def test_dictionary_rows_have_unit_quasi_holder_norm():
    for n_bins in (128, 100):
        dic = build_test_dictionary(n_bins)
        assert dic.shape == (21, n_bins)
        for f in dic:
            assert quasi_holder_norm(f, 0.5, 0.125) == pytest.approx(
                1.0, rel=1e-12)


def test_distances_reject_mismatched_grids(synth):
    with pytest.raises(ShapeError):
        l1_distance(uniform_density(16), uniform_density(32))
    with pytest.raises(ShapeError):
        operator_distance(build_ulam(synth, 16), build_ulam(synth, 32))


def test_pianigiani_inducing(synth):
    rep = pianigiani_check(synth, n_orbit=200_000, n_bins=256, p_max=30)
    assert not rep.truncated
    assert rep.coverage > 0.99
    # Kac identity: mean return time times base-cell mass is 1
    assert abs(rep.kac_product - 1.0) < 3.0 * rep.mu_i_se * rep.mean_return
    assert abs(rep.scaling_slope - rep.scaling_slope_theory) < \
        0.1 * abs(rep.scaling_slope_theory)
    assert rep.scaling_r2 > 0.9
    ulam = stationary_density(build_ulam(synth, 256))
    assert l1_distance(rep.density, ulam) < 0.05


def test_pianigiani_truncation_warns(synth):
    with pytest.warns(TruncationWarning):
        rep = pianigiani_check(synth, n_orbit=50_000, n_bins=128, p_max=4)
    assert rep.truncated


def test_statistical_stability_ladder(synth):
    rep = statistical_stability_experiment(synth, (0.05, 0.02, 0.01),
                                           n_bins=256)
    assert rep.monotone
    assert rep.kendall_tau == 1.0
    dists = [e.distance for e in rep.entries]
    assert dists == sorted(dists, reverse=True)
    assert all(e.audit_passed for e in rep.entries)


@pytest.mark.parametrize("ladder", [(0.01, 0.02), (0.02, 0.02), (-0.01,)],
                         ids=["increasing", "repeated", "negative"])
def test_stability_ladder_validation(synth, ladder):
    with pytest.raises(DomainError):
        statistical_stability_experiment(synth, ladder, n_bins=16)


def test_stability_resolution_robust(synth):
    """Doubling the bin count moves each distance by less than 20%."""
    coarse = statistical_stability_experiment(synth, (0.05, 0.02),
                                              n_bins=256)
    fine = statistical_stability_experiment(synth, (0.05, 0.02),
                                            n_bins=512)
    for a, b in zip(coarse.entries, fine.entries):
        assert abs(a.distance - b.distance) < 0.2 * max(a.distance,
                                                        b.distance)
