"""Forcing-amplitude laws."""

import math

import numpy as np
import pytest

from lorenzlab import NoiseKind, NoiseLaw
from lorenzlab.errors import DomainError


LAWS = [
    NoiseLaw.delta_zero(),
    NoiseLaw.uniform(0.05),
    NoiseLaw.discrete((-0.05, 0.05)),
    NoiseLaw.discrete((0.025, 0.05), weights=(0.5, 0.5)),
    NoiseLaw.trunc_gauss(0.025, 0.05),
]


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind.name.lower())
def test_samples_stay_in_support(law):
    rng = np.random.default_rng(0)
    draws = law.ppf(rng.random(2000))
    lo, hi = law.support
    assert np.all(draws >= lo - 1e-15)
    assert np.all(draws <= hi + 1e-15)
    assert np.all(np.abs(draws) <= law.eps + 1e-15)


def law_mean(law) -> float:
    """Mean amplitude: the atoms' weighted mean, 0 for symmetric laws."""
    if law.kind is NoiseKind.DISCRETE:
        return float(np.dot(law.atoms, law.weights))
    return 0.0


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind.name.lower())
def test_quadrature_is_normalized(law):
    nodes, weights = law.quadrature()
    assert math.isclose(float(weights.sum()), 1.0, abs_tol=1e-12)
    assert abs(float(nodes @ weights) - law_mean(law)) < 1e-12


def test_quadrature_exact_for_atoms():
    law = NoiseLaw.discrete((-0.02, 0.01, 0.05), weights=(0.2, 0.3, 0.5))
    nodes, weights = law.quadrature()
    np.testing.assert_allclose(nodes, [-0.02, 0.01, 0.05])
    np.testing.assert_allclose(weights, [0.2, 0.3, 0.5])
    # second moment against a direct sum
    direct = sum(w * a**2 for a, w in zip(law.atoms, law.weights))
    assert math.isclose(float((nodes**2) @ weights), direct, rel_tol=1e-15)


def test_delta_zero_is_constant():
    law = NoiseLaw.delta_zero()
    assert law.kind is NoiseKind.DELTA_ZERO
    rng = np.random.default_rng(1)
    assert np.all(law.ppf(rng.random(100)) == 0.0)
    nodes, weights = law.quadrature()
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [1.0]


def test_uniform_moments():
    law = NoiseLaw.uniform(0.3)
    rng = np.random.default_rng(2)
    draws = law.ppf(rng.random(200_000))
    assert abs(draws.mean()) < 2e-3
    assert abs(draws.var() - 0.3**2 / 3.0) < 2e-3
    nodes, weights = law.quadrature(64)
    assert abs(float((nodes**2) @ weights) - 0.3**2 / 3.0) < 1e-10


def test_ppf_monotone_and_coupled():
    """Shared uniforms couple draws across amplitudes monotonically."""
    u = np.linspace(0.01, 0.99, 50)
    small = NoiseLaw.uniform(0.01)
    big = NoiseLaw.uniform(0.05)
    qs = np.array([small.ppf(v) for v in u])
    qb = np.array([big.ppf(v) for v in u])
    assert np.all(np.diff(qs) > 0)
    np.testing.assert_allclose(qb, 5.0 * qs, rtol=1e-12)


def test_ppf_discrete_thresholds():
    law = NoiseLaw.discrete((0.025, 0.05), weights=(0.5, 0.5))
    assert law.ppf(0.25) == 0.025
    assert law.ppf(0.75) == 0.05


def test_validation_errors():
    with pytest.raises(DomainError):
        NoiseLaw.uniform(-0.1)
    with pytest.raises(DomainError):
        NoiseLaw.uniform(0.0)
    with pytest.raises(DomainError):
        NoiseLaw.discrete((0.5, 2.0), eps=1.0)
    with pytest.raises(DomainError):
        NoiseLaw.discrete((0.1, 0.2), weights=(0.7, 0.7))
    with pytest.raises(DomainError):
        NoiseLaw.discrete(())
    with pytest.raises(DomainError):
        NoiseLaw.trunc_gauss(0.0, 0.05)
