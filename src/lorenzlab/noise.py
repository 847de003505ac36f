"""Forcing-amplitude laws.

A NoiseLaw is a probability law for the amplitude eta with support inside
[-eps, eps]. Amplitudes are drawn as `ppf` of a seeded uniform stream
(`section.sample_chain`), so runs with the same seed use common random
numbers across different eps values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class NoiseKind(enum.Enum):
    DELTA_ZERO = "delta_zero"
    UNIFORM = "uniform"
    DISCRETE = "discrete"
    TRUNC_GAUSS = "trunc_gauss"


@dataclass(frozen=True)
class NoiseLaw:
    """Law of the forcing amplitude. Use the classmethod constructors."""

    kind: NoiseKind
    eps: float = 0.0
    atoms: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise DomainError(f"eps must be >= 0, got {self.eps}")
        if self.kind in (NoiseKind.UNIFORM, NoiseKind.TRUNC_GAUSS) and self.eps <= 0:
            raise DomainError(f"{self.kind.value} law needs eps > 0")
        if self.kind is NoiseKind.TRUNC_GAUSS and self.sigma <= 0:
            raise DomainError("trunc_gauss law needs sigma > 0")
        if self.kind is NoiseKind.DISCRETE:
            if len(self.atoms) == 0 or len(self.atoms) != len(self.weights):
                raise DomainError("discrete law needs matching atoms and weights")
            if any(abs(a) > self.eps + 1e-15 for a in self.atoms):
                raise DomainError("discrete atoms must lie inside [-eps, eps]")
            if any(w < 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-12:
                raise DomainError("weights must be nonnegative and sum to 1")

    @classmethod
    def delta_zero(cls) -> "NoiseLaw":
        """Degenerate law: eta = 0 always (the unperturbed flow)."""
        return cls(kind=NoiseKind.DELTA_ZERO, eps=0.0)

    @classmethod
    def uniform(cls, eps: float) -> "NoiseLaw":
        return cls(kind=NoiseKind.UNIFORM, eps=float(eps))

    @classmethod
    def discrete(cls, atoms, weights=None, eps: float | None = None) -> "NoiseLaw":
        atoms = tuple(float(a) for a in atoms)
        if weights is None:
            weights = (1.0 / len(atoms),) * len(atoms)
        weights = tuple(float(w) for w in weights)
        if eps is None:
            eps = max(abs(a) for a in atoms)
        return cls(kind=NoiseKind.DISCRETE, eps=float(eps), atoms=atoms, weights=weights)

    @classmethod
    def trunc_gauss(cls, sigma: float, eps: float) -> "NoiseLaw":
        return cls(kind=NoiseKind.TRUNC_GAUSS, eps=float(eps), sigma=float(sigma))

    @property
    def support(self) -> tuple[float, float]:
        if self.kind is NoiseKind.DELTA_ZERO:
            return (0.0, 0.0)
        if self.kind is NoiseKind.DISCRETE:
            return (min(self.atoms), max(self.atoms))
        return (-self.eps, self.eps)

    def ppf(self, u):
        """Inverse CDF evaluated at uniform(0,1) draws."""
        u = np.asarray(u, dtype=float)
        if self.kind is NoiseKind.DELTA_ZERO:
            return np.zeros_like(u)
        if self.kind is NoiseKind.UNIFORM:
            return self.eps * (2.0 * u - 1.0)
        if self.kind is NoiseKind.TRUNC_GAUSS:
            from scipy.stats import truncnorm

            a, b = -self.eps / self.sigma, self.eps / self.sigma
            return truncnorm.ppf(u, a, b, scale=self.sigma)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="right")
        return np.asarray(self.atoms)[np.minimum(idx, len(self.atoms) - 1)]

    def quadrature(self, n_nodes: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and convex weights integrating this law (for operator averages)."""
        if self.kind in (NoiseKind.DELTA_ZERO,):
            return np.array([0.0]), np.array([1.0])
        if self.kind is NoiseKind.DISCRETE:
            return np.asarray(self.atoms, dtype=float), np.asarray(self.weights, dtype=float)
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        nodes = self.eps * x
        if self.kind is NoiseKind.UNIFORM:
            weights = w / w.sum()
        else:
            from scipy.stats import truncnorm

            a, b = -self.eps / self.sigma, self.eps / self.sigma
            dens = truncnorm.pdf(nodes, a, b, scale=self.sigma)
            weights = w * dens
            weights = weights / weights.sum()
        return nodes, weights
