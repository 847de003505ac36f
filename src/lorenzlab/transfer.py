"""Transfer operators on [0,1]: Ulam discretization and its diagnostics.

An n_bins x n_bins stochastic matrix on the Ulam grid discretizes the
transfer operator of an interval map; its leading eigenvector approximates
the invariant density. The default rows are the piecewise-linear Markov
discretization of Ding and Zhou (hat functions on the bin centres); exact
bin-indicator (Ulam) rows are kept for fold-shaped maps as a reference.
On top of that sit the statistical-stability experiment for perturbed cusp
families, noise-averaged operators, a computable lower bound for the
operator distance, a discrete quasi-Hoelder seminorm with a contraction
probe, and the inducing-scheme reconstruction of the invariant measure
from first returns to an interval around the cusp.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .cuspmap import IntervalMap, _bin_counts, _moving_average, \
    audit_assumptions, make_perturbed_family
from .errors import (
    ConstructionError,
    DomainError,
    ShapeError,
    SpectralError,
    TruncationWarning,
)
from .noise import NoiseLaw


@dataclass(frozen=True)
class Density:
    """Piecewise-constant probability density on equal bins of [0, 1].

    values holds one density value per bin; the bin count is its length.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ShapeError("density values must be 1-d")
        if np.any(v < -1e-14):
            raise DomainError("density values must be non-negative")
        if abs(float(np.sum(v)) / len(v) - 1.0) > 1e-12:
            raise DomainError("density must integrate to 1 within 1e-12")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_mass(cls, mass: np.ndarray) -> "Density":
        """The density whose bin masses are proportional to mass."""
        return cls(values=mass / mass.sum() * len(mass))

    @property
    def n_bins(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic transfer-operator matrix on the n_bins grid.

    Entry (i, j) is the fraction of basis function i carried into basis
    function j: hat functions for build_ulam, bin indicators
    (Leb(bin_i ∩ T^-1 bin_j)/Leb(bin_i)) for build_ulam_exact. The
    matrix is square, and the bin count is its number of rows.
    """

    matrix: sparse.csr_matrix

    def __post_init__(self):
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ShapeError("an Ulam matrix must be square")
        rs = np.asarray(self.matrix.sum(axis=1)).ravel()
        if np.max(np.abs(rs - 1.0)) > 1e-10:
            raise ShapeError("rows of an Ulam matrix must sum to 1")

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[0]

    def apply_to_density(self, values: np.ndarray) -> np.ndarray:
        """Push bin values forward by the discretized transfer operator."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_bins,):
            raise ShapeError("value vector length must equal n_bins")
        return self.matrix.T @ values


_N_SUB = 64  # stratified sub-samples per bin; 1/_N_SUB is an exact binary float
_POWER_TOL = 1e-12  # L1 step at which power iteration stops
_N_CHAINS = 1024  # parallel orbits of the map-sampling estimators
_BURN = 200  # discarded steps of each parallel orbit
_N_QUAD = 16  # quadrature nodes of the noise-averaged operator
_COVERAGE_TARGET = 0.995  # first-return mass below which pianigiani warns


def _hat_values(y: np.ndarray, n_bins: int) -> sparse.csr_matrix:
    """Values of the n_bins hat functions at the points y, one row per point.

    Hat i peaks at the bin centre (i + 1/2)/n_bins and vanishes one bin
    width away; the two end hats are flat on the outer half-bins, so the
    hats sum to 1 on [0, 1]. Each row holds two weights; on the outer
    half-bins both sit in the end column and add up to 1.
    """
    u = y * n_bins - 0.5
    k = np.floor(u)
    w = u - k
    k = k.astype(np.intp)
    data = np.empty(2 * len(y))
    data[0::2] = 1.0 - w
    data[1::2] = w
    cols = np.empty(2 * len(y), dtype=np.intp)
    cols[0::2] = np.clip(k, 0, n_bins - 1)
    cols[1::2] = np.clip(k + 1, 0, n_bins - 1)
    return sparse.csr_matrix((data, cols, np.arange(0, 2 * len(y) + 1, 2)),
                             shape=(len(y), n_bins))


@lru_cache(maxsize=8)
def _ulam_senders(n_bins: int) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Sample points of build_ulam and their transposed hat values.

    Both depend only on n_bins, so they are built once per grid, on first
    use, and shared read-only by every later build on that grid.
    """
    xs = (np.arange(n_bins * _N_SUB) + 0.5) / (_N_SUB * n_bins)
    senders = _hat_values(xs, n_bins).T.tocsr()
    for arr in (xs, senders.data, senders.indices, senders.indptr):
        arr.flags.writeable = False
    return xs, senders


def build_ulam(m, n_bins: int) -> UlamMatrix:
    """Transfer-operator matrix with piecewise-linear Markov rows.

    Ding-Zhou discretization on the Ulam grid: with the hat functions
    phi_i of _hat_values, P[i,j] = n_bins * integral phi_i(x) phi_j(T x) dx,
    evaluated at 64 stratified midpoints per bin. Each hat integrates to
    1/n_bins and the hats sum to 1, so P is row-stochastic and its
    stationary vector holds hat masses, which match bin masses to second
    order. Bin-indicator rows spread mass evenly across a bin; hats
    follow a density that varies across it, and since the receiving hat
    is continuous the midpoint quadrature leaves no first-order bias.
    m may be an IntervalMap or any vectorized callable [0,1] -> [0,1];
    only point images are used, so jump discontinuities are handled.
    """
    if n_bins < 16:
        raise DomainError("n_bins must be at least 16")
    xs, senders = _ulam_senders(n_bins)
    vals = np.asarray(m(xs), dtype=float)
    if np.any(~np.isfinite(vals)) or vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9:
        raise DomainError("map images must stay inside [0, 1]")
    # product of two sparse sample matrices with two non-zeros per row:
    # cheaper than assembling the four (i, j) pairs per sample in COO form
    receivers = _hat_values(np.clip(vals, 0.0, 1.0), n_bins)
    mat = (senders @ receivers) / _N_SUB
    mat.sum_duplicates()
    return UlamMatrix(matrix=mat)


def build_ulam_exact(m: IntervalMap, n_bins: int) -> UlamMatrix:
    """Ulam matrix with exact preimage-measure rows for fold-shaped maps.

    Entry (i, j) is the exact Lebesgue fraction of bin i carried into
    bin j, obtained by inverting the two monotone branches at the bin
    edges. The sampled builder (build_ulam) skips image hats whose
    preimage is narrower than its sub-sample spacing; near the cusp cap
    that zeroes the columns of the top bins, which this construction
    resolves.
    """
    if n_bins < 16:
        raise DomainError("n_bins must be at least 16")
    if not isinstance(m, IntervalMap):
        raise DomainError("exact rows need the branch structure of an "
                          "IntervalMap")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    rows, cols, vals = [], [], []
    for invert, lo_x, hi_x in ((m.inverse_left, 0.0, m.x0),
                               (m.inverse_right, m.x0, 1.0)):
        va, vb = m(lo_x), m(hi_x)
        lo_y, hi_y = min(va, vb), max(va, vb)
        ys = np.clip(edges, lo_y, hi_y)
        us = invert(ys)
        for j in range(n_bins):
            plo, phi = sorted((us[j], us[j + 1]))
            if phi - plo <= 0.0:
                continue
            i = min(max(int(plo * n_bins), 0), n_bins - 1)
            while i * (1.0 / n_bins) < phi and i < n_bins:
                overlap = min(phi, (i + 1) / n_bins) - max(plo, i / n_bins)
                if overlap > 0.0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(overlap * n_bins)
                i += 1
    mat = sparse.coo_matrix((vals, (rows, cols)),
                            shape=(n_bins, n_bins)).tocsr()
    mat.sum_duplicates()
    return UlamMatrix(matrix=mat)


def stationary_density(p: UlamMatrix, max_iter: int = 100_000) -> Density:
    """Leading eigenvector by power iteration from the uniform density."""
    mass = np.full(p.n_bins, 1.0 / p.n_bins)
    pt = p.matrix.T.tocsr()
    for _ in range(max_iter):
        new = pt @ mass
        new /= new.sum()
        if float(np.sum(np.abs(new - mass))) < _POWER_TOL:
            mass = new
            break
        mass = new
    else:
        raise SpectralError(
            f"power iteration did not reach {_POWER_TOL} in {max_iter} "
            "iterations")
    return Density.from_mass(np.maximum(mass, 0.0))


def _l1(values: np.ndarray) -> float:
    """L1 norm of bin values on equal bins of [0, 1]."""
    return float(np.sum(np.abs(values))) / len(values)


def l1_distance(d1: Density, d2: Density) -> float:
    if d1.n_bins != d2.n_bins:
        raise ShapeError("densities must share the bin grid")
    return _l1(d1.values - d2.values)


def _step(m, x: np.ndarray) -> np.ndarray:
    """Images of x kept inside (0, 1): endpoint fixed points trap orbits."""
    return np.clip(np.asarray(m(x), dtype=float), 1e-12, 1.0 - 1e-12)


def _occupation(batches, n_bins: int) -> Density:
    """Density of how often the points of all batches fall in each bin."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return Density.from_mass(sum((_bin_counts(x, edges)[0] for x in batches),
                                 np.zeros(n_bins, dtype=np.intp)))


def _parallel_orbits(m, n_points: int, seed: int):
    """Post-burn-in states of parallel orbits, one array per step."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.02, 0.98, size=_N_CHAINS)
    for k in range(_BURN + int(math.ceil(n_points / _N_CHAINS))):
        x = _step(m, x)
        if k >= _BURN:
            yield x


def birkhoff_histogram(m, n_points: int, n_bins: int,
                       seed: int = 0) -> Density:
    """Occupation histogram of map orbits as an independent density estimate.

    Runs 1024 parallel orbits from uniform random starts, drops a 200-step
    burn-in, and pools n_points samples. Parallel orbits keep the
    per-step work vectorized; the pooled histogram estimates the same
    invariant density as one long orbit.
    """
    return _occupation(_parallel_orbits(m, n_points, seed), n_bins)


@dataclass(frozen=True)
class StabilityEntry:
    eps: float
    distance: float
    audit_passed: bool


@dataclass(frozen=True)
class StabilityReport:
    """L1 distances of perturbed invariant densities along an eps ladder."""

    entries: tuple[StabilityEntry, ...]
    kendall_tau: float
    monotone: bool

    def distances(self) -> np.ndarray:
        return np.array([e.distance for e in self.entries])


def statistical_stability_experiment(base: IntervalMap, eps_ladder,
                                     n_bins: int) -> StabilityReport:
    """Invariant-density response of the perturbed family along a ladder.

    For each eps the perturbed map is constructed and audited, its Ulam
    density computed, and the L1 distance to the base density recorded.
    Audit failures flag the entry but do not stop the experiment.
    """
    from scipy.stats import kendalltau

    eps_ladder = [float(e) for e in eps_ladder]
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise DomainError("eps ladder must be strictly decreasing")
    rho = stationary_density(build_ulam(base, n_bins))
    entries = []
    for eps in eps_ladder:
        pert = make_perturbed_family(base, eps)
        audit = audit_assumptions(base, pert, eps)
        rho_eps = stationary_density(build_ulam(pert, n_bins))
        entries.append(StabilityEntry(eps=eps,
                                      distance=l1_distance(rho, rho_eps),
                                      audit_passed=audit.all_passed))
    dist = [e.distance for e in entries]
    tau = kendalltau(eps_ladder, dist).statistic if len(dist) > 2 else float("nan")
    monotone = all(b < a for a, b in zip(dist, dist[1:]))
    return StabilityReport(entries=tuple(entries), kendall_tau=float(tau),
                           monotone=monotone)


def averaged_transfer_operator(family, law: NoiseLaw,
                               n_bins: int) -> UlamMatrix:
    """Noise-averaged operator: quadrature mixture of per-amplitude matrices.

    family maps an amplitude eta to an interval map. The mixture weights
    come from the law's quadrature rule, so the result is row-stochastic
    by convexity. Atomic laws are averaged exactly.
    """
    nodes, weights = law.quadrature(_N_QUAD)
    acc = sum(w * build_ulam(family(float(eta)), n_bins).matrix
              for eta, w in zip(nodes, weights))
    return UlamMatrix(matrix=acc.tocsr())


def quasi_holder_seminorm(values: np.ndarray, alpha: float,
                          eps0: float) -> float:
    """Discrete oscillation seminorm over dyadic window radii.

    For each radius the per-bin oscillation is taken over a sliding window
    whose half-width rounds the radius up to whole bins (one bin of slack,
    so the discrete window always contains the continuum ball and the
    sup-norm embedding stays valid). The seminorm is the sup over radii of
    the scaled mean oscillation. values holds one value per bin.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if not 0.0 < eps0 <= 0.5:
        raise DomainError("eps0 must lie in (0, 1/2]")
    n = len(values)
    best = 0.0
    radius = eps0
    while radius >= 1.0 / n:
        half = int(math.ceil(radius * n)) + 1
        size = 2 * half + 1
        osc = (maximum_filter1d(values, size, mode="nearest")
               - minimum_filter1d(values, size, mode="nearest"))
        best = max(best, float(np.sum(osc)) / n / radius ** alpha)
        radius *= 0.5
    return best


def quasi_holder_norm(values: np.ndarray, alpha: float, eps0: float) -> float:
    """Seminorm plus the L1 norm of the bin values."""
    return quasi_holder_seminorm(values, alpha, eps0) + _l1(values)


def build_test_dictionary(n_bins: int, alpha: float = 0.5,
                          eps0: float = 0.125) -> np.ndarray:
    """Fixed 21-function dictionary, each normalized to quasi-Hoelder norm 1.

    Entries: constant; the monomials x, x^2, x^3; (1-x), (1-x)^2; x(1-x);
    three Gaussian bumps at 1/4, 1/2, 3/4; six smoothed step functions with
    cut points k/8 (k = 1..6); three hat functions; sqrt(x) and
    sqrt(1-x).
    """
    x = (np.arange(n_bins) + 0.5) / n_bins
    funcs: list[np.ndarray] = [np.ones(n_bins), x, x ** 2, x ** 3,
                               1.0 - x, (1.0 - x) ** 2, x * (1.0 - x)]
    for c in (0.25, 0.5, 0.75):
        funcs.append(np.exp(-((x - c) ** 2) / 0.02))
    width = max(3, int(round(eps0 * n_bins / 4.0)))
    for k in range(1, 7):
        funcs.append(_moving_average((x <= k / 8.0).astype(float), width))
    for c in (0.25, 0.5, 0.75):
        funcs.append(np.maximum(0.0, 1.0 - 4.0 * np.abs(x - c)))
    funcs.append(np.sqrt(x))
    funcs.append(np.sqrt(1.0 - x))
    out = np.empty((len(funcs), n_bins))
    for i, f in enumerate(funcs):
        out[i] = f / quasi_holder_norm(f, alpha, eps0)
    return out


def operator_distance(p: UlamMatrix, p_eps: UlamMatrix) -> float:
    """Dictionary lower bound on the operator distance into L1.

    Reports max_f ||(P - P_eps) f||_1 over the fixed dictionary of
    test functions with quasi-Hoelder norm at most 1, the matrices acting
    on functions of the bin index. The true operator norm takes a sup
    over the whole unit ball, so this is a lower bound. Row-stochasticity
    makes the bound vanish exactly on constants.
    """
    if p.n_bins != p_eps.n_bins:
        raise ShapeError("operators must share the bin grid")
    diff = (p.matrix - p_eps.matrix).tocsr()
    return max(_l1(diff @ f) for f in build_test_dictionary(p.n_bins))


@dataclass(frozen=True)
class ProbeReport:
    """Least-squares contraction estimate over operator iterates."""

    kappa: float
    d_const: float
    contracting: bool
    n_iter: int
    alpha: float
    eps0: float


def lasota_yorke_probe(p: UlamMatrix, alpha: float = 0.5, eps0: float = 0.125,
                       n_iter: int = 12) -> ProbeReport:
    """Fit seminorm(L f) <= kappa seminorm(f) + D ||f||_1 over iterates.

    Report-only diagnostic. The dictionary is iterated through the
    discretized operator and the per-step maximum of the seminorms is
    fitted against its predecessor: the inequality is an envelope bound,
    so the regression tracks the slowest-contracting direction rather
    than the dictionary average. Steps where the envelope has decayed to
    the resolution floor are dropped, and a tiny ridge on D keeps the fit
    determined when seminorm and L1 sequences are collinear (identity-like
    matrices).
    """
    if n_iter < 10:
        raise DomainError("n_iter must be at least 10")
    dictionary = build_test_dictionary(p.n_bins, alpha=alpha, eps0=eps0)
    semis = np.empty((len(dictionary), n_iter + 1))
    l1s = np.empty((len(dictionary), n_iter + 1))
    for fi, f in enumerate(dictionary):
        cur = f.copy()
        for k in range(n_iter + 1):
            semis[fi, k] = quasi_holder_seminorm(cur, alpha, eps0)
            l1s[fi, k] = _l1(cur)
            if k < n_iter:
                cur = p.apply_to_density(cur)
    top = np.argmax(semis, axis=0)
    env = semis[top, np.arange(n_iter + 1)]
    env_l1 = l1s[top, np.arange(n_iter + 1)]
    keep = env[1:] >= 1e-3 * env[0]
    a = np.column_stack([env[:-1][keep], env_l1[:-1][keep]])
    y = env[1:][keep]
    gram = a.T @ a + np.diag([0.0, 1e-8])
    coef = np.linalg.solve(gram, a.T @ y)
    kappa, d_const = float(coef[0]), float(coef[1])
    return ProbeReport(kappa=kappa, d_const=d_const,
                       contracting=kappa < 1.0 - 1e-3,
                       n_iter=n_iter, alpha=alpha, eps0=eps0)


@dataclass(frozen=True)
class PianigianiReport:
    """First-return reconstruction of the invariant measure around the cusp.

    The interval I straddles the cusp between the two preimages of x0;
    cylinders Z_p collect points whose excursion re-enters I after exactly
    p steps, and coverage is the share of points in I that they resolve.
    kac_product is the visit frequency mu_I of I (standard error mu_i_se)
    times mean_return, the Kac mean return time under the induced measure;
    it sits near 1 when the scheme is consistent. scaling_* fit the left
    cuts' approach to the cusp against its theory slope.
    """

    coverage: float
    mu_i_se: float
    mean_return: float
    kac_product: float
    density: Density
    scaling_slope: float
    scaling_slope_theory: float
    scaling_r2: float
    truncated: bool


def _inverse_sequences(m: IntervalMap, p_max: int):
    """Interval ends and cylinder cuts by inverse-branch iteration.

    Returns the ends of I (the two preimages of x0) and the left and right
    cylinder cuts. Stops early once the cuts approach the cusp to within
    float resolution; the effective depth is the length of the cut arrays
    minus one.
    """
    i_lo, i_hi = m.inverse_left(m.x0), m.inverse_right(m.x0)
    a_left, a_right = i_lo, i_hi  # marching down to 0 and up to 1
    b_left, b_right = [i_lo], [i_hi]  # cylinder cuts left and right of x0
    for _ in range(p_max):
        nl = m.inverse_left(a_right)
        nr = m.inverse_right(a_right)
        if (m.x0 - nl) < 1e-13 or (nr - m.x0) < 1e-13:
            break
        a_left, a_right = m.inverse_left(a_left), m.inverse_right(a_left)
        b_left.append(nl)
        b_right.append(nr)
        if not (0.0 < a_left < a_right < 1.0):
            raise ConstructionError("inverse-branch iteration left (0,1)")
    bl = np.array(b_left)
    br = np.array(b_right)
    if np.any(np.diff(bl) <= 0) or np.any(np.diff(br) >= 0):
        raise ConstructionError("cylinder boundaries are not nested")
    return i_lo, i_hi, bl, br


def pianigiani_check(m: IntervalMap, n_orbit: int = 1_000_000,
                     n_bins: int = 512, p_max: int = 40) -> PianigianiReport:
    """Reconstruct the invariant measure from first returns to I.

    Orbit samples inside I are grouped into cylinders by return time; the
    measure of a bin sums the pushforward visits of each cylinder over its
    excursion, weighted by the induced measure and normalized by the Kac
    mean return. The report includes the cusp-approach scaling of the
    cylinder cuts, whose log-slope is fixed by the left endpoint slope and
    cusp exponent.
    """
    i_lo, i_hi, b_left, b_right = _inverse_sequences(m, p_max)
    p_max = len(b_left) - 1

    in_i, samples = [], []
    for x in _parallel_orbits(m, n_orbit, seed=0):
        in_i.append((x > i_lo) & (x < i_hi))
        samples.append(x[in_i[-1]])
    in_i = np.array(in_i)  # (steps, chains)
    y = np.concatenate(samples)
    n_in = len(y)
    mu_i = n_in / in_i.size
    mu_i_se = float(np.std(in_i.mean(axis=0), ddof=1)
                    / math.sqrt(in_i.shape[1]))

    # Cylinder index = return time: left points sit between consecutive
    # left cuts, right points between consecutive right cuts.
    tau = np.zeros(n_in, dtype=int)
    left = y < m.x0
    tau[left] = np.searchsorted(b_left, y[left])
    tau[~left] = np.searchsorted(-b_right, -y[~left])
    assigned = (tau >= 1) & (tau <= p_max)
    coverage = float(np.mean(assigned)) if n_in else 0.0
    truncated = coverage < _COVERAGE_TARGET
    if truncated:
        warnings.warn(
            f"cylinder family up to p={p_max} covers {coverage:.4%} of "
            "first-return mass", TruncationWarning, stacklevel=2)

    counts = np.bincount(tau[assigned], minlength=p_max + 1)[1:]
    mu_induced = counts / assigned.sum()
    mean_return = float(np.sum(np.arange(1, p_max + 1) * mu_induced))
    kac_product = mu_i * mean_return

    def excursions():
        # each cylinder's points and their images up to the return
        for p in range(1, p_max + 1):
            cur = y[assigned & (tau == p)]
            yield cur
            for _ in range(p - 1 if len(cur) else 0):
                cur = _step(m, cur)
                yield cur

    density = _occupation(excursions(), n_bins)

    keep = (m.x0 - b_left) > 1e-12
    ps = np.arange(len(b_left))[keep]
    logs = np.log(m.x0 - b_left[keep])
    # the scaling law is asymptotic in p: drop the transient when the
    # tail is long enough to support the fit on its own
    start = 8 if np.sum(ps >= 8) >= 10 else 1
    logs = logs[ps >= start]
    ps = ps[ps >= start]
    vx = ps - ps.mean()
    slope = float(np.sum(vx * logs) / np.sum(vx * vx))
    fitted = slope * vx + logs.mean()
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    alpha_l = getattr(m, "alpha_left", None)
    b_l = getattr(m, "b_left", None)
    slope_theory = (-math.log(alpha_l) / b_l
                    if alpha_l is not None and b_l is not None
                    else float("nan"))

    return PianigianiReport(
        coverage=coverage, mu_i_se=mu_i_se, mean_return=mean_return,
        kac_product=kac_product, density=density,
        scaling_slope=slope, scaling_slope_theory=slope_theory,
        scaling_r2=r2, truncated=truncated)
