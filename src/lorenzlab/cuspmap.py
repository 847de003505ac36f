"""Interval maps of cusp type on [0, 1].

Two constructions share one interface: an analytic family with prescribed
branch behaviour (slope alpha_left > 1 at 0, slope magnitude alpha_right < 1
at 1, one-sided Hoelder exponents B_left, B_right in (0,1) at the cusp, so
the derivative blows up there), and a monotone-interpolant map built from
measured successive Casimir maxima. Both expose values, derivatives,
inverse branches, exponent fitting, a smooth change of coordinates that
can make the map uniformly expanding, and a one-parameter perturbed
family with an assumption audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    ConstructionError,
    DomainError,
    FitError,
    NumericalError,
    ShapeError,
    SingularPoint,
)

_BRANCH_BINS = 64  # log-distance bins per branch of an empirical map
_MIN_PAIRS = 1000  # fewest successive-maxima pairs an empirical map accepts
_FIT_POINTS = 40  # evaluation points in an exponent-fit window
_DEFORMATION_RATE = 0.5  # cusp shift and branch tilt per unit eps
_XTOL = 1e-14  # absolute width at which a branch-inversion bracket is closed
_RTOL = 4.0 * np.finfo(float).eps  # relative part of the same width
_MAX_ITER = 250  # a bracket halves every 5 updates; 47 halvings take 1 below _XTOL
_PEAK_DROP = 0.05  # valley depth at which a second scatter peak counts


class IntervalMap:
    """Unimodal cusp map on [0,1]: increasing on (0,x0), decreasing on (x0,1)."""

    x0: float

    def _values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivatives(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        arr, scalar = _as_domain(x)
        out = self._values(arr)
        return float(out[0]) if scalar else out

    def derivative(self, x):
        arr, scalar = _as_domain(x)
        if np.any(arr == self.x0):
            raise SingularPoint(f"derivative diverges at the cusp x0 = {self.x0}")
        out = self._derivatives(arr)
        return float(out[0]) if scalar else out

    def inverse_left(self, y):
        """Preimage on the increasing branch [0, x0].

        Solved by a vectorized, bracketed Anderson-Bjorck regula falsi to a
        bracket width of 1e-14 + 4 * machine eps * |x| (_invert_monotone).
        """
        return _invert_monotone(self, 0.0, self.x0, y)

    def inverse_right(self, y):
        """Preimage on the decreasing branch [x0, 1].

        Solved like inverse_left, to the same bracket width.
        """
        return _invert_monotone(self, self.x0, 1.0, y)


def _as_domain(x) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    if arr.ndim != 1:
        raise DomainError("map arguments must be scalars or 1-d arrays")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("map arguments must lie in [0, 1]")
    return arr, scalar


def _invert_monotone(m: IntervalMap, a: float, b: float, y):
    """Preimages of the values y on the monotone branch [a, b], all at once.

    Each value runs its own Anderson-Bjorck regula falsi, vectorized over
    the values whose brackets are still open. Every lane keeps its newest
    point and the far end of its bracket. As in Brent's method, a trial
    point stays half the closing width inside the bracket, so the bracket
    closes from both sides; a lane whose bracket did not halve over its
    last four updates bisects instead, which bounds the updates. A lane
    stops when its bracket is narrower than _XTOL + _RTOL * |x| and returns
    the bracket midpoint, or the point itself where T(x) = y exactly.
    Lanes never mix, so a preimage does not depend on the other values in
    the call, and scalars take the same path as 1-element arrays.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    scalar = np.ndim(y) == 0
    fa, fb = m._values(np.array([a, b]))
    lo, hi = (fa, fb) if fa <= fb else (fb, fa)
    bad = ~((lo - 1e-12 <= ys) & (ys <= hi + 1e-12))
    if bad.any():
        raise DomainError(f"value {ys[bad][0]} outside branch range [{lo}, {hi}]")
    ys = np.clip(ys, lo, hi)
    out = np.where(ys == fa, a, b)
    idx = np.flatnonzero((ys != fa) & (ys != fb))
    yv = ys[idx]
    xn, gn = np.full(len(idx), b), fb - yv  # newest point
    xf, gf = np.full(len(idx), a), fa - yv  # far end of the bracket
    widths = np.full((4, len(idx)), np.inf)  # the last four bracket widths
    for k in range(_MAX_ITER):
        d = xf - xn
        w = np.abs(d)
        tol = _XTOL + _RTOL * np.abs(xn)
        done = (w < tol) | (gn == 0.0)
        if done.any():
            out[idx[done]] = np.where(gn[done] == 0.0, xn[done],
                                      0.5 * (xn[done] + xf[done]))
            keep = ~done
            idx, yv, xn, gn, xf, gf, d, w, tol = (
                v[keep] for v in (idx, yv, xn, gn, xf, gf, d, w, tol))
            widths = widths[:, keep]
        if not len(idx):
            break
        frac = gn / (gn - gf)
        lim = 0.5 * tol / w
        frac = np.minimum(np.maximum(frac, lim), 1.0 - lim)
        frac[w > 0.5 * widths[k % 4]] = 0.5
        widths[k % 4] = w
        x = xn + frac * d
        g = m._values(x) - yv
        flip = (g > 0.0) != (gn > 0.0)
        # Anderson-Bjorck: when the same end is replaced twice in a row,
        # scale down the far value so the next secant steps past the root
        scale = 1.0 - g / gn
        scale[~(scale > 0.0)] = 0.5
        xf = np.where(flip, xn, xf)
        gf = np.where(flip, gn, gf * scale)
        xn, gn = x, g
    if len(idx):
        raise NumericalError(f"branch inversion failed at y = {yv[0]}: bracket "
                             f"not closed in {_MAX_ITER} updates")
    return float(out[0]) if scalar else out


def _horner(coef: tuple, x):
    """The polynomial coef[0] + coef[1] x + ..., in Horner form."""
    out = coef[-1]
    for c in coef[-2::-1]:
        out = c + out * x
    return out


class SyntheticCuspMap(IntervalMap):
    """Closed-form cusp map with exact branch asymptotics.

    Near the endpoints and the cusp the map behaves as

        T(x) = alpha_left * x + O(x^2)                     near 0,
        T(x) = 1 - amp_left * (x0 - x)^B_left * (1 + O(x0 - x))   at x0-,
        T(x) = 1 - amp_right * (x - x0)^B_right * (1 + O(x - x0)) at x0+,
        T(x) = alpha_right * (1 - x) + O((1 - x)^2)        near 1,

    with alpha_left > 1, alpha_right in (0,1) and B_left, B_right in (0,1).
    Each branch is the cusp power law times a quadratic correction solved
    from the endpoint conditions, the cheapest closed form that pins all
    four asymptotics at once. Construction fails with ConstructionError
    when the requested constants break monotonicity.
    """

    def __init__(self, x0: float = 0.39, alpha_left: float = 1.19,
                 alpha_right: float = 0.53, b_left: float = 0.34,
                 b_right: float = 0.36, amp_left: float | None = None,
                 amp_right: float | None = None):
        if not 0.0 < x0 < 1.0:
            raise ConstructionError("x0 must lie in (0, 1)")
        if alpha_left <= 1.0:
            raise ConstructionError("alpha_left must exceed 1")
        if not 0.0 < alpha_right < 1.0:
            raise ConstructionError("alpha_right must lie in (0, 1)")
        if not (0.0 < b_left < 1.0 and 0.0 < b_right < 1.0):
            raise ConstructionError("b_left and b_right must lie in (0, 1)")
        if amp_left is None:
            amp_left = x0 ** (-b_left)
        if amp_right is None:
            amp_right = (1.0 - x0) ** (-b_right)
        if amp_left <= 0 or amp_right <= 0:
            raise ConstructionError("branch amplitudes must be positive")
        self.x0 = float(x0)
        self.alpha_left = float(alpha_left)
        self.alpha_right = float(alpha_right)
        self.b_left = float(b_left)
        self.b_right = float(b_right)
        self.amp_left = float(amp_left)
        self.amp_right = float(amp_right)

        # Quadratic correction g on the left branch: T = 1 - amp*(x0-x)^B * g(x)
        # with g(x0) = 1 (exact cusp constant), g(0) fixing T(0) = 0, g'(0)
        # fixing T'(0) = alpha_left.
        g0 = x0 ** (-b_left) / amp_left
        g1 = (b_left / x0 - alpha_left) / (amp_left * x0 ** b_left)
        g2 = (1.0 - g0 - g1 * x0) / x0 ** 2
        self._g, self._gd = (g0, g1, g2), (g1, 2.0 * g2)

        # Quadratic correction h on the right branch, in powers of u = x - x0:
        # h(0) = 1, h(s) fixes T(1) = 0, h'(s) fixes T'(1) = -alpha_right.
        s = 1.0 - x0
        h1 = s ** (-b_right) / amp_right
        hp1 = (alpha_right - b_right / s) / (amp_right * s ** b_right)
        c2 = (hp1 * s - (h1 - 1.0)) / s ** 2
        c1 = hp1 - 2.0 * c2 * s
        self._h, self._hd = (1.0, c1, c2), (c1, 2.0 * c2)

        self._check_monotone()

    def _check_monotone(self) -> None:
        xl = np.linspace(1e-9, self.x0 - 1e-9, 2048)
        xr = np.linspace(self.x0 + 1e-9, 1.0 - 1e-9, 2048)
        dl, dr = self._derivatives(xl), self._derivatives(xr)
        if np.min(dl) <= 0:
            raise ConstructionError(
                "left branch is not increasing for the requested constants")
        if np.max(dr) >= 0:
            raise ConstructionError(
                "right branch is not decreasing for the requested constants")
        vals = self._values(np.concatenate([xl, xr]))
        if np.min(vals) < -1e-12 or np.max(vals) > 1.0 + 1e-12:
            raise ConstructionError("branch values leave [0, 1]")

    def _values(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        left = x <= self.x0
        s = np.clip(self.x0 - x[left], 0.0, None)
        out[left] = 1.0 - self.amp_left * s ** self.b_left * \
            _horner(self._g, x[left])
        u = np.clip(x[~left] - self.x0, 0.0, None)
        out[~left] = 1.0 - self.amp_right * u ** self.b_right * _horner(self._h, u)
        return np.clip(out, 0.0, 1.0)

    def _derivatives(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        left = x < self.x0
        s = self.x0 - x[left]
        out[left] = self.amp_left * s ** (self.b_left - 1.0) * (
            self.b_left * _horner(self._g, x[left])
            - s * _horner(self._gd, x[left]))
        u = x[~left] - self.x0
        out[~left] = -self.amp_right * u ** (self.b_right - 1.0) * (
            self.b_right * _horner(self._h, u) + u * _horner(self._hd, u))
        return out


class _LogBranch:
    """One monotone branch stored as log(1 - T) against log distance to x0.

    In these coordinates the cusp power law is a straight line, so a
    shape-preserving interpolant through binned means is accurate right up
    to the singularity. Below the innermost knot the curve continues
    linearly, which is exactly a power-law cap with the locally fitted
    exponent.
    """

    def __init__(self, u: np.ndarray, phi: np.ndarray):
        if len(u) < 4:
            raise ShapeError("too few usable bins on one branch of the scatter")
        self._p = PchipInterpolator(u, phi)
        self._pd = self._p.derivative()
        self._u0 = float(u[0])
        self._phi0 = float(phi[0])
        self._slope0 = max(float(self._pd(u[0])), 1e-12)

    def _phi(self, u: np.ndarray) -> np.ndarray:
        tail = u < self._u0
        out = np.empty_like(u)
        out[tail] = self._phi0 + self._slope0 * (u[tail] - self._u0)
        out[~tail] = self._p(u[~tail])
        return out

    def _phi_deriv(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self._u0, self._slope0, self._pd(np.maximum(u, self._u0)))

    def value(self, s: np.ndarray) -> np.ndarray:
        """T at distance s from the cusp (s = 0 maps to the top value 1)."""
        out = np.ones_like(s)
        pos = s > 0.0
        out[pos] = 1.0 - np.exp(self._phi(np.log(s[pos])))
        return out

    def slope_mag(self, s: np.ndarray) -> np.ndarray:
        """|dT/dx| at distance s > 0 from the cusp."""
        u = np.log(s)
        return np.exp(self._phi(u)) * self._phi_deriv(u) / s


class EmpiricalCuspMap(IntervalMap):
    """Monotone-branch interpolant through binned successive-maxima pairs.

    raw holds at least _MIN_PAIRS (m_n, m_next) pairs of successive maxima.
    They are normalized affinely by robust (0.1% / 99.9%) quantiles, kept
    in norm, and clipped to [0,1]. The cusp location is refined by a staged
    power-law fit; each branch is interpolated in log-log coordinates
    around the cusp, which pins both the singular caps and the endpoint
    anchors T(0) = T(1) = 0.
    """

    def __init__(self, raw: np.ndarray):
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise DomainError("pairs must have shape (n, 2)")
        if len(raw) < _MIN_PAIRS:
            raise DomainError(f"at least {_MIN_PAIRS} successive-maxima pairs "
                              f"required")
        lo = float(np.quantile(raw, 0.001))
        hi = float(np.quantile(raw, 0.999))
        if hi <= lo:
            raise DomainError("degenerate Casimir maxima, cannot normalize")
        self.pairs = pairs = np.clip((raw - lo) / (hi - lo), 0.0, 1.0)
        self.norm = (lo, hi)

        centers, means = _binned_means(pairs[:, 0], pairs[:, 1], 64)
        smooth = _moving_average(means, 5)
        n_modes, top = _significant_maxima(smooth)
        if n_modes > 1:
            raise ShapeError(
                f"scatter has {n_modes} separated maxima, expected one")
        coarse = _refine_peak(centers, smooth, top)
        self.x0 = _refine_x0_powerlaw(pairs[:, 0], pairs[:, 1], coarse)

        self._left = _log_branch(pairs, self.x0, side=-1)
        self._right = _log_branch(pairs, self.x0, side=+1)

    def _values(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        left = x <= self.x0
        out[left] = self._left.value(self.x0 - x[left])
        out[~left] = self._right.value(x[~left] - self.x0)
        return np.clip(out, 0.0, 1.0)

    def _derivatives(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        left = x < self.x0
        out[left] = self._left.slope_mag(self.x0 - x[left])
        out[~left] = -self._right.slope_mag(x[~left] - self.x0)
        return out


def _log_branch(pairs: np.ndarray, x0: float, side: int) -> _LogBranch:
    dist = (x0 - pairs[:, 0]) if side < 0 else (pairs[:, 0] - x0)
    keep = (dist > 1e-7) & (pairs[:, 1] < 1.0 - 1e-9)
    s = dist[keep]
    phi = np.log(1.0 - pairs[keep, 1])
    u = np.log(s)
    top = math.log(x0) if side < 0 else math.log(1.0 - x0)
    edges = np.linspace(u.min(), min(u.max(), top), _BRANCH_BINS + 1)
    counts, uk, pk = _bin_counts(u, edges, u, phi)
    good = counts >= 3
    uk, pk = uk[good] / counts[good], pk[good] / counts[good]
    # Anchor the far end of the branch: at distance x0 (resp. 1 - x0) the
    # branch reaches the interval endpoint where T = 0, i.e. log(1-T) = 0.
    uk = np.concatenate([uk[uk < top - 1e-9], [top]])
    pk = np.concatenate([pk[: len(uk) - 1], [0.0]])
    pk = np.maximum.accumulate(pk)
    strict = np.concatenate([[True], np.diff(pk) > 1e-12])
    strict[-1] = True
    uk, pk = uk[strict], pk[strict]
    if pk[-1] != 0.0:
        uk, pk = np.concatenate([uk[:-1], [top]]), np.concatenate([pk[:-1], [0.0]])
    return _LogBranch(uk, pk)


def _refine_x0_powerlaw(x: np.ndarray, y: np.ndarray, coarse: float) -> float:
    """Stage the cusp location through shrinking power-law fit windows.

    Each stage fits log(1 - y) against log|x - c| by least squares on both
    sides and moves c to the joint-residual minimum; closer windows see
    less curvature from the correction terms, so the bias shrinks with the
    window. Stages without enough points on both sides are skipped.
    """
    from scipy.optimize import minimize_scalar

    good = y < 1.0 - 1e-9
    x, z = x[good], np.log(1.0 - y[good])
    x0 = float(coarse)
    for lo, hi in ((0.03, 0.15), (0.005, 0.05), (0.0008, 0.008)):
        left = (x > x0 - hi) & (x < x0 - lo)
        right = (x < x0 + hi) & (x > x0 + lo)
        if left.sum() < 10 or right.sum() < 10:
            continue
        xl, zl = x[left], z[left]
        xr, zr = x[right], z[right]

        def ssr(c: float) -> float:
            total = 0.0
            for xs, zs in ((xl, zl), (xr, zr)):
                d = np.log(np.abs(xs - c))
                dm, zm = d - d.mean(), zs - zs.mean()
                denom = float(np.sum(dm * dm))
                slope = float(np.sum(dm * zm)) / denom if denom > 0 else 0.0
                total += float(np.sum((zm - slope * dm) ** 2))
            return total

        res = minimize_scalar(ssr, bounds=(x0 - 0.9 * lo, x0 + 0.9 * lo),
                              method="bounded",
                              options={"xatol": 1e-10})
        x0 = float(res.x)
    return x0


def _bin_counts(x: np.ndarray, edges: np.ndarray, *weights: np.ndarray):
    """Points of x per bin of edges (points outside them fall in the end
    bins), then the per-bin sums of each weight."""
    n = len(edges) - 1
    idx = np.clip(np.digitize(x, edges) - 1, 0, n - 1)
    return (np.bincount(idx, minlength=n),
            *(np.bincount(idx, weights=w, minlength=n) for w in weights))


def _binned_means(x: np.ndarray, y: np.ndarray,
                  n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres and means of y over the equal bins of x holding >= 3 points."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, sums = _bin_counts(x, edges, y)
    keep = counts >= 3
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers[keep], sums[keep] / counts[keep]


def _moving_average(y: np.ndarray, width: int) -> np.ndarray:
    """Running mean over width points, the ends padded with the end values."""
    if len(y) <= width:
        return y.copy()
    pad = width // 2
    ext = np.concatenate([np.repeat(y[0], pad), y,
                          np.repeat(y[-1], width - 1 - pad)])
    return np.convolve(ext, np.ones(width) / width, mode="valid")


def _significant_maxima(y: np.ndarray) -> tuple[int, int]:
    """Count separated interior maxima; a second peak counts only when the
    valley between it and the higher peak drops by more than _PEAK_DROP."""
    peaks = [i for i in range(1, len(y) - 1)
             if y[i] >= y[i - 1] and y[i] > y[i + 1]]
    if not peaks:
        return 1, int(np.argmax(y))
    top = max(peaks, key=lambda i: y[i])
    n_modes = 1
    for i in peaks:
        if i == top:
            continue
        lo, hi = (i, top) if i < top else (top, i)
        valley = np.min(y[lo:hi + 1])
        if y[i] - valley > _PEAK_DROP:
            n_modes += 1
    return n_modes, top


def _refine_peak(centers: np.ndarray, y: np.ndarray, top: int) -> float:
    """Local quadratic fit around the peak bin; falls back to the bin center."""
    lo, hi = max(0, top - 4), min(len(y), top + 5)
    if hi - lo < 3:
        return float(centers[top])
    coef = np.polyfit(centers[lo:hi], y[lo:hi], 2)
    if coef[0] < 0:
        vertex = -coef[1] / (2.0 * coef[0])
        if centers[lo] <= vertex <= centers[hi - 1]:
            return float(vertex)
    return float(centers[top])


def build_empirical_map(trace) -> EmpiricalCuspMap:
    """Cusp map from the successive Casimir maxima of a chain trace.

    The trace's consecutive Casimir values give the (m_n, m_next) pairs;
    an array of raw pairs goes to EmpiricalCuspMap directly.
    """
    m = trace.casimir
    return EmpiricalCuspMap(np.column_stack([m[:-1], m[1:]]))


@dataclass(frozen=True)
class ExponentEstimate:
    value: float
    ci_low: float
    ci_high: float
    rms_residual: float


@dataclass(frozen=True)
class BranchFit:
    """Fitted branch constants with 95% confidence intervals."""

    alpha_left: ExponentEstimate
    alpha_right: ExponentEstimate
    b_left: ExponentEstimate
    b_right: ExponentEstimate
    delta: float


def _slope(x: np.ndarray, y: np.ndarray, loglog: bool) -> ExponentEstimate:
    """Least-squares slope of y on x with its 95% t-interval.

    loglog fits log y against log x with an intercept; otherwise the line
    passes through the origin. Non-finite y (and, for loglog, y <= 0) are
    dropped, and fewer than 20 remaining points raise FitError.
    """
    from scipy.stats import t as student_t

    keep = np.isfinite(y) & (y > 0) if loglog else np.isfinite(y)
    x, y = x[keep], y[keep]
    if len(x) < 20:
        raise FitError("fewer than 20 usable points in the fit window")
    dof = len(x) - 2 if loglog else len(x) - 1
    if loglog:
        x, y = np.log(x), np.log(y)
    vx = x - x.mean() if loglog else x
    slope = float(np.sum(vx * y) / np.sum(vx * vx))
    intercept = float(y.mean() - slope * x.mean()) if loglog else 0.0
    resid = y - slope * x - intercept
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / float(np.sum(vx * vx)))
    half = float(student_t.ppf(0.975, dof)) * se
    return ExponentEstimate(slope, slope - half, slope + half,
                            float(np.sqrt(np.mean(resid ** 2))))


def fit_branch_exponents(m: IntervalMap, delta: float = 1e-3) -> BranchFit:
    """Estimate the four branch constants from map evaluations.

    The endpoint slopes come from regressions through the origin on
    [delta, 10 delta]; the cusp exponents from log-log regressions of
    1 - T against the distance to x0 on the same window. The window
    excludes the singular point itself.
    """
    if delta <= 0 or 10.0 * delta >= min(m.x0, 1.0 - m.x0):
        raise DomainError("fit window must fit inside both branches")
    s = np.geomspace(delta, 10.0 * delta, _FIT_POINTS)
    alpha_left = _slope(s, m(s), loglog=False)
    alpha_right = _slope(s, m(1.0 - s), loglog=False)
    b_left = _slope(s, 1.0 - m(m.x0 - s), loglog=True)
    b_right = _slope(s, 1.0 - m(m.x0 + s), loglog=True)
    return BranchFit(alpha_left=alpha_left, alpha_right=alpha_right,
                     b_left=b_left, b_right=b_right, delta=float(delta))


class ConjugationW:
    """Smooth change of coordinates with density n * exp(-g x) x^b (1-x)^b.

    W is the distribution function of that density, a strictly increasing
    bijection of [0,1]. The density vanishes at the endpoints when b > 0,
    which steepens a conjugated map near 0 and 1.
    """

    def __init__(self, gamma_bar: float, beta_bar: float, n_cells: int = 4096):
        if gamma_bar < 0 or beta_bar < 0:
            raise DomainError("gamma_bar and beta_bar must be non-negative")
        self.gamma_bar = float(gamma_bar)
        self.beta_bar = float(beta_bar)
        self._identity = gamma_bar == 0.0 and beta_bar == 0.0
        if self._identity:
            self.normalization = 1.0
            return
        nodes, weights = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, 1.0, n_cells + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = mid[:, None] + half[:, None] * nodes[None, :]
        cell = np.sum(weights[None, :] * self._raw_density(xs), axis=1) * half
        cum = np.concatenate([[0.0], np.cumsum(cell)])
        self.normalization = 1.0 / cum[-1]
        cum *= self.normalization
        cum[-1] = 1.0
        self._fwd = PchipInterpolator(edges, cum)
        self._inv = PchipInterpolator(cum, edges)

    def _raw_density(self, x):
        b = self.beta_bar
        return np.exp(-self.gamma_bar * x) * x ** b * (1.0 - x) ** b

    def density(self, x):
        """The derivative W' (analytic, normalized)."""
        arr, scalar = _as_domain(x)
        out = (np.full_like(arr, 1.0) if self._identity
               else self.normalization * self._raw_density(arr))
        return float(out[0]) if scalar else out

    def __call__(self, x):
        arr, scalar = _as_domain(x)
        out = arr.copy() if self._identity else np.clip(self._fwd(arr), 0.0, 1.0)
        out[arr == 0.0] = 0.0
        out[arr == 1.0] = 1.0
        return float(out[0]) if scalar else out

    def inverse(self, u):
        arr, scalar = _as_domain(u)
        out = arr.copy() if self._identity else np.clip(self._inv(arr), 0.0, 1.0)
        out[arr == 0.0] = 0.0
        out[arr == 1.0] = 1.0
        return float(out[0]) if scalar else out


class ConjugatedMap(IntervalMap):
    """W o T o W^-1: values W(T(W^-1(x))), derivative by the chain rule."""

    def __init__(self, base: IntervalMap, w: ConjugationW):
        self.base = base
        self.w = w
        self.x0 = float(w(base.x0))

    def _values(self, x: np.ndarray) -> np.ndarray:
        return self.w(self.base(self.w.inverse(x)))

    def _derivatives(self, x: np.ndarray) -> np.ndarray:
        u = self.w.inverse(x)
        tu = self.base(u)
        dens_u = self.w.density(u)
        if np.any(dens_u == 0.0):
            raise NumericalError("conjugation density vanishes inside (0,1)")
        return self.base.derivative(u) * self.w.density(tu) / dens_u

    def inf_abs_derivative(self, n_grid: int = 4096, edge: float = 1e-6) -> float:
        """Infimum of |derivative| over an endpoint-clustered grid."""
        k = np.arange(n_grid + 1)
        x = edge + (1.0 - 2.0 * edge) * 0.5 * (1.0 - np.cos(np.pi * k / n_grid))
        x = x[np.abs(x - self.x0) > 1e-9]
        return float(np.min(np.abs(self._derivatives(x))))


def find_expanding_conjugation(m: IntervalMap, gammas=None, betas=None,
                               n_grid: int = 2048):
    """Grid search for coordinates in which the map is uniformly expanding.

    Returns (w, inf|derivative|) for the best candidate; the caller decides
    whether inf > 1 is met.
    """
    if gammas is None:
        gammas = np.arange(0.5, 5.01, 0.25)
    if betas is None:
        betas = (0.0, 0.25, 0.5, 0.75, 1.0)
    best = None
    for b in betas:
        for g in gammas:
            w = ConjugationW(float(g), float(b))
            inf_d = ConjugatedMap(m, w).inf_abs_derivative(n_grid=n_grid)
            if best is None or inf_d > best[1]:
                best = (w, inf_d)
    return best


def make_perturbed_family(m: IntervalMap, eps: float) -> SyntheticCuspMap:
    """Shift-and-tilt deformation of a synthetic cusp map, at distance O(eps).

    The cusp moves left by eps/2, and the left branch steepens and the
    right flattens by a factor (1 +- eps/2), which keeps each deformed
    branch on one side of the original so the graphs meet only at 0 and
    1. eps = 0 reproduces the base map. Cusp exponents and amplitudes are
    kept.
    """
    if not isinstance(m, SyntheticCuspMap):
        raise DomainError("perturbed families are defined for synthetic maps")
    if eps < 0 or not math.isfinite(eps):
        raise DomainError("eps must be a finite non-negative real")
    rate = _DEFORMATION_RATE * eps
    x0 = m.x0 - rate
    if not 0.02 < x0 < 0.98:
        raise ConstructionError("cusp shift leaves the admissible range")
    return SyntheticCuspMap(x0=x0, alpha_left=m.alpha_left * (1.0 + rate),
                            alpha_right=m.alpha_right * (1.0 - rate),
                            b_left=m.b_left, b_right=m.b_right,
                            amp_left=m.amp_left, amp_right=m.amp_right)


@dataclass(frozen=True)
class CheckResult:
    """One audited condition: its measured value and whether it passed."""

    passed: bool
    value: float


@dataclass(frozen=True)
class AuditReport:
    """The six audited conditions of one perturbation, keyed by name."""

    checks: dict[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _interior_sign_changes(f: np.ndarray, tol: float = 1e-12) -> int:
    s = np.where(np.abs(f) <= tol, 0.0, np.sign(f))
    s = s[s != 0.0]
    if len(s) < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))


def cylinder_anatomy(m: IntervalMap) -> dict:
    """Landmark preimages of the inducing construction around the cusp.

    a_left0 / a_right0 are the branch preimages of x0; b_right1 the second
    right-branch preimage; the interval (b_right1, a_right0) is where the
    expansion floor of the perturbation audit is evaluated.
    """
    a_left0 = m.inverse_left(m.x0)
    a_right0 = m.inverse_right(m.x0)
    b_right1 = m.inverse_right(a_right0)
    return {"a_left0": float(a_left0), "a_right0": float(a_right0),
            "b_right1": float(b_right1)}


def audit_assumptions(base: IntervalMap, pert: IntervalMap, eps: float,
                      n_grid: int = 4096) -> AuditReport:
    """Audit of the perturbation-family conditions; a failed one is reported.

    stat-stability fails its assumption-audits check unless every rung's
    report has all_passed. Measures uniform closeness, derivative
    closeness away from the cusp, the expansion floor past the cusp,
    horizontal closeness of inverse branches, vertical closeness of
    derivatives outside a shrinking exclusion ball, and branch
    non-crossing. Thresholds for the closeness checks scale with the
    Hoelder envelope of the branch exponents, since a cusp shift of size
    O(eps) moves values by O(eps^B) near the cusp.
    """
    eps_eff = max(eps, 1e-12)
    b_min = 1.0
    for mm in (base, pert):
        if isinstance(mm, SyntheticCuspMap):
            b_min = min(b_min, mm.b_left, mm.b_right)
    grid = np.linspace(1e-6, 1.0 - 1e-6, n_grid)
    checks: dict[str, CheckResult] = {}

    c0 = float(np.max(np.abs(base(grid) - pert(grid))))
    thr = 3.0 * eps_eff ** b_min
    checks["uniform_closeness"] = CheckResult(c0 <= thr, c0)

    ball = 0.05
    off = grid[(np.abs(grid - base.x0) > ball) & (np.abs(grid - pert.x0) > ball)]
    dclose = float(np.max(np.abs(base.derivative(off) - pert.derivative(off))))
    thr = 30.0 * eps_eff ** b_min
    checks["derivative_closeness_off_cusp"] = CheckResult(dclose <= thr,
                                                          dclose)

    anatomy = cylinder_anatomy(pert)
    lo, hi = anatomy["b_right1"], anatomy["a_right0"]
    seg = np.linspace(lo + 1e-9, hi - 1e-9, 2048)
    floor = float(np.min(np.abs(pert.derivative(seg))))
    checks["expansion_floor"] = CheckResult(floor > 1.0, floor)

    ygrid = np.linspace(0.01, 0.99, 99)
    horiz = 0.0
    for inv in ("inverse_left", "inverse_right"):
        pb = getattr(base, inv)(ygrid)
        pp = getattr(pert, inv)(ygrid)
        horiz = max(horiz, float(np.max(np.abs(pb - pp))))
    thr = 5.0 * eps_eff
    checks["horizontal_closeness"] = CheckResult(horiz <= thr, horiz)

    radius = max(math.sqrt(eps_eff), 2.0 * abs(base.x0 - pert.x0), 1e-3)
    far = grid[(np.abs(grid - base.x0) > radius)
               & (np.abs(grid - pert.x0) > radius)]
    vert = float(np.max(np.abs(base.derivative(far) - pert.derivative(far))))
    thr = 10.0 * eps_eff ** (b_min / 2.0)
    checks["vertical_closeness_outside_ball"] = CheckResult(vert <= thr, vert)

    xl = np.linspace(1e-4, min(base.x0, pert.x0) - 1e-4, n_grid // 2)
    xr = np.linspace(max(base.x0, pert.x0) + 1e-4, 1.0 - 1e-4, n_grid // 2)
    crossings = (_interior_sign_changes(base(xl) - pert(xl))
                 + _interior_sign_changes(base(xr) - pert(xr)))
    checks["branch_non_crossing"] = CheckResult(crossings == 0,
                                                float(crossings))
    return AuditReport(checks=checks)
