"""Flow with randomly resampled forcing, its ergodic averages, and checks.

The process follows the forced Lorenz field with a fixed amplitude until
the trajectory crosses the section, draws a fresh amplitude there, and
continues. On top of the simulator sit two independent estimators of the
stationary functional (time average along the trajectory and the
sojourn-weighted ratio over the embedded chain), a Simpson sum of the
lifted measure that checks the ratio's trapezoid rule, the drift
inequality audit for the Casimir Lyapunov function, and a consistency
check between flowing in the suspension picture and flowing in phase
space. The estimators take (f, trace, t_final or burn_in), f mapping
(k, 3) states to (k,) values; any other shape raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import absorption_constant, absorption_rate, as_state, \
    casimir, integrate
from .errors import DomainError
from .noise import NoiseLaw
from .section import (
    MarkovRenewalTrace,
    SectionSpec,
    next_crossing,
    on_section,
    sample_chain,
)

_DEFAULT_BURN_IN = 1000
_MIN_USED = 1000  # post-burn-in transitions the estimators need
_N_BATCHES = 20  # batch means behind both estimators' standard errors
_DRIFT_SLACK = 1e-9  # relative slack of the drift inequalities
_CONJUGATION_THRESHOLD = 1e-7  # largest discrepancy the conjugation passes
_MAX_MIN_CROSSINGS = 32  # conjugation probes stay inside the look-ahead
_MAX_DRAWS_PER_PROBE = 100  # conjugation draws allowed per requested probe
_MIN_PROBES = 100  # fewest conjugation probes the check accepts


def _observe(f, ys: np.ndarray) -> np.ndarray:
    """Values of an observable f, which maps (k, 3) states to (k,) values."""
    out = np.asarray(f(ys), dtype=float)
    if out.shape != (len(ys),):
        raise DomainError(f"an observable must map (k, 3) states to (k,) "
                          f"values, got shape {out.shape}")
    return out


def _trapezoid_terms(f, t: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trapezoid terms of f between consecutive samples of one flat grid."""
    fv = _observe(f, ys)
    return np.diff(t) * (fv[1:] + fv[:-1]) * 0.5


def _sojourn_integrals(f, trace: MarkovRenewalTrace, start: int) -> np.ndarray:
    """Trapezoid integral of f along each stored sojourn from start on."""
    off = trace.sojourn_offsets[start:]
    terms = _trapezoid_terms(f, trace.flow_t[off[0]:], trace.flow_y[off[0]:])
    off = off - off[0]
    terms[off[1:-1] - 1] = 0.0  # from the end of one sojourn to the next
    return np.add.reduceat(terms, off[:-1])


def _simpson_weights(t: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on uniform pieces t[off[p]:off[p + 1]].

    A piece with an odd number n of intervals takes the 3/8 rule on its
    last three, and a piece of one interval the trapezoid rule.
    """
    n = np.diff(off) - 1
    nn = np.repeat(n, n + 1)
    j = np.arange(len(t)) - np.repeat(off[:-1], n + 1)  # index in its piece
    m = nn - 3 * (nn % 2)  # intervals under the plain Simpson panels
    c = np.where(j % 2 == 1, 4.0, 2.0) / 3.0
    c[(j == 0) | (j == m)] = 1.0 / 3.0
    c[(j > m) | (m < 2)] = 0.0
    tail = (nn % 2 == 1) & (nn >= 3) & (j >= nn - 3)
    c[tail] += np.array([3.0, 9.0, 9.0, 3.0])[j[tail] - nn[tail] + 3] / 8.0
    c[nn == 1] = 0.5
    h = (t[off[1:] - 1] - t[off[:-1]]) / n
    return c * np.repeat(h, n + 1)


@dataclass(frozen=True)
class Estimate:
    """A stationary average and its batch-means standard error."""

    value: float
    se: float


def _batch_se(batch_values: np.ndarray) -> float:
    """Standard error of a mean from the means of its _N_BATCHES batches."""
    return float(np.std(batch_values, ddof=1)) / math.sqrt(_N_BATCHES)


def _n_used(trace: MarkovRenewalTrace, burn_in: int,
            least: int = _MIN_USED) -> int:
    """The estimators' one trace check: stored segments, and at least
    `least` transitions after a burn_in >= 0, whose count it returns."""
    if burn_in < 0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    n_used = len(trace) - burn_in
    if trace.flow_t is None or n_used < least:
        raise DomainError(
            f"stationary estimators need stored segments and at least "
            f"{least} transitions after burn-in, got {n_used}")
    return n_used


def time_average(f, trace: MarkovRenewalTrace, t_final: float) -> Estimate:
    """Trapezoidal time average of f along the stored flow up to t_final.

    The flow is the trace's flow_y at its flow_times, and the standard
    error comes from batch means over equal spans of time.
    """
    _n_used(trace, 0, least=1)
    if not 0.0 < t_final <= trace.sigma[-1] + trace.tau[-1] + 1e-12:
        raise DomainError("t_final must lie within the simulated horizon")
    ts = trace.flow_times
    cum = np.concatenate(
        [[0.0], np.cumsum(_trapezoid_terms(f, ts, trace.flow_y))])
    bounds = np.linspace(0.0, t_final, _N_BATCHES + 1)
    cum_at = np.interp(bounds, ts, cum)
    return Estimate(value=float(cum_at[-1]) / t_final,
                    se=_batch_se(np.diff(cum_at) / np.diff(bounds)))


def ratio_formula_estimate(f, trace: MarkovRenewalTrace,
                           burn_in: int = _DEFAULT_BURN_IN) -> Estimate:
    """Sojourn-weighted chain estimator of the stationary functional.

    Numerator: mean over transitions of the trapezoid integral of f along
    the sojourn. Denominator: mean of the sojourn lengths, taken as the
    same quadrature of f = 1 (the roof), so f = 1 gives exactly 1 with a
    zero standard error. The standard error comes from batch means of the
    per-batch ratios. f maps (k, 3) states to (k,) values.
    """
    n_used = _n_used(trace, burn_in)
    ints = _sojourn_integrals(f, trace, burn_in)
    roofs = _sojourn_integrals(lambda y: np.ones(len(y)), trace, burn_in)
    cuts = np.linspace(0, n_used, _N_BATCHES + 1).astype(int)
    ratios = np.array([np.mean(ints[a:b]) / np.mean(roofs[a:b])
                       for a, b in zip(cuts[:-1], cuts[1:])])
    return Estimate(value=float(np.mean(ints)) / float(np.mean(roofs)),
                    se=_batch_se(ratios))


def lifted_measure_probe(f, trace: MarkovRenewalTrace,
                         burn_in: int = _DEFAULT_BURN_IN) -> float:
    """Stationary functional through the suspension picture.

    The lifted invariant measure normalizes the under-roof integral of f
    by the integrated roof function. Both are composite Simpson sums over
    the stored sojourns, the roof as the same rule applied to f = 1, so
    f = 1 gives exactly 1. Against ratio_formula_estimate's trapezoid
    rule on the same grid, the gap measures quadrature error. f maps
    (k, 3) states to (k,) values.
    """
    _n_used(trace, burn_in)
    off = trace.sojourn_offsets[burn_in:]
    w = _simpson_weights(trace.flow_t[off[0]:off[-1]], off - off[0])
    fv = _observe(f, trace.flow_y[off[0]:off[-1]])
    return float(np.sum(w * fv) / np.sum(w))


@dataclass(frozen=True)
class DriftReport:
    """Per-transition audit of the Casimir drift inequalities."""

    m: float
    inf_tau: float
    a_eps: float
    k_eps: float
    k_bar: float
    n_transitions: int
    violations_strong: int
    violations_weak: int
    empirical_floor: bool
    caveat: str


def drift_check(trace: MarkovRenewalTrace) -> DriftReport:
    """Check the one-step drift of the Casimir at every transition, with the
    constants of the law the trace was sampled under.

    Strong form: C(x_{n+1}) <= a C(x_n) + K (1 + a). Weak form:
    (1 + C)(x_{n+1}) <= a (1 + C)(x_n) + K_bar with
    K_bar = (1 - a) + K (1 + a). The contraction factor a uses the
    empirical minimum sojourn minus one integrator tolerance; the true
    infimum over the state space is unknown, which the report flags.
    """
    fld = trace.section.field
    m = absorption_rate(fld)
    inf_tau = float(np.min(trace.tau))
    a_eps = math.exp(-m * max(inf_tau - trace.section.tol, 0.0))
    # absorption_constant is convex in eta: its largest value over the law
    # is at an end of the support
    k_eps = max(absorption_constant(fld, eta) for eta in trace.law.support)
    k_bar = (1.0 - a_eps) + k_eps * (1.0 + a_eps)

    c_cur = trace.casimir
    c_next = np.append(trace.casimir[1:], casimir(trace.x_end))
    tol_abs = _DRIFT_SLACK * (1.0 + c_cur)
    strong = c_next > a_eps * c_cur + k_eps * (1.0 + a_eps) + tol_abs
    weak = (1.0 + c_next) > a_eps * (1.0 + c_cur) + k_bar + tol_abs
    return DriftReport(
        m=m, inf_tau=inf_tau, a_eps=a_eps, k_eps=k_eps, k_bar=k_bar,
        n_transitions=len(trace),
        violations_strong=int(np.sum(strong)),
        violations_weak=int(np.sum(weak)),
        empirical_floor=True,
        caveat="a_eps uses the empirical minimum sojourn of this trace; "
               "the infimum over the full state space is not certified")


@dataclass(frozen=True)
class ConjugationReport:
    """Agreement of suspension-reduced and directly flowed trajectories."""

    max_discrepancy: float
    n_probes: int
    n_skipped: int
    n_multi_crossing: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.threshold


def suspension_conjugation_check(law: NoiseLaw, section: SectionSpec, x,
                                 seed: int, probes: int = 100,
                                 min_crossings: int = 0
                                 ) -> ConjugationReport:
    """Probe the commutation of time shift and projection to phase space.

    A probe picks a chain index k, an age s inside sojourn k, and a span
    t. Path one reduces (x_k, shifted stream, s + t) in the suspension:
    subtract whole roofs, advancing the chain index, then flow the
    remainder from the landed chain point. Path two projects first
    (flow x_k for time s under eta_k) and then flows the span t through
    the crossings directly. Both sides consume the same amplitude
    stream, with the shift realized as an index offset. Probes that would
    consume a tangency-flagged crossing are skipped and counted; with
    min_crossings > 0 only probes spanning at least that many crossings
    are kept; probes start in the first 48 of 112 transitions, so at most
    32 crossings leave them room inside the 64-transition look-ahead.
    x is a state on the section. Raises DomainError when
    _MAX_DRAWS_PER_PROBE * probes draws yield fewer than probes kept
    probes (every crossing tangent, for instance).

    Both paths run at a refined integrator tolerance, at most 1e-13,
    regardless of the ambient section settings: global integration error
    is amplified by the flow's sensitivity over multi-crossing spans, so
    the comparison needs more accuracy than routine chain sampling.
    """
    if probes < _MIN_PROBES:
        raise DomainError(f"need at least {_MIN_PROBES} probes")
    if not 0 <= min_crossings <= _MAX_MIN_CROSSINGS:
        raise DomainError(
            f"min_crossings must lie in [0, {_MAX_MIN_CROSSINGS}]")
    y_x = as_state(x)
    if not on_section(section, y_x):
        raise DomainError("base point must lie on the section")

    section = replace(section, tol=min(section.tol, 1e-13))
    n_base = 48
    n_chain = n_base + 64
    trace = sample_chain(law, section, y_x, n=n_chain, seed=seed)
    mean_tau = float(np.mean(trace.tau))
    rng = np.random.default_rng(seed + 1)
    t_lo = min_crossings * mean_tau

    def flow(n: int, y: np.ndarray, dt: float) -> np.ndarray:
        fld = section.field.with_eta(float(trace.eta[n]))
        return integrate(fld, y, dt, tol=section.tol).y[-1] if dt > 0.0 \
            else y.copy()

    worst = 0.0
    n_skipped = 0
    n_multi = 0
    done = 0
    draws = 0
    while done < probes:
        if draws == _MAX_DRAWS_PER_PROBE * probes:
            raise DomainError(
                f"conjugation check kept {done} of {probes} probes after "
                f"{draws} draws")
        draws += 1
        k = int(rng.integers(0, n_base))
        s = float(rng.uniform(0.0, trace.tau[k]))
        t = float(rng.uniform(t_lo, t_lo + 3.0 * mean_tau))

        # suspension side: reduce s + t modulo the roofs
        total = s + t
        j = k
        tangent_hit = False
        while j < len(trace.tau) - 1 and total >= trace.tau[j]:
            total -= trace.tau[j]
            tangent_hit = tangent_hit or bool(trace.tangent[j])
            j += 1
        if total >= trace.tau[j] or j - k < min_crossings:
            continue
        if tangent_hit:
            n_skipped += 1
            continue
        y_a = flow(j, trace.x[j], total)

        # direct side: project to phase space, then flow the span
        y_cur = flow(k, trace.x[k], s)
        remaining = t
        idx = k
        crossings = 0
        while True:
            ev = next_crossing(section, y_cur, float(trace.eta[idx]))
            if ev.t > remaining:
                y_cur = flow(idx, y_cur, remaining)
                break
            if ev.tangent:
                tangent_hit = True
                break
            remaining -= ev.t
            y_cur = ev.y
            idx += 1
            crossings += 1
        if tangent_hit:
            n_skipped += 1
            continue

        worst = max(worst, float(np.max(np.abs(y_a - y_cur))))
        n_multi += crossings >= 2
        done += 1

    return ConjugationReport(max_discrepancy=worst, n_probes=probes,
                             n_skipped=n_skipped, n_multi_crossing=n_multi,
                             threshold=_CONJUGATION_THRESHOLD)
