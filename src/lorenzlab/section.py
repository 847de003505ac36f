"""Poincare section at the Casimir maxima of the unforced flow.

The surface is the zero set of g(y) = d/dt C = 2 <v0(y), y> computed with
the unforced field v0, restricted to the box

    M_eps = { |y1| <= eps, |y2| <= eps, -(gamma+zeta) <= y3 <= eps-(gamma+zeta) },

together with the max-type condition that g decreases through zero. The
surface is the same for every forcing amplitude; forced trajectories cross
it transversally, which keeps the embedded chain on one fixed section.
Crossings are located by the integrator's event search (a downward sign
change over a step, then a root on the step's interpolant) and accepted
only inside the box; the flow continues through maxima outside it. A
stored flow segment is resampled from the solver's accepted steps, so
keeping segments does not change the steps the solver takes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import FieldSpec, _solve, as_state, casimir
from .errors import DomainError, HorizonExceeded, TangencyWarning
from .noise import NoiseLaw

_GUARD_TIME = 1e-6  # nudge used to leave the surface before event detection
_GRID_STEP = 0.01  # sampling step of stored flow segments
_ON_SECTION_ATOL = 1e-6  # |g| accepted by on_section
_SETTLE_TIME = 30.0  # transient cut by settle_on_attractor
_SETTLE_TOL = 1e-9  # and its integrator tolerance


@dataclass(frozen=True)
class SectionSpec:
    """Section geometry bound to a base field.

    field: base vector field (its eta is ignored; sojourn forcing is chosen
    per operation). eps_box: half-width of the membership box; the default
    25 used throughout is checked against attractor crossings by the
    calibration oracle in tests/test_section.py. t_max: horizon for a
    single crossing search. tol: integrator tolerance.
    tangency_tol: |dg/dt| below this flags a grazing event. The class
    constant root_tol bounds the residual |g| that the tests and the
    benchmark checks hold crossings to; the search does not read it.
    """

    root_tol = 1e-9

    field: FieldSpec
    eps_box: float
    t_max: float = 100.0
    tol: float = 1e-10
    tangency_tol: float = 1e-6

    def __post_init__(self):
        if not (self.eps_box > 0 and math.isfinite(self.eps_box)):
            raise DomainError("eps_box must be positive and finite")
        if self.t_max <= 0:
            raise DomainError("t_max must be positive")

    def contains(self, y) -> bool:
        """Membership in the box M_eps."""
        e, shift = self.eps_box, self.field.shift
        return bool(abs(y[0]) <= e and abs(y[1]) <= e
                    and -shift <= y[2] <= e - shift)


@dataclass
class SectionEvent:
    """A crossing: its time since the query, its state on the surface, and
    whether dg/dt along the active flow fails to be clearly negative there
    (a grazing crossing).
    """

    t: float
    y: np.ndarray
    tangent: bool


@dataclass(frozen=True)
class FlowSegment:
    """Sampled flow between consecutive crossings (relative times, t[0] = 0)."""

    t: np.ndarray
    y: np.ndarray
    eta: float


def _g(fld: FieldSpec, y, v) -> float:
    """g = 2 <v0(y), y>, written as 2 (<v, y> - eta <h, y>) from v = fld(y).

    The crossing search refines its roots on exactly this arithmetic.
    """
    return 2.0 * (float(np.dot(v, y)) - fld.eta * float(np.dot(fld.h, y)))


def surface_derivatives(fld: FieldSpec, y) -> tuple[float, float]:
    """Surface function g (unforced Casimir slope) and dg/dt along fld."""
    y = as_state(y)
    v = fld.velocity(y)
    v0 = v - fld.eta * fld.h
    gdot = 2.0 * float(np.dot(fld.jacobian_times(y, v), y) + np.dot(v0, v))
    return _g(fld, y, v), gdot


def on_section(section: SectionSpec, y) -> bool:
    """True when y lies on M: |g| <= 1e-6, max-type, inside the box."""
    y = as_state(y)
    g, gdot = surface_derivatives(section.field.with_eta(0.0), y)
    return abs(g) <= _ON_SECTION_ATOL and gdot <= section.tangency_tol \
        and section.contains(y)


def _search(section: SectionSpec, y0, eta: float, want_segment: bool,
            guard_first: bool):
    """First in-box downward crossing of g = 0 along the flow forced at eta.

    guard_first steps off the surface before watching g; it is required
    when y0 already satisfies g = 0 (a fresh transition), because the
    crossing search would otherwise re-report the start point.
    """
    fld = section.field.with_eta(eta)
    y = as_state(y0)
    nodes = []  # (times since the query, states) of each window's steps
    t_accum = 0.0

    def event(y_in) -> float:
        return _g(fld, y_in, fld.velocity(y_in))

    def keep(t: np.ndarray, ys: np.ndarray) -> None:
        if want_segment:
            nodes.append((t_accum + t, ys))

    def guard(y_in: np.ndarray) -> np.ndarray:
        nonlocal t_accum
        t, ys = _solve(fld.velocity, y_in, _GUARD_TIME, section.tol,
                       "guard step failed")
        keep(t, ys)
        t_accum += _GUARD_TIME
        return ys[-1]

    if guard_first:
        y = guard(y)
    while True:
        remaining = section.t_max - t_accum
        found = None if remaining <= 0 else _solve(
            fld.velocity, y, remaining, section.tol, "crossing search failed",
            event=event)
        if found is None:
            raise HorizonExceeded(
                f"no section crossing within t_max = {section.t_max}")
        t, ys = found
        y_ev = ys[-1].copy()
        keep(t, ys)  # the last node is the crossing
        t_accum += float(t[-1])
        if section.contains(y_ev):
            _, gdot = surface_derivatives(fld, y_ev)
            tangent = bool(abs(gdot) <= section.tangency_tol or gdot > 0)
            if tangent:
                warnings.warn("near-tangential section crossing "
                              f"(dg/dt = {gdot:.3e})", TangencyWarning,
                              stacklevel=2)
            segment = (_sample_segment(fld, nodes, t_accum, y0, y_ev)
                       if want_segment else None)
            return SectionEvent(t=t_accum, y=y_ev, tangent=tangent), segment
        # Surface crossing outside the box: not an event, flow onward.
        y = guard(y_ev)


def _sample_segment(fld: FieldSpec, nodes: list, tau: float, y_start,
                    y_end) -> tuple[np.ndarray, np.ndarray]:
    """Resample the solver's accepted steps on a uniform grid over [0, tau].

    nodes holds each solve window's step times (since the query) and
    states; window joins repeat a node and are dropped. Between two nodes
    the flow is the quintic Hermite interpolant of the states, velocities
    and accelerations J(y) v at both ends (Hairer, Norsett & Wanner,
    Solving ODEs I, II.6), evaluated for the whole grid in one pass. The
    grid is linspace(0, tau, n + 1) with n = ceil(tau / 0.01), and its end
    points are pinned to the start and the crossing.
    """
    t = np.concatenate([w[0] for w in nodes])
    y = np.concatenate([w[1] for w in nodes])
    step = np.append(np.diff(t) > 0.0, True)
    t, y = t[step], y[step]
    v = fld.velocity_batch(y)
    a = fld.jacobian_times(y, v)
    n = max(1, int(math.ceil(tau / _GRID_STEP)))
    ts = np.linspace(0.0, tau, n + 1)
    i = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, len(t) - 2)
    j = i + 1
    h = (t[j] - t[i])[:, None]
    s = (ts - t[i])[:, None] / h
    s3 = s ** 3
    ys = (y[i] + s3 * (10.0 - 15.0 * s + 6.0 * s * s) * (y[j] - y[i])
          + h * ((s - s3 * (6.0 - 8.0 * s + 3.0 * s * s)) * v[i]
                 - s3 * (4.0 - 7.0 * s + 3.0 * s * s) * v[j])
          + 0.5 * h * h * (s * s * (1.0 - s) ** 3 * a[i]
                           + s3 * (1.0 - s) ** 2 * a[j]))
    ys[0] = as_state(y_start)
    ys[-1] = y_end
    return ts, ys


def next_crossing(section: SectionSpec, y, eta: float = 0.0) -> SectionEvent:
    """First crossing of M from y along the flow forced at amplitude eta.

    From a state on M (on_section) this is one step of the random return
    map R_eta: the search steps past the trivial self-hit, so t is the
    return time and strictly positive. From any other state it is the
    hitting event of M. Raises HorizonExceeded when no crossing occurs
    within section.t_max, which usually means y escaped the absorbing
    neighbourhood or the box is too small.
    """
    ev, _ = _search(section, y, eta, want_segment=False,
                    guard_first=on_section(section, y))
    return ev


@dataclass
class MarkovRenewalTrace:
    """Embedded chain (x_n, eta_n, tau_n, sigma_n) plus optional sampled flow.

    sigma_n is the absolute time of crossing n (sigma_0 > 0 when the run
    started off the section), tau_n the sojourn driven by eta_n, and
    x_{n+1} = flow_{eta_n}^{tau_n}(x_n) within integration tolerance.
    valid is False on traces cut short by a failed crossing search.
    A kept flow is stored once, flat: piece p has times since its start
    flow_t[o[p]:o[p + 1]] and states flow_y[o[p]:o[p + 1]], o = flow_offsets.
    Piece 0 is the approach (driven by approach_eta) when the run started
    off the section; the sojourns follow in order.
    """

    x: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray
    casimir: np.ndarray
    tangent: np.ndarray
    x_end: np.ndarray
    law: NoiseLaw
    seed: int
    section: SectionSpec
    valid: bool = True
    approach_eta: float | None = None
    flow_t: np.ndarray | None = None
    flow_y: np.ndarray | None = None
    flow_offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def sojourn_offsets(self) -> np.ndarray:
        """Offsets of the sojourn pieces: sojourn n spans [o[n], o[n + 1])."""
        return self.flow_offsets[int(self.approach_eta is not None):]

    def _views(self, off, etas) -> list[FlowSegment]:
        return [FlowSegment(self.flow_t[a:b], self.flow_y[a:b], float(eta))
                for a, b, eta in zip(off[:-1], off[1:], etas)]

    @property
    def segments(self) -> list[FlowSegment] | None:
        """Sampled flow of each sojourn: read-only views of the flat arrays."""
        return None if self.flow_t is None else \
            self._views(self.sojourn_offsets, self.eta)

    @property
    def approach(self) -> FlowSegment | None:
        """Sampled approach to the first crossing, as read-only views.

        None when the run started on the section or nothing was stored,
        including a partial trace whose approach search failed.
        """
        if self.flow_t is None or len(self.flow_offsets) < 2 \
                or self.approach_eta is None:
            return None
        return self._views(self.flow_offsets[:2], [self.approach_eta])[0]

    def write_jsonl(self, path) -> None:
        """One record per event: {n, t_abs, tau, eta, y, casimir}."""
        with Path(path).open("w") as fh:
            for n in range(len(self)):
                rec = {"n": n, "t_abs": self.sigma[n], "tau": self.tau[n],
                       "eta": self.eta[n],
                       "y": [float(v) for v in self.x[n]],
                       "casimir": self.casimir[n]}
                fh.write(json.dumps(rec) + "\n")


def sample_chain(law: NoiseLaw, section: SectionSpec, x0, n: int, seed: int,
                 keep_segments: bool = False) -> MarkovRenewalTrace:
    """Simulate n steps of the embedded Markov chain on the section.

    The amplitudes omega = (eta_0, ..., eta_n) are drawn at once as
    law.ppf(default_rng(seed).random(n + 1)). When the state x0 lies on M,
    sojourn k is driven by eta_k. Otherwise eta_0 drives the approach to
    the first crossing and sojourn k by eta_{k+1}, so every crossing is
    followed by exactly one fresh draw. The trace's casimir holds C(x_k),
    computed from the stored states. A failed crossing search re-raises
    HorizonExceeded with the partial trace (valid=False) attached.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    y0 = as_state(x0)
    omega = law.ppf(np.random.default_rng(seed).random(n + 1))
    etas = omega[:n]
    pieces = []  # sampled (t, y) of each piece, None unless kept
    approach_eta = None
    sigma0 = 0.0
    xs = np.empty((n, 3))
    taus = np.empty(n)
    cas = np.empty(n)
    tang = np.zeros(n, dtype=bool)

    def _trace(k: int, x_end, ok: bool) -> MarkovRenewalTrace:
        sigma = sigma0 + np.concatenate([[0.0], np.cumsum(taus[:k - 1])]) \
            if k else np.empty(0)
        flow = _flatten(pieces) if keep_segments else {}
        return MarkovRenewalTrace(
            x=xs[:k].copy(), eta=etas[:k].copy(), tau=taus[:k].copy(),
            sigma=sigma, casimir=cas[:k].copy(), tangent=tang[:k].copy(),
            x_end=np.array(x_end, dtype=float), law=law, seed=int(seed),
            section=section, valid=ok, approach_eta=approach_eta, **flow)

    def search(eta: float, y, k: int, guard_first: bool):
        try:
            return _search(section, y, eta, want_segment=keep_segments,
                           guard_first=guard_first)
        except HorizonExceeded as exc:
            exc.partial = _trace(k, y, ok=False)
            raise

    x_cur = y0
    if not on_section(section, y0):
        approach_eta = float(omega[0])
        ev, piece = search(approach_eta, y0, 0, guard_first=False)
        pieces.append(piece)
        sigma0 = ev.t
        x_cur = ev.y
        etas = omega[1:]

    for k in range(n):
        xs[k] = x_cur
        cas[k] = casimir(x_cur)
        ev, piece = search(float(etas[k]), x_cur, k, guard_first=True)
        taus[k] = ev.t
        tang[k] = ev.tangent
        pieces.append(piece)
        x_cur = ev.y
    return _trace(n, x_cur, ok=True)


def _flatten(pieces: list[tuple[np.ndarray, np.ndarray]]) -> dict:
    flow = {
        "flow_t": np.concatenate([np.empty(0)] + [t for t, _ in pieces]),
        "flow_y": np.concatenate([np.empty((0, 3))] + [y for _, y in pieces]),
        "flow_offsets": np.cumsum([0] + [len(t) for t, _ in pieces]),
    }
    for arr in flow.values():
        arr.setflags(write=False)
    return flow


def settle_on_attractor(fld: FieldSpec) -> np.ndarray:
    """A reproducible point on the attractor (fixed start, transient cut)."""
    y0 = np.array([1.0, 1.0, 1.0 - fld.shift])
    return _solve(fld.velocity, y0, _SETTLE_TIME, _SETTLE_TOL,
                  "settle_on_attractor")[1][-1]
