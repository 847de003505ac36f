"""The Lorenz'63 field in the shifted frame, integration, and the Casimir bound.

The field lives in one frame, the shifted one, y = (x1, x2, x3 - (gamma+zeta))
in terms of the textbook coordinates x:

    dy1 = zeta (y2 - y1)
    dy2 = -y1 y3 - zeta y1 - y2
    dy3 = y1 y2 - beta y3 - beta (gamma+zeta)

Random forcing is modelled as an additive term eta * H with H = e3, parallel
to the constant forcing H0 = (0, 0, -beta (zeta+gamma)) of dy3. The Casimir
C(y) = |y|^2 obeys

    dC/dt = -2 (zeta y1^2 + y2^2 + beta y3^2) + 2 <H_eta, y>,

with H_eta = eta H + H0 = (0, 0, eta - beta (zeta+gamma)), which yields the
exponential absorption estimate, with m = min(1, zeta, beta),

    C(t) <= C(0) e^{-mt} + K (1 + e^{-mt}),   K = |H_eta|^2 / m^2,

checked over random starts, horizons and amplitudes by `lyapunov_sweep`.

Every solve goes through `_dop853.solve`, the in-repo DOP853 with one
loop and one error path, which calls `FieldSpec._terms(y1, y2, y3)`, the
one field formula. One state (`integrate`, and every crossing search in
`section`) passes Python floats; the sweep's stacked lanes pass each
component of every lane as an array, with an array eta forcing each lane
at its own amplitude. Every dot product of the solver stays in numpy,
where BLAS contracts it to fused multiply-adds that a Python sum does not
reproduce, so both forms of state give scipy's DOP853 bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _dop853
from .errors import DomainError
from .manifest import write_csv

CLASSICAL_ZETA = 10.0
CLASSICAL_GAMMA = 28.0
CLASSICAL_BETA = 8.0 / 3.0

_SWEEP_CHUNK = 500  # samples stacked into one ODE by lyapunov_sweep
_SWEEP_RADIUS = 50.0  # radius of the ball of sweep starts
_SWEEP_T_MAX = 10.0  # longest sweep horizon
_SWEEP_ETA_MAX = 1.0  # largest sweep forcing amplitude
_TOL = 1e-10  # default rtol = atol of integrate and of the sweep


def as_state(y) -> np.ndarray:
    """Validate and return a phase point as a float array of shape (3,)."""
    arr = np.asarray(y, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"state must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("state coordinates must be finite")
    return arr


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the (possibly forced) Lorenz field in the shifted frame.

    The forced field is velocity_0(y) + eta e3: the amplitude eta adds to
    dy3 (module docstring). Defaults are the classical parameters with zero
    forcing amplitude.
    """

    zeta: float = CLASSICAL_ZETA
    gamma: float = CLASSICAL_GAMMA
    beta: float = CLASSICAL_BETA
    eta: float = 0.0

    def __post_init__(self):
        for name in ("zeta", "gamma", "beta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(self.eta):
            raise DomainError("eta must be finite")
        # The constant coefficients of dy2 and dy3 (module docstring).
        object.__setattr__(self, "_c2", -self.zeta)
        object.__setattr__(self, "_c3", -(self.beta * self.shift))

    @property
    def shift(self) -> float:
        """Vertical offset gamma + zeta of the shifted frame."""
        return self.gamma + self.zeta

    def _terms(self, y1, y2, y3, eta=None):
        """The velocity's three components at (y1, y2, y3), forced at eta
        (self.eta by default): Python floats for one state, or arrays for
        stacked lanes, where an array eta forces each lane at its own
        amplitude; the solver calls it in both forms."""
        z, b = self.zeta, self.beta
        return (z * (y2 - y1), -y1 * y3 + self._c2 * y1 - y2,
                y1 * y2 - b * y3 + self._c3
                + (self.eta if eta is None else eta))

    def velocity(self, y) -> np.ndarray:
        # Python floats round exactly like numpy scalars and cost less.
        return np.array(self._terms(*np.asarray(y).tolist()))

    def jacobian_times(self, ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """J(y) v for stacks of states and vectors of shape (..., 3).

        The field is quadratic, so this is one array expression; with vs
        the stacked velocities of ys, it is the acceleration along the flow.
        """
        y1, y2, y3 = ys[..., 0], ys[..., 1], ys[..., 2]
        v1, v2, v3 = vs[..., 0], vs[..., 1], vs[..., 2]
        return np.stack((self.zeta * (v2 - v1),
                         -v1 * y3 - y1 * v3 + self._c2 * v1 - v2,
                         v1 * y2 + y1 * v2 - self.beta * v3), axis=-1)

    def with_eta(self, eta: float) -> "FieldSpec":
        return replace(self, eta=float(eta))


def casimir(y) -> float:
    """Squared Euclidean norm of the state."""
    y = np.asarray(y, dtype=float)
    return float(np.dot(y, y))


@dataclass
class Trajectory:
    """Integration output: sample times and states."""

    t: np.ndarray
    y: np.ndarray

    def casimir_series(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.y, self.y)

    def write_csv(self, path) -> None:
        """Write t, y1, y2, y3, C rows with 17 significant digits."""
        write_csv(path, "t,y1,y2,y3,casimir",
                  np.column_stack([self.t, self.y, self.casimir_series()]))


def integrate(field, y0, t_end: float, tol: float = _TOL,
              t_eval=None) -> Trajectory:
    """Integrate dy/dt = field.velocity(y) from t = 0 to t_end.

    Uses the order-8 embedded RK pair with rtol = atol = tol and returns
    the states at t_eval, or at every accepted step when t_eval is None.
    The solver reads the field through field._terms(y1, y2, y3).
    """
    y0 = as_state(y0)
    if not 0.0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or not np.all(np.diff(t_eval) > 0.0) \
                or not np.all((0.0 <= t_eval) & (t_eval <= t_end)):
            raise DomainError("t_eval must increase within [0, t_end]")
    t, y = _dop853.solve(field._terms, y0, float(t_end), tol, "integrate",
                         t_eval=t_eval)
    return Trajectory(t=t, y=y)


def absorption_rate(field: FieldSpec) -> float:
    """Decay constant m = min(1, zeta, beta) of the Casimir estimate."""
    return min(1.0, field.zeta, field.beta)


def absorption_constant(field: FieldSpec, eta):
    """K = |H_eta|^2 / m^2 = (eta - beta (zeta+gamma))^2 / m^2 of the
    absorption estimate, at an amplitude or an array of them."""
    d = eta - field.beta * field.shift
    return d * d / absorption_rate(field) ** 2


@dataclass
class SweepReport:
    n_samples: int
    violations: int
    min_margin: float
    elapsed_s: float
    worst: dict


def lyapunov_sweep(n_samples: int, field: FieldSpec | None = None,
                   seed: int = 0) -> SweepReport:
    """Monte Carlo check of the absorption estimate over random (y0, t, eta).

    Checks C(flow_t(y0)) <= C(y0) e^{-mt} + K (1 + e^{-mt}), K =
    absorption_constant(field, eta),
    with y0 uniform in the ball of radius 50, t uniform in [0, 10] and eta
    uniform in [-1, 1]. Each _SWEEP_CHUNK samples are integrated as one
    stacked ODE, solved once and read at the chunk's sorted horizons, where
    each sample keeps only its own state at its own horizon. The estimate's
    slack dwarfs the shared step-control error of the stacking.
    """
    base = field if field is not None else FieldSpec()
    m = absorption_rate(base)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    violations = 0
    min_margin = math.inf
    worst: dict = {}
    done = 0
    while done < n_samples:
        n = min(_SWEEP_CHUNK, n_samples - done)
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        y0 = direction * (_SWEEP_RADIUS * rng.random(n) ** (1.0 / 3.0))[:, None]
        ts = _SWEEP_T_MAX * rng.random(n)
        etas = _SWEEP_ETA_MAX * (2.0 * rng.random(n) - 1.0)

        # each sample's three components at its own horizon, in time order;
        # y0 of shape (n, 3) solves stacked lanes, even at n = 1
        order = np.argsort(ts)
        _, y = _dop853.solve(partial(base._terms, eta=etas), y0,
                             _SWEEP_T_MAX, _TOL, "lyapunov_sweep",
                             t_eval=ts[order],
                             pick=3 * order[:, None] + np.arange(3))
        yt = np.empty_like(y)
        yt[order] = y
        lhs = np.einsum("ij,ij->i", yt, yt)
        decay = np.exp(-m * ts)
        rhs_val = np.einsum("ij,ij->i", y0, y0) * decay \
            + absorption_constant(base, etas) * (1.0 + decay)
        margin = rhs_val - lhs
        violations += int(np.count_nonzero(lhs > rhs_val * (1.0 + 1e-9) + 1e-9))
        i = int(np.argmin(margin))
        if margin[i] < min_margin:
            min_margin = float(margin[i])
            worst = {"y0": y0[i].tolist(), "t": float(ts[i]),
                     "eta": float(etas[i]), "lhs": float(lhs[i]),
                     "rhs": float(rhs_val[i])}
        done += n
    return SweepReport(n_samples=n_samples, violations=violations,
                       min_margin=float(min_margin),
                       elapsed_s=time.perf_counter() - start, worst=worst)
