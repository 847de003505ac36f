"""The Lorenz'63 field in the shifted frame, integration, and the Casimir bound.

The field lives in one frame, the shifted one, y = (x1, x2, x3 - (gamma+zeta))
in terms of the textbook coordinates x:

    dy1 = zeta (y2 - y1)
    dy2 = -y1 y3 - zeta y1 - y2
    dy3 = y1 y2 - beta y3 - beta (gamma+zeta)

Random forcing is modelled as an additive term eta * H with H a unit vector.
The Casimir C(y) = |y|^2 obeys

    dC/dt = -2 (zeta y1^2 + y2^2 + beta y3^2) + 2 <H_eta, y>,

with H_eta = eta H + H0 and H0 = (0, 0, -beta (zeta+gamma)), which yields the
exponential absorption estimate, with m = min(1, zeta, beta),

    C(t) <= C(0) e^{-mt} + (|H_eta|^2 / m^2)(1 + e^{-mt}),

checked over random starts, horizons and amplitudes by `lyapunov_sweep`.

Every ODE solve of the package goes through `_solve`: the in-repo DOP853
loop of `_dop853`, with one error path. Its right-hand side is a stage
function rhs(y, d, h), the field at y + h d: `FieldSpec._stage` for one
state, and the sweep's stacked field for many.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _dop853
from .errors import DomainError, IntegrationError
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

    `forcing` must be a unit vector; the perturbed field is
    velocity_0(y) + eta * forcing. Defaults are the classical parameters
    with zero forcing amplitude.
    """

    zeta: float = CLASSICAL_ZETA
    gamma: float = CLASSICAL_GAMMA
    beta: float = CLASSICAL_BETA
    eta: float = 0.0
    forcing: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        for name in ("zeta", "gamma", "beta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(self.eta):
            raise DomainError("eta must be finite")
        h = np.array(self.forcing, dtype=float)
        if h.shape != (3,) or abs(float(np.linalg.norm(h)) - 1.0) > 1e-9:
            raise DomainError("forcing must be a unit 3-vector")
        h.setflags(write=False)
        # The constant coefficients of dy2 and dy3 (module docstring).
        c2, c3 = -self.zeta, -(self.beta * self.shift)
        for name, value in (("_h", h), ("_hf", tuple(h.tolist())),
                            ("_c2", c2), ("_c3", c3)):
            object.__setattr__(self, name, value)

    @property
    def shift(self) -> float:
        """Vertical offset gamma + zeta of the shifted frame."""
        return self.gamma + self.zeta

    @property
    def h(self) -> np.ndarray:
        """The forcing direction as a read-only array."""
        return self._h

    @property
    def h0(self) -> np.ndarray:
        """Constant part of the Casimir drift, (0, 0, -beta (zeta+gamma))."""
        return np.array([0.0, 0.0, -self.beta * self.shift])

    def _terms(self, y1, y2, y3):
        """The three velocity components, for scalars or arrays."""
        z, b = self.zeta, self.beta
        return (z * (y2 - y1), -y1 * y3 + self._c2 * y1 - y2,
                y1 * y2 - b * y3 + self._c3)

    def _at(self, y1, y2, y3) -> np.ndarray:
        # Python floats round exactly like numpy scalars and cost less.
        v = self._terms(y1, y2, y3)
        if self.eta != 0.0:
            e, (h1, h2, h3) = self.eta, self._hf
            v = (v[0] + e * h1, v[1] + e * h2, v[2] + e * h3)
        return np.array(v)

    def velocity(self, y) -> np.ndarray:
        return self._at(*np.asarray(y).tolist())

    def _stage(self, y, d, h) -> np.ndarray:
        """velocity(y + h d), the point formed in floats: the solver's RHS."""
        (y1, y2, y3), (d1, d2, d3) = y.tolist(), d.tolist()
        return self._at(y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)

    def velocity_batch(self, ys: np.ndarray, eta=None) -> np.ndarray:
        """Vectorized velocity for states of shape (..., 3).

        `eta` may be an array broadcastable against ys[..., 0] to give each
        sample its own forcing amplitude (used by the ensemble sweep).
        """
        v = np.stack(self._terms(ys[..., 0], ys[..., 1], ys[..., 2]), axis=-1)
        if eta is None:
            eta = self.eta
        eta = np.asarray(eta, dtype=float)
        if np.any(eta != 0.0):
            v = v + eta[..., None] * self._h
        return v

    def jacobian_times(self, ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """J(y) v for stacks of states and vectors of shape (..., 3).

        The field is quadratic, so this is one array expression; with
        vs = velocity_batch(ys) it is the acceleration along the flow.
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


def _solve(rhs, y0, t_end: float, tol: float, context: str, t_eval=None,
           event=None):
    """The package's one ODE solve: dy/dt = f(y) on [0, t_end] with DOP853.

    rhs(y, d, h) is f(y + h d), and event(y, v) a function of a state and
    its field, as _dop853.solve takes them; rtol = atol = tol. Returns
    (t, y) as _dop853.solve does, or None when an event is given and does
    not fire by t_end. Raises IntegrationError, prefixed by context, on a
    failed solve or a non-finite state.
    """
    status, t, y = _dop853.solve(rhs, y0, t_end, tol, t_eval, event)
    if status < 0:
        raise IntegrationError(f"{context}: Required step size is less than "
                               "spacing between numbers.")
    if not np.all(np.isfinite(y)):
        raise IntegrationError(f"{context}: non-finite state reached")
    return None if event is not None and status == 0 else (t, y)


def integrate(field, y0, t_end: float, tol: float = _TOL,
              t_eval=None) -> Trajectory:
    """Integrate dy/dt = field.velocity(y) from t = 0 to t_end.

    Uses the order-8 embedded RK pair with rtol = atol = tol and returns
    the states at t_eval, or at every accepted step when t_eval is None.
    The solver reads the field through its stage method field._stage.
    """
    y0 = as_state(y0)
    if not (t_end > 0.0):
        raise DomainError("t_end must be positive")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or np.any(np.diff(t_eval) <= 0.0) \
                or np.any(t_eval < 0.0) or np.any(t_eval > t_end):
            raise DomainError("t_eval must increase within [0, t_end]")
    t, y = _solve(field._stage, y0, float(t_end), tol, "integrate",
                  t_eval=t_eval)
    return Trajectory(t=t, y=y)


def absorption_rate(field: FieldSpec) -> float:
    """Decay constant m = min(1, zeta, beta) of the Casimir estimate."""
    return min(1.0, field.zeta, field.beta)


@dataclass
class SweepReport:
    n_samples: int
    violations: int
    min_margin: float
    elapsed_s: float
    worst: dict


def _stacked_stage(field: FieldSpec, etas, flat, d, h) -> np.ndarray:
    """The sweep's stacked RHS: the field at flat + h d, lane k of three
    coordinates forced at etas[k]; the point formed with numpy."""
    return field.velocity_batch((flat + d * h).reshape(-1, 3),
                                eta=etas).ravel()


def lyapunov_sweep(n_samples: int, field: FieldSpec | None = None,
                   seed: int = 0) -> SweepReport:
    """Monte Carlo check of the absorption estimate over random (y0, t, eta).

    Checks C(flow_t(y0)) <= C(y0) e^{-mt} + (|H_eta|^2/m^2)(1 + e^{-mt})
    with y0 uniform in the ball of radius 50, t uniform in [0, 10] and eta
    uniform in [-1, 1]. Each _SWEEP_CHUNK samples are integrated as one
    stacked ODE, solved once and read at the chunk's sorted horizons; each
    sample takes its state at its own horizon. The estimate's slack dwarfs
    the shared step-control error of the stacking.
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

        horizons, col = np.unique(ts, return_inverse=True)
        _, y = _solve(partial(_stacked_stage, base, etas), y0.ravel(),
                      _SWEEP_T_MAX, _TOL, "lyapunov_sweep", t_eval=horizons)
        yt = y.reshape(len(horizons), n, 3)[col, np.arange(n)]
        lhs = np.einsum("ij,ij->i", yt, yt)
        # Casimir drift vector H_eta = eta H + H0 (module docstring).
        heta = etas[:, None] * base.h[None, :] + base.h0[None, :]
        k2 = np.einsum("ij,ij->i", heta, heta) / m**2
        decay = np.exp(-m * ts)
        rhs_val = np.einsum("ij,ij->i", y0, y0) * decay + k2 * (1.0 + decay)
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
