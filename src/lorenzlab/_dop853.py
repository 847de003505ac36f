"""DOP853, Dormand & Prince's explicit Runge-Kutta pair of order 8(5,3).

Method, coefficients and step control are Hairer's DOP853 (Hairer, Norsett
& Wanner, Solving ODEs I, II.5 and II.10; dop853.f). `solve` performs the
arithmetic of scipy 1.17.1's solve_ivp(method="DOP853") in the same order,
so its output is bit-identical to that call's, for what the package uses:
an autonomous real system solved forward from t = 0, at most one event,
whose root is scipy's brentq, ported as `_brentq`.

Two loops run it, and the state's shape picks one:
- one state of three components, every chain, crossing search and
  `integrate`, runs with y, f(y), |y|, the error scale and the step sizes
  as Python floats, calling the field as f(y1, y2, y3) -> (v1, v2, v3), so
  a step makes 12 field calls and no numpy call for elementwise work;
- stacked lanes, the sweep's 500 samples as one flat vector of 1,500
  components, too many for float arithmetic, run on numpy arrays, the
  field taking a base state, a direction and a step, fun(y, d, h) =
  f(y + h d).
They share the tableau, the starting step, the step-size rule and the
dense output. Only the one-state loop takes an event; its root search
evaluates the step's interpolant in floats, per component, with
_interpolate's arithmetic. Every dot product stays in numpy on the same
(16, n) stage buffer in both loops: each stage's K[:s].T.dot(a), the B, E5
and E3 weights, the two error norms and the event's <v, y>. OpenBLAS forms a
3-element dot as a sequence of fused multiply-adds, which a Python sum
does not reproduce (Python 3.11 has no math.fma); elementwise arithmetic
rounds the same in floats as in numpy, so neither loop moves a bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntegrationError

EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7
_TOO_SMALL = "Required step size is less than spacing between numbers."


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


# The tableau as repr floats: nodes C; A's strict lower triangle by rows
# (row 12 holds the weights B, rows 13-15 the dense output's extra stages);
# error weights E3 and E5; dense-output coefficients D by rows.
_C = _floats("""
    0 0.05260015195876773 0.0789002279381516 0.1183503419072274
    0.2816496580927726 0.3333333333333333 0.25 0.3076923076923077
    0.6512820512820513 0.6 0.8571428571428571 1.0 1.0 0.1 0.2
    0.7777777777777778""")
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = _floats("""
    0.05260015195876773 0.0197250569845379 0.0591751709536137
    0.02958758547680685 0 0.08876275643042054 0.2413651341592667 0
    -0.8845494793282861 0.924834003261792 0.037037037037037035 0 0
    0.17082860872947386 0.12546768756682242 0.037109375 0 0
    0.17025221101954405 0.06021653898045596 -0.017578125
    0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328
    -0.015319437748624402 0.008273789163814023 0.6241109587160757 0 0
    -3.3608926294469414 -0.868219346841726 27.59209969944671
    20.154067550477894 -43.48988418106996 0.47766253643826434 0 0
    -2.4881146199716677 -0.590290826836843 21.230051448181193
    15.279233632882423 -33.28821096898486 -0.020331201708508627
    -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
    -8.149787010746927 -18.52006565999696 22.739487099350505
    2.4936055526796523 -3.0467644718982196 2.273310147516538 0 0
    -10.53449546673725 -2.0008720582248625 -17.9589318631188
    27.94888452941996 -2.8589982771350235 -8.87285693353063
    12.360567175794303 0.6433927460157636 0.054293734116568765 0 0 0 0
    4.450312892752409 1.8915178993145003 -5.801203960010585
    0.3111643669578199 -0.1521609496625161 0.20136540080403034
    0.04471061572777259 0.056167502283047954 0 0 0 0 0 0.25350021021662483
    -0.2462390374708025 -0.12419142326381637 0.15329179827876568
    0.00820105229563469 0.007567897660545699 -0.008298 0.03183464816350214
    0 0 0 0 0.028300909672366776 0.053541988307438566 -0.05492374857139099
    0 0 -0.00010834732869724932 0.0003825710908356584
    -0.00034046500868740456 0.1413124436746325 -0.42889630158379194 0 0 0 0
    -4.697621415361164 7.683421196062599 4.06898981839711
    0.3567271874552811 0 0 0 -0.0013990241651590145 2.9475147891527724
    -9.15095847217987""")
_B = _A[12, :12].copy()
_E3 = _floats("""
    -0.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003
    -5.801203960010585 -0.4226823213237919 -0.1521609496625161
    0.20136540080403034 0.02265179219836082 0""")
_E5 = _floats("""
    0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502
    1.6643771824549864 -0.35032884874997366 0.3341791187130175
    0.08192320648511571 -0.022355307863886294 0""")
_D = _floats("""
    -8.428938276109013 0 0 0 0 0.5667149535193777 -3.0689499459498917
    2.38466765651207 2.117034582445028 -0.871391583777973
    2.2404374302607883 0.6315787787694688 -0.08899033645133331
    18.148505520854727 -9.194632392478356 -4.436036387594894
    10.427508642579134 0 0 0 0 242.28349177525817 165.20045171727028
    -374.5467547226902 -22.113666853125306 7.733432668472264
    -30.674084731089398 -9.332130526430229 15.697238121770845
    -31.139403219565178 -9.35292435884448 35.81684148639408
    19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758
    527.8081592054236 -11.57390253995963 6.8812326946963
    -1.0006050966910838 0.7777137798053443 -2.778205752353508
    -60.19669523126412 84.32040550667716 11.99229113618279
    -25.69393346270375 0 0 0 0 -154.18974869023643 -231.5293791760455
    357.6391179106141 93.40532418362432 -37.45832313645163
    104.0996495089623 29.8402934266605 -43.53345659001114 96.32455395918828
    -39.17726167561544 -149.72683625798564""").reshape(4, 16)


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5  # as np.linalg.norm takes it


def _initial_step(stage, y0, t_end, f0, rtol, atol):
    """Hairer's starting step (Solving ODEs I, II.4), as scipy takes it."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((stage(y0, f0, h0) - f0) / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = float(d2 / np.float64(h0))  # as float64: h0 = 0 if f0 overflowed
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, t_end)


def _control(KT, scale, err5, err3, h_abs, rejected):
    """scipy's error norm and step-size rule for a step of size h_abs with
    stages KT (components by stages) and error scale `scale`, err5 and err3
    buffers: the next step size, and whether the step is accepted."""
    KT.dot(_E5, out=err5)
    KT.dot(_E3, out=err3)
    err5 /= scale
    err3 /= scale
    # the squared norms as np.linalg.norm(x) ** 2 computes them
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        error_norm = 0.0
    else:
        denom = err5_norm_2 + 0.01 * err3_norm_2
        error_norm = h_abs * err5_norm_2 / math.sqrt(denom * scale.size)
    if error_norm < 1:
        factor = _MAX_FACTOR if error_norm == 0 else min(
            _MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
        return h_abs * (min(1, factor) if rejected else factor), True
    return h_abs * max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT), False


def _dense(stage, K_ext, y_old, y, f_old, f, h):
    """The last step's 7-power interpolant (scipy's Dop853DenseOutput), its
    three extra stages written to K_ext[13:16]."""
    for s in (13, 14, 15):
        K_ext[s] = stage(y_old, K_ext[:s].T.dot(_A[s, :s]), h)
    F = np.empty((7, y.size))
    F[0] = delta_y = y - y_old
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * _D.dot(K_ext)
    return F


def _interpolate(F, y_old, x):
    """The step's dense output at fractions x (a scalar, or a column),
    elementwise in the state's components, so F and y_old may hold a row
    of chosen components per fraction."""
    y = np.zeros(np.shape(x)[:1] + y_old.shape[-1:])
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += y_old
    return y


def _rows(t_eval, pick, n):
    """The output rows at t_eval: whole states of n components, or the
    components pick[i] at t_eval[i]."""
    if pick is None:
        pick = np.broadcast_to(np.arange(n), (len(t_eval), n))
    return np.asarray(t_eval), pick, np.empty(pick.shape)


def _read(ys, t_eval, pick, i_eval, t_old, t, dense):
    """Fill the rows of ys whose times lie in the step (t_old, t] from its
    interpolant, dense() -> (F, y_old); return the next row to fill."""
    i_new = np.searchsorted(t_eval, t, side="right")
    if i_new > i_eval:
        F, y_old = dense()
        x = (t_eval[i_eval:i_new] - t_old) / (t - t_old)
        c = pick[i_eval:i_new]
        ys[i_eval:i_new] = _interpolate(F[:, c], y_old[c], x[:, None])
    return i_new


def _brentq(f, xpre: float, xcur: float) -> float:
    """A zero of f between xpre and xcur, where f changes sign, by Brent's
    method (Algorithms for Minimization without Derivatives, 1973, ch. 4).

    A port of scipy's Zeros/brentq.c, operation for operation, as
    scipy.optimize.brentq runs it with xtol = rtol = 4 EPS and 100
    iterations, so it returns the same root.
    """
    xtol = rtol = 4 * EPS
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Failed to converge after 100 iterations")


def solve(fun, y0, t_end: float, tol: float, context: str, t_eval=None,
          event=None, pick=None):
    """The package's one ODE solve: dy/dt = f(y) from t = 0 to t_end > 0,
    rtol = atol = tol. The state's shape picks the loop.

    One state, y0 of shape (3,), runs in Python floats: fun(y1, y2, y3)
    returns the three components of f. event(y, v), a scalar function of
    a state y and its field v = f(y) (both arrays), stops the solve where
    it falls through zero, the last row being the root on the step's
    interpolant; the solve returns None when it does not fall by t_end.

    Stacked lanes, y0 of any other shape, run in numpy as one flat vector
    of n components: fun(y, d, h) returns f at the point y + h d, formed
    as y + d * h, and is called as fun(y, y, 0.0) for f(y) itself (y + 0 y
    is y, signed zeros included). It has no event.

    Returns (t, y), the states in the rows of y: at t = 0 and every
    accepted step, or at t_eval (non-decreasing, within [0, t_end]).
    pick, an integer array of shape (len(t_eval), k), makes row i hold only
    the components pick[i] of the state at t_eval[i], bit for bit as the
    full row holds them. Raises IntegrationError, prefixed by context, when
    the step falls below ten spacings of t or a returned state is not
    finite, and DomainError when an event is given with t_eval or stacked
    lanes.
    """
    rtol, atol = max(tol, 100 * EPS), tol
    y0 = np.asarray(y0, dtype=float)
    if event is not None and (t_eval is not None or y0.shape != (3,)):
        raise DomainError(f"{context}: an event needs one state and no "
                          "t_eval")
    if y0.shape == (3,):
        t_out, y_out, fired = _solve_state(fun, y0, t_end, rtol, atol,
                                           context, t_eval, event, pick)
    else:
        t_out, y_out = _solve_lanes(fun, y0.ravel(), t_end, rtol, atol,
                                    context, t_eval, pick)
    if not np.all(np.isfinite(y_out)):
        raise IntegrationError(f"{context}: non-finite state reached")
    return None if event is not None and not fired else (t_out, y_out)


def _solve_state(f, y0, t_end, rtol, atol, context, t_eval, event, pick):
    """The loop for one state (solve): y, f(y), |y|, the scale and the
    step sizes in Python floats, each stage row K_ext[s] = f at the stage
    point formed in floats from the stage's numpy dot."""
    def stage(y, d, h):  # f at y + h d for the shared steps, as an array
        return np.array(f(*(y + d * h).tolist()))

    y = tuple(y0.tolist())
    fy = f(*y)
    h_abs = _initial_step(stage, y0, t_end, np.array(fy), rtol, atol)
    K_ext, d = np.empty((16, 3)), np.empty(3)
    KT, K12T, k12 = K_ext[:13].T, K_ext[:12].T, K_ext[12]
    stages = [(K_ext[s], K_ext[:s].T, _A[s, :s]) for s in range(1, 12)]
    scale, err5, err3 = np.empty((3, 3))
    a1, a2, a3 = map(abs, y)
    t = 0.0
    if t_eval is None:
        ts, ys = [t], [y]
    else:
        (t_eval, pick, ys), i_eval = _rows(t_eval, pick, 3), 0
    g = None if event is None else event(y0, np.array(fy))

    def dense():
        """The last step's interpolant F, and its start as an array."""
        y_old_a = np.array(y_old)
        return _dense(stage, K_ext, y_old_a, np.array(y), np.array(f_old),
                      np.array(fy), h), y_old_a

    def y_at(tq):
        """The last step's interpolant at time tq, in floats: _interpolate's
        arithmetic per component, on FT, its F's rows reversed, by
        component."""
        x = (tq - t_old) / (t - t_old)
        w = (x, 1 - x) * 3 + (x,)
        yq = []
        for fc, yc in zip(FT, y_old):
            v = 0.0  # as np.zeros, so signed zeros match
            for fi, wi in zip(fc, w):
                v = (v + fi) * wi
            yq.append(v + yc)
        return yq

    def g_at(tq):
        """The event along the interpolant of the last step."""
        yq = y_at(tq)
        return event(np.array(yq), np.array(f(*yq)))

    done = fired = False
    while not done:
        # One accepted step (scipy's RungeKutta._step_impl and rk_step).
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        y1, y2, y3 = y
        K_ext[0] = fy
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"{context}: {_TOO_SMALL}")
            t_new = t_end if t + h_abs - t_end > 0 else t + h_abs
            h = t_new - t
            h_abs = abs(h)
            for k, KsT, a in stages:  # k: the stage's row of K_ext
                d1, d2, d3 = KsT.dot(a, out=d).tolist()
                k[0], k[1], k[2] = f(y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
            d1, d2, d3 = K12T.dot(_B, out=d).tolist()
            n1, n2, n3 = y1 + h * d1, y2 + h * d2, y3 + h * d3
            k12[0], k12[1], k12[2] = f_new = f(n1, n2, n3)
            b1, b2, b3 = abs(n1), abs(n2), abs(n3)
            # np.maximum's: the larger, or nan when either is
            scale[0], scale[1], scale[2] = (
                (a1 if a1 >= b1 or a1 != a1 else b1) * rtol + atol,
                (a2 if a2 >= b2 or a2 != a2 else b2) * rtol + atol,
                (a3 if a3 >= b3 or a3 != a3 else b3) * rtol + atol)
            h_abs, accepted = _control(KT, scale, err5, err3, h_abs,
                                       rejected)
            if accepted:
                break
            rejected = True
        t_old, y_old, f_old = t, y, fy
        t, y, fy, a1, a2, a3 = t_new, (n1, n2, n3), f_new, b1, b2, b3
        done = t - t_end >= 0
        if event is not None:
            g_new = event(np.array(y), k12)
            if g >= 0 and g_new <= 0:
                FT = dense()[0][::-1].T.tolist()
                t_root = _brentq(g_at, t_old, t)
                y = tuple(y_at(t_root))
                t, done, fired = t_root, True, True
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            i_eval = _read(ys, t_eval, pick, i_eval, t_old, t, dense)
    if t_eval is None:
        return np.array(ts), np.array(ys), fired
    return t_eval, ys, fired


def _solve_lanes(fun, y, t_end, rtol, atol, context, t_eval, pick):
    """The loop for stacked lanes (solve), on numpy arrays of n
    components."""
    n = y.size
    f = fun(y, y, 0.0)
    h_abs = _initial_step(fun, y, t_end, f, rtol, atol)
    K_ext = np.empty((16, n))
    KT, K12T = K_ext[:13].T, K_ext[:12].T
    stages = [(s, K_ext[:s].T, _A[s, :s]) for s in range(1, 12)]
    abs_y, (scale, err5, err3) = np.abs(y), np.empty((3, n))
    t = 0.0
    if t_eval is None:
        ts, ys = [t], [y]
    else:
        (t_eval, pick, ys), i_eval = _rows(t_eval, pick, n), 0
    done = False
    while not done:
        # One accepted step (scipy's RungeKutta._step_impl and rk_step).
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"{context}: {_TOO_SMALL}")
            t_new = t_end if t + h_abs - t_end > 0 else t + h_abs
            h = t_new - t
            h_abs = abs(h)
            K_ext[0] = f
            for s, KsT, a in stages:
                K_ext[s] = fun(y, KsT.dot(a), h)
            d = K12T.dot(_B)
            y_new = y + h * d
            K_ext[12] = f_new = fun(y, d, h)
            abs_new = np.abs(y_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            h_abs, accepted = _control(KT, scale, err5, err3, h_abs,
                                       rejected)
            if accepted:
                break
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f, abs_y = t_new, y_new, f_new, abs_new
        done = t - t_end >= 0
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            i_eval = _read(ys, t_eval, pick, i_eval, t_old, t, lambda: (
                _dense(fun, K_ext, y_old, y, f_old, f, h), y_old))
    return (np.array(ts), np.array(ys)) if t_eval is None else (t_eval, ys)
