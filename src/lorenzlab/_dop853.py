"""DOP853, Dormand & Prince's explicit Runge-Kutta pair of order 8(5,3).

Method, coefficients and step control are Hairer's DOP853 (Hairer, Norsett
& Wanner, Solving ODEs I, II.5 and II.10; dop853.f). `solve` performs the
arithmetic of scipy 1.17.1's solve_ivp(method="DOP853") in the same order,
so its output is bit-identical to that call's, for what the package uses:
an autonomous real system solved forward from t = 0, at most one event,
whose root is scipy's brentq, ported as `_brentq`.

One loop runs it, on one field contract, f(y1, y2, y3) -> (v1, v2, v3),
and the state's shape decides only how components are held:
- one state of three components, every chain, crossing search and
  `integrate`, holds y, |y|, the stage points and the error scale's terms
  as Python floats, so a step makes 12 field calls and no numpy call for
  elementwise work;
- stacked lanes, the sweep's 500 samples as one flat vector of 1,500
  components, hold each component of every lane as a strided view of it,
  y[0::3], y[1::3], y[2::3], so the same arithmetic runs on arrays.
Only one state takes an event; its root search evaluates the step's
interpolant in floats, per component, with _interpolate's arithmetic.
Every dot product stays in numpy on the (16, n) stage buffer: each stage's
K[:s].T.dot(a), the B, E5 and E3 weights, the two error norms and the
event's <v, y>. OpenBLAS forms a 3-element dot as a sequence of fused
multiply-adds, which a Python sum does not reproduce (Python 3.11 has no
math.fma); elementwise arithmetic rounds the same in floats as in numpy,
so neither form of state moves a bit.
"""

from __future__ import annotations

import math
import operator

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


def _fmax(a, b):
    """np.maximum of two floats: the larger, or nan when either is."""
    return a if a >= b or a != a else b


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


def solve(f, y0, t_end: float, tol: float, context: str, t_eval=None,
          event=None, pick=None):
    """The package's one ODE solve: dy/dt = f(y) from t = 0 to t_end > 0,
    rtol = atol = tol, the field called as f(y1, y2, y3) -> (v1, v2, v3).

    y0 of shape (3,) is one state, whose components are Python floats. Any
    other shape is stacked lanes of three components, solved as one flat
    vector; f gets each component of every lane as a strided view of it,
    y[0::3], y[1::3], y[2::3], and returns three arrays. event(y, v), a
    scalar function of one state y and its field v = f(y) (both arrays),
    stops the solve where it falls through zero, the last row being the
    root on the step's interpolant; the solve returns None when it does not
    fall by t_end.

    Returns (t, y), the flat states in the rows of y: at t = 0 and every
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
    # What the shape decides: how a vector splits into the three components
    # f takes, where a row of K_ext holds each, and the error scale's max.
    if y0.shape == (3,):
        split, ix, vmax = np.ndarray.tolist, (0, 1, 2), _fmax
    else:
        ix = (slice(0, None, 3), slice(1, None, 3), slice(2, None, 3))
        split, vmax = operator.itemgetter(*ix), np.maximum
    i1, i2, i3 = ix
    y0 = y0.ravel()
    n = y0.size

    def stage(y, d, h):
        """f at the point y + h d, as a flat array."""
        k = np.empty(n)
        k[i1], k[i2], k[i3] = f(*split(y + d * h))
        return k

    K_ext, d = np.empty((16, n)), np.empty(n)
    KT, K12T, k12 = K_ext[:13].T, K_ext[:12].T, K_ext[12]
    stages = [(K_ext[s], K_ext[:s].T, _A[s, :s]) for s in range(1, 12)]
    scale, err5, err3 = np.empty((3, n))
    y = split(y0)
    k12[i1], k12[i2], k12[i3] = f(*y)  # f(y0), K_ext[0] in the first step
    h_abs = _initial_step(stage, y0, t_end, k12, rtol, atol)
    a1, a2, a3 = map(abs, y)
    t = 0.0
    if t_eval is None:
        ts, ys = [t], [y]
    else:
        t_eval, i_eval = np.asarray(t_eval), 0
        if pick is None:
            pick = np.broadcast_to(np.arange(n), (len(t_eval), n))
        ys = np.empty(pick.shape)
    g = None if event is None else event(y0, k12)

    def dense():
        """The last step's 7-power interpolant F (scipy's Dop853DenseOutput),
        its three extra stages written to K_ext[13:16], and its start as a
        flat array; f at its ends is K_ext[0] and K_ext[12]."""
        y_new, y_old_a = (np.array(v).T.ravel() for v in (y, y_old))
        for s in (13, 14, 15):
            K_ext[s] = stage(y_old_a, K_ext[:s].T.dot(_A[s, :s]), h)
        F = np.empty((7, n))
        F[0] = delta_y = y_new - y_old_a
        F[1] = h * K_ext[0] - delta_y
        F[2] = 2 * delta_y - h * (k12 + K_ext[0])
        F[3:] = h * _D.dot(K_ext)
        return F, y_old_a

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
        K_ext[0] = k12
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"{context}: {_TOO_SMALL}")
            t_new = t_end if t + h_abs - t_end > 0 else t + h_abs
            h = t_new - t
            h_abs = abs(h)
            for k, KsT, a in stages:  # k: the stage's row of K_ext
                d1, d2, d3 = split(KsT.dot(a, out=d))
                k[i1], k[i2], k[i3] = f(y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
            d1, d2, d3 = split(K12T.dot(_B, out=d))
            n1, n2, n3 = y1 + h * d1, y2 + h * d2, y3 + h * d3
            k12[i1], k12[i2], k12[i3] = f(n1, n2, n3)
            b1, b2, b3 = abs(n1), abs(n2), abs(n3)
            scale[i1], scale[i2], scale[i3] = (vmax(a1, b1) * rtol + atol,
                                               vmax(a2, b2) * rtol + atol,
                                               vmax(a3, b3) * rtol + atol)
            h_abs, accepted = _control(KT, scale, err5, err3, h_abs,
                                       rejected)
            if accepted:
                break
            rejected = True
        t_old, y_old = t, y
        t, y, a1, a2, a3 = t_new, (n1, n2, n3), b1, b2, b3
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
            continue
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:  # rows whose times lie in the step (t_old, t]
            F, y_old_a = dense()
            x = (t_eval[i_eval:i_new] - t_old) / (t - t_old)
            c = pick[i_eval:i_new]
            ys[i_eval:i_new] = _interpolate(F[:, c], y_old_a[c], x[:, None])
            i_eval = i_new
    if t_eval is None:  # rows of (component, lane) made flat, lane by lane
        t_eval = np.array(ts)
        ys = np.array(ys).swapaxes(1, -1).reshape(len(ts), n)
    if not np.all(np.isfinite(ys)):
        raise IntegrationError(f"{context}: non-finite state reached")
    return None if event is not None and not fired else (t_eval, ys)
