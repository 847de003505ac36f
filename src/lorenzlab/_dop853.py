"""DOP853, Dormand & Prince's explicit Runge-Kutta pair of order 8(5,3).

Method, coefficients and step control are Hairer's DOP853 (Hairer, Norsett
& Wanner, Solving ODEs I, II.5 and II.10; dop853.f). `solve` performs the
arithmetic of scipy 1.17.1's solve_ivp(method="DOP853") in the same order,
so its output is bit-identical to that call's, for what the package uses:
an autonomous real system solved forward from t = 0, at most one event.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7


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
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, t_end, f0, rtol, atol):
    """Hairer's starting step (Solving ODEs I, II.4), as scipy takes it."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((fun(y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, t_end)


def _interpolate(F, y_old, x):
    """The step's dense output at fractions x (a scalar, or a column)."""
    y = np.zeros(np.shape(x)[:1] + y_old.shape)
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += y_old
    return y


def solve(fun, y0, t_end: float, tol: float, t_eval=None, event=None):
    """Integrate dy/dt = fun(y) from t = 0 to t_end > 0, rtol = atol = tol.

    Returns (status, t, y), the states in the rows of y: at t = 0 and every
    accepted step, or at t_eval (increasing, within [0, t_end]). status is
    0 at t_end; 1 when event(y) fell through zero, the last row being the
    root on the step's interpolant (event is not combined with t_eval);
    -1 (and no rows) when the step fell below ten spacings of t.
    """
    rtol, atol = max(tol, 100 * EPS), tol
    y = np.asarray(y0, dtype=float)
    n = y.size
    f = fun(y)
    h_abs = _initial_step(fun, y, t_end, f, rtol, atol)
    K_ext = np.empty((16, n))
    KT, K12T = K_ext[:13].T, K_ext[:12].T
    stages = [(s, K_ext[:s].T, _A[s, :s]) for s in range(1, 12)]
    extra = [(s, K_ext[:s].T, _A[s, :s]) for s in (13, 14, 15)]
    t = 0.0
    if t_eval is None:
        ts, ys = [t], [y]
    else:
        t_eval, i_eval = np.asarray(t_eval), 0
        ys = np.empty((len(t_eval), n))
    g = None if event is None else event(y)
    status = None
    while status is None:
        # One accepted step (scipy's RungeKutta._step_impl and rk_step).
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return -1, None, None
            t_new = t_end if t + h_abs - t_end > 0 else t + h_abs
            h = t_new - t
            h_abs = np.abs(h)
            K_ext[0] = f
            for s, KsT, a in stages:
                K_ext[s] = fun(y + np.dot(KsT, a) * h)
            y_new = y + h * np.dot(K12T, _B)
            K_ext[12] = f_new = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # the squared norms as np.linalg.norm(x) ** 2 computes them
            err5, err3 = np.dot(KT, _E5) / scale, np.dot(KT, _E3) / scale
            err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * n)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        if t - t_end >= 0:
            status = 0

        def dense():
            """The step's 7-power interpolant (scipy's Dop853DenseOutput)."""
            for s, KsT, a in extra:
                K_ext[s] = fun(y_old + np.dot(KsT, a) * h)
            F = np.empty((7, n))
            F[0] = delta_y = y - y_old
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f + f_old)
            F[3:] = h * np.dot(_D, K_ext)
            return F

        if event is not None:
            g_new = event(y)
            if g >= 0 and g_new <= 0:
                from scipy.optimize import brentq

                F, span = dense(), t - t_old
                t = brentq(lambda tq: event(_interpolate(
                    F, y_old, (tq - t_old) / span)), t_old, t,
                    xtol=4 * EPS, rtol=4 * EPS)
                y = _interpolate(F, y_old, (t - t_old) / span)
                status = 1
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
            continue
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            x = (t_eval[i_eval:i_new] - t_old) / (t - t_old)
            ys[i_eval:i_new] = _interpolate(dense(), y_old, x[:, None])
            i_eval = i_new
    if t_eval is None:
        return status, np.array(ts), np.array(ys)
    return status, t_eval, ys
