"""Each benchmark check passes on a program output and fails on a corrupted one.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lorenzlab import (  # noqa: E402
    FieldSpec, NoiseLaw, SectionSpec, SyntheticCuspMap, build_ulam,
    build_ulam_exact, integrate, lyapunov_sweep, sample_chain, settle_on_attractor,
    stationary_density,
)

import checks as C  # noqa: E402

P = C.Params()
EPS = 0.05


@pytest.fixture(scope="module")
def start():
    return settle_on_attractor(FieldSpec())


@pytest.fixture(scope="module")
def section():
    return SectionSpec(field=FieldSpec(), eps_box=25.0)


@pytest.fixture(scope="module")
def chain(section, start):
    return sample_chain(NoiseLaw.uniform(EPS), section, start, n=30, seed=4,
                        keep_segments=True)


def _ends(trace):
    return np.vstack([trace.x[1:], trace.x_end])


def _crossings(trace):
    return np.vstack([trace.x, trace.x_end])


def _arrival_eta(trace):
    return np.append(trace.approach.eta, trace.eta)


def test_reintegration(chain):
    args = (chain.x, chain.eta, chain.tau, _ends(chain), P)
    assert C.check_reintegration(*args) == []
    bad = _ends(chain)
    bad[7, 1] += 1e-5
    assert C.check_reintegration(chain.x, chain.eta, chain.tau, bad, P)


def test_crossings(chain, section):
    x = _crossings(chain)
    assert C.check_crossings(x, _arrival_eta(chain), P, section.root_tol,
                             section.eps_box) == []
    off = x.copy()
    off[3, 0] += 1e-6
    assert C.check_crossings(off, _arrival_eta(chain), P, section.root_tol,
                             section.eps_box)
    # the same points, but a box too small to hold them
    assert C.check_crossings(x, _arrival_eta(chain), P, section.root_tol,
                             1e-3)
    # a max-type crossing traversed backwards is a min-type one (g rising)
    assert any("not decreasing" in m for m in C.check_crossings(
        x, _arrival_eta(chain) + 1e3, P, 1.0, section.eps_box))


def test_segments(chain, start):
    segs = [(s.t, s.y) for s in chain.segments]
    app = (chain.approach.t, chain.approach.y)
    args = (chain.x, chain.tau, chain.x_end, start)
    assert C.check_segments(segs, app, *args) == []
    moved = [(t, y.copy()) for t, y in segs]
    moved[4][1][-1, 2] += 1e-9
    assert C.check_segments(moved, app, *args)
    stretched = [(t * 1.001, y) for t, y in segs]
    assert C.check_segments(stretched, app, *args)
    assert C.check_segments(segs[:-1], app, *args)
    assert C.check_segments(segs, (app[0], app[1][::-1]), *args)


def test_estimators():
    good = {"unit": {"time_average": 1.0, "ratio": 1.0 + 2e-16,
                     "lifted": 1.0},
            "casimir": {"time_average": 760.0, "se": 2.0, "ratio": 761.0,
                        "ratio_se": 2.0}}
    assert C.check_estimators(good) == []
    bad = {**good, "unit": {**good["unit"], "ratio": 1.0 + 1e-9}}
    assert C.check_estimators(bad)
    far = {**good, "casimir": {**good["casimir"], "ratio": 780.0}}
    assert C.check_estimators(far)


def test_drift(chain, section):
    args = ((-EPS, EPS), P, section.tol)
    assert C.drift_violations(chain.x, chain.tau, chain.x_end, *args) == (0, 0)
    x = chain.x.copy()
    x[12] *= 5.0  # a Casimir jump no sojourn can produce
    strong, weak = C.drift_violations(x, chain.tau, chain.x_end, *args)
    assert strong > 0 and weak > 0


def test_sweep_worst():
    worst = lyapunov_sweep(40, seed=3).worst
    assert C.check_sweep_worst(worst, P) == []
    assert C.check_sweep_worst({**worst, "lhs": worst["lhs"] * (1 + 1e-4)}, P)
    assert C.check_sweep_worst({**worst, "rhs": worst["rhs"] * (1 + 1e-9)}, P)
    assert C.check_sweep_worst({**worst, "t": worst["t"] * 1.01}, P)


def _logistic(x):
    return 4.0 * x * (1.0 - x)


def _tent(x):
    return 1.0 - np.abs(1.0 - 2.0 * x)


def test_density_gap_and_fixed_point():
    p = build_ulam(_logistic, 4096)
    rho = stationary_density(p).values
    ref = C.arcsine_density(4096)
    assert C.check_density_gap(rho, ref, 0.02, "logistic") == []
    assert C.check_density_gap(np.ones(4096), ref, 0.02, "logistic")
    assert C.check_fixed_point(p.matrix, rho, "logistic") == []
    assert C.check_fixed_point(p.matrix, np.ones(4096), "logistic")
    assert C.check_fixed_point(p.matrix, 2.0 * rho, "logistic")


def test_rows():
    m = build_ulam(_tent, 64).matrix.copy()
    assert C.check_rows(m, "tent") == []
    m.data[5] += 1e-6
    assert C.check_rows(m, "tent")


def test_exact_rows():
    synth = SyntheticCuspMap()
    m = build_ulam_exact(synth, 128).matrix
    rows = np.arange(0, 128, 9)
    assert C.check_exact_rows(synth, m, rows) == []
    swapped = m.tolil()
    swapped[[9, 18]] = swapped[[18, 9]]
    assert C.check_exact_rows(synth, swapped.tocsr(), rows)


def test_decreasing_and_slope():
    assert C.check_decreasing([0.3, 0.2, 0.1], "ladder") == []
    assert C.check_decreasing([0.3, 0.31, 0.1], "ladder")
    eps = np.geomspace(1e-3, 1e-1, 7)
    assert C.check_slope(eps, 0.4 * eps) == []
    assert C.check_slope(eps, 0.4 * eps ** 0.5)
    assert C.check_slope(eps, 0.4 * eps ** 1.5)


def test_written_chain(chain, tmp_path):
    path = tmp_path / "trace.jsonl"
    chain.write_jsonl(path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    args = (chain.x, chain.eta, chain.tau)
    assert C.check_written_chain(recs, *args) == []
    assert C.check_written_chain(recs[:-1], *args)
    recs[6]["tau"] = float(np.nextafter(recs[6]["tau"], 2.0))
    assert C.check_written_chain(recs, *args)


def test_maxima_pairs(chain):
    cas = chain.casimir
    lo, hi = float(cas.min()), float(cas.max())
    norm = (cas - lo) / (hi - lo)
    pairs = np.column_stack([norm[:-1], norm[1:]])
    assert C.check_maxima_pairs(pairs, cas, (lo, hi)) == []
    assert C.check_maxima_pairs(pairs[:, ::-1], cas, (lo, hi))
    assert C.check_maxima_pairs(pairs[1:], cas, (lo, hi))


def test_trajectory_rows(start, tmp_path):
    traj = integrate(FieldSpec(), start, 1.0, t_eval=np.arange(0.0, 1.0, 0.01))
    traj.write_csv(tmp_path / "trajectory.csv")
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert C.check_trajectory_rows(rows, start) == []
    assert C.check_trajectory_rows(rows, start + 1e-9)
    rows[40, 4] *= 1.0 + 1e-9
    assert C.check_trajectory_rows(rows, start)
    # consecutive rows 50 apart are the flow over 0.5 time units
    k = np.array([0, 17, 45])
    assert C.check_reintegration(rows[k, 1:4], 0.0, rows[k + 50, 0] - rows[k, 0],
                                 rows[k + 50, 1:4], P) == []
