"""The four workloads: inputs made from the seed, operations, and checks.

An operation is one top-level call into lorenzlab (a runner call through
`experiments.run_experiment`, or one transfer computation) plus its
checks. `run` does the program's work and is timed; `check` inspects the
outputs afterwards and returns failure messages. Program functions are
looked up on their modules at call time, so the traced run sees them.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lorenzlab import config, cuspmap, dynamics, experiments, noise, section, \
    transfer

import checks as C

P = C.Params()
# Runner checks not gated on: `averages-converge` holds only at seeds picked
# during development; `ratio-lifted-agreement` compares two code paths
# that share one quadrature, so it holds by construction.
UNGATED = {"averages-converge", "ratio-lifted-agreement"}
N_RK4_SAMPLE = 64


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


class Capture:
    """Keeps the last result of chosen functions where a runner calls them."""

    def __init__(self, names):
        self.last = {}
        for name in names:
            orig = getattr(experiments, name)
            setattr(experiments, name, self._hook(name, orig))

    def _hook(self, name, orig):
        def hook(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.last[name] = out
            return out
        # keep the program's name and module, so the tracer names it alike
        hook.__name__, hook.__qualname__ = orig.__name__, orig.__qualname__
        hook.__module__, hook.__doc__ = orig.__module__, orig.__doc__
        return hook


def runner_failures(man) -> list[str]:
    out = [] if man.status == "ok" else [f"status {man.status}: {man.error}"]
    return out + [f"runner check {c.name} failed (value {c.value:.6g})"
                  for c in man.checks
                  if not c.passed and c.name not in UNGATED]


class RunnerWorkload:
    """A workload made of one `run_experiment` call per round."""

    experiment = ""
    capture: tuple = ()

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.cfg = config.make_config(
            {"experiment": self.experiment, "seed": seed,
             "out_dir": str(out_dir), **self.overrides()})
        self.rdir = experiments.run_directory(self.cfg)
        field = dynamics.FieldSpec(zeta=P.zeta, gamma=P.gamma, beta=P.beta)
        self.section = section.SectionSpec(field=field,
                                           eps_box=self.cfg.eps_box)
        t0 = time.perf_counter()
        self.y_start = section.settle_on_attractor(field)
        self.settle_s = time.perf_counter() - t0
        self.hooks = Capture(self.capture)

    def overrides(self) -> dict:
        return {}

    def ops(self) -> list[Op]:
        return [Op(self.experiment, self.run, self.check)]

    def run(self) -> dict:
        shutil.rmtree(self.rdir, ignore_errors=True)
        self.hooks.last.clear()
        man = experiments.run_experiment(self.cfg)
        return {"manifest": man, "rdir": self.rdir, **self.hooks.last}

    def check(self, res: dict) -> list[str]:
        return runner_failures(res["manifest"])

    def chain_checks(self, trace, arrival_eta) -> list[str]:
        """Re-integration of a seeded sample, and crossings on the section."""
        x_next = np.vstack([trace.x[1:], trace.x_end])
        idx = self.rng.choice(len(trace), size=min(N_RK4_SAMPLE, len(trace)),
                              replace=False)
        out = C.check_reintegration(trace.x[idx], trace.eta[idx],
                                    trace.tau[idx], x_next[idx], P)
        out += C.check_crossings(np.vstack([trace.x, trace.x_end]),
                                 arrival_eta, P, self.section.root_tol,
                                 self.section.eps_box)
        return out


class Pdmp(RunnerWorkload):
    """Forced chain with stored segments, estimators, drift, conjugation."""

    experiment = "pdmp"
    capture = ("sample_chain",)
    EPS = 0.05

    def overrides(self):
        # the smallest chain the runner's estimators accept (>= 1000 used)
        return {"eps": self.EPS, "noise_kind": "uniform",
                "n_transitions": 1000, "burn_in": 0, "probes": 100}

    def check(self, res):
        out = runner_failures(res["manifest"])
        trace = res["sample_chain"]
        path = res["rdir"] / "data" / "trace.jsonl"
        out += C.check_written_chain(
            [json.loads(line) for line in path.read_text().splitlines()],
            trace.x, trace.eta, trace.tau)
        out += self.chain_checks(trace, np.append(trace.approach.eta,
                                                  trace.eta))
        out += C.check_segments([(s.t, s.y) for s in trace.segments],
                                (trace.approach.t, trace.approach.y),
                                trace.x, trace.tau, trace.x_end, self.y_start)
        est = json.loads((res["rdir"] / "reports" / "estimates.json")
                         .read_text())
        out += C.check_estimators(est["estimates"])
        reported = (est["drift"]["violations_strong"],
                    est["drift"]["violations_weak"])
        own = C.drift_violations(trace.x, trace.tau, trace.x_end,
                                 (-self.EPS, self.EPS), P, self.section.tol)
        if reported != (0, 0) or own != (0, 0):
            out.append(f"drift violations: reported {reported}, "
                       f"recomputed {own}")
        return out


class CuspMap(RunnerWorkload):
    """Unforced chain without segments, empirical cusp map and its fit."""

    experiment = "cusp-map"
    capture = ("sample_chain",)

    def overrides(self):
        return {"n_samples": 2000}

    def check(self, res):
        out = runner_failures(res["manifest"])
        trace = res["sample_chain"]
        out += self.chain_checks(trace, np.zeros(len(trace) + 1))
        pairs = np.loadtxt(res["rdir"] / "data" / "maxima_pairs.csv",
                           delimiter=",", skiprows=1, ndmin=2)
        norm = json.loads((res["rdir"] / "reports" / "fit.json")
                          .read_text())["norm"]
        return out + C.check_maxima_pairs(pairs, trace.casimir, norm)


class Attractor(RunnerWorkload):
    """Batched absorption sweep, then the reference trajectory and plots."""

    experiment = "attractor"
    capture = ("lyapunov_sweep",)
    WINDOWS = 8
    WINDOW_ROWS = 50

    def overrides(self):
        return {"n_samples": 1500}

    def check(self, res):
        out = runner_failures(res["manifest"])
        sweep = res["lyapunov_sweep"]
        if sweep.violations != 0 or sweep.n_samples != self.cfg.n_samples:
            out.append(f"sweep: {sweep.violations} violations in "
                       f"{sweep.n_samples} samples")
        out += C.check_sweep_worst(sweep.worst, P)
        rows = np.loadtxt(res["rdir"] / "data" / "trajectory.csv",
                          delimiter=",", skiprows=1)
        out += C.check_trajectory_rows(rows, self.y_start)
        t, y = rows[:, 0], rows[:, 1:4]
        k = self.rng.choice(len(t) - self.WINDOW_ROWS, size=self.WINDOWS,
                            replace=False)
        end = k + self.WINDOW_ROWS
        out += C.check_reintegration(y[k], 0.0, t[end] - t[k], y[end], P)
        return out


def _logistic(x):
    return 4.0 * x * (1.0 - x)


def _doubling(x):
    return (2.0 * x) % 1.0


def _tent(x):
    return 1.0 - np.abs(1.0 - 2.0 * x)


class Transfer:
    """Interval-map transfer operators only: no ODE is integrated."""

    N_FINE = 4096
    N_COARSE = 1024
    N_EXACT = 512
    AVERAGED_LADDER = (0.1, 0.05, 0.02, 0.01)

    settle_s = 0.0

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.synth = cuspmap.SyntheticCuspMap()
        # the operator-distance grid spans two decades, moved by the seed
        shift = 10.0 ** self.rng.uniform(-0.1, 0.1)
        self.eps_grid = np.geomspace(1e-3, 1e-1, 7) * shift
        self.exact_rows = np.sort(self.rng.choice(self.N_EXACT, size=8,
                                                  replace=False))
        self.cfg = config.make_config({"experiment": "stat-stability",
                                       "seed": seed, "out_dir": str(out_dir)})
        self.rdir = experiments.run_directory(self.cfg)

    def family(self, eps):
        return cuspmap.make_perturbed_family(self.synth, float(eps))

    def ops(self) -> list[Op]:
        return [Op("stat-stability", self.stat_stability, self.check_ladder),
                Op("operator-distance", self.operator_distance,
                   self.check_operator_distance),
                Op("averaged-operators", self.averaged, self.check_averaged),
                Op("exact-rows", self.exact, self.check_exact),
                Op("logistic", lambda: self.density(_logistic, self.N_FINE),
                   lambda r: self.check_density(
                       r, C.arcsine_density(self.N_FINE), 0.02, "logistic")),
                Op("doubling", lambda: self.density(_doubling, self.N_COARSE),
                   lambda r: self.check_density(
                       r, np.ones(self.N_COARSE), 1e-10, "doubling")),
                Op("tent", lambda: self.density(_tent, self.N_COARSE),
                   lambda r: self.check_density(
                       r, np.ones(self.N_COARSE), 1e-10, "tent"))]

    def stat_stability(self):
        shutil.rmtree(self.rdir, ignore_errors=True)
        return {"manifest": experiments.run_experiment(self.cfg),
                "rdir": self.rdir}

    def check_ladder(self, res):
        with (res["rdir"] / "data" / "ladder.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        out = runner_failures(res["manifest"])
        if len(rows) != len(self.cfg.eps_ladder):
            out.append(f"ladder has {len(rows)} rungs")
        return out + C.check_decreasing(
            [float(r["l1_distance"]) for r in rows], "stat-stability ladder")

    def operator_distance(self):
        base = transfer.build_ulam(self.synth, self.N_FINE)
        perturbed = [transfer.build_ulam(self.family(e), self.N_FINE)
                     for e in self.eps_grid]
        dists = [transfer.operator_distance(base, p) for p in perturbed]
        return {"matrices": [base, *perturbed], "dists": dists}

    def check_operator_distance(self, res):
        out = []
        for i, p in enumerate(res["matrices"]):
            out += C.check_rows(p.matrix, f"operator-distance matrix {i}")
        return out + C.check_slope(self.eps_grid, res["dists"])

    def averaged(self):
        base = transfer.build_ulam(self.synth, self.N_FINE)
        rho = transfer.stationary_density(base)
        mats, dens = [base], [rho]
        for eps in self.AVERAGED_LADDER:
            law = noise.NoiseLaw.discrete((eps / 2.0, eps))
            avg = transfer.averaged_transfer_operator(self.family, law,
                                                      self.N_FINE)
            mats.append(avg)
            dens.append(transfer.stationary_density(avg))
        return {"matrices": mats, "densities": dens}

    def check_averaged(self, res):
        out = []
        for i, (p, d) in enumerate(zip(res["matrices"], res["densities"])):
            out += C.check_rows(p.matrix, f"averaged operator {i}")
            out += C.check_fixed_point(p.matrix, d.values,
                                       f"averaged density {i}")
        base = res["densities"][0].values
        ladder = [C.l1(base, d.values) for d in res["densities"][1:]]
        out += C.check_decreasing(ladder, "averaged-operator ladder")
        if not ladder[-1] <= 0.05:
            out.append(f"averaged ladder ends at {ladder[-1]:.4g} > 0.05")
        return out

    def exact(self):
        p = transfer.build_ulam_exact(self.synth, self.N_EXACT)
        return {"matrix": p, "density": transfer.stationary_density(p)}

    def check_exact(self, res):
        m = res["matrix"].matrix
        return (C.check_rows(m, "exact rows")
                + C.check_fixed_point(m, res["density"].values,
                                      "exact-row density")
                + C.check_exact_rows(self.synth, m, self.exact_rows))

    def density(self, fn, n_bins):
        p = transfer.build_ulam(fn, n_bins)
        return {"matrix": p, "density": transfer.stationary_density(p)}

    def check_density(self, res, reference, bound, label):
        m = res["matrix"].matrix
        return (C.check_rows(m, label)
                + C.check_fixed_point(m, res["density"].values, label)
                + C.check_density_gap(res["density"].values, reference,
                                      bound, label))


WORKLOADS = {"pdmp": Pdmp, "cusp-map": CuspMap, "transfer": Transfer,
             "attractor": Attractor}
