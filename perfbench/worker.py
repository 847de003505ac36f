"""One workload in a fresh interpreter: set up, then closed-loop rounds.

Started by run.py with lorenzlab's source directory on PYTHONPATH. With
--setup-only it imports lorenzlab, builds the workload's inputs, reports
when they are ready and exits. Otherwise it then runs whole rounds of the
workload's operations, one call after another, until --seconds have
passed, checks every output, and prints one JSON object. With --trace 1,
untraced and traced rounds alternate (at least one of each); per-layer
metrics come from the traced rounds and the tracing overhead is the
difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

_T0 = time.perf_counter()
import lorenzlab  # noqa: E402  (timed: import is part of set-up)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from lorenzlab.errors import TangencyWarning  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-layer self time is reported for these span prefixes.
SELF_LAYERS = ("section", "dynamics", "pdmp", "cuspmap", "transfer",
               "experiments", "plotting", "manifest", "scipy")


def run_round(ops, log) -> tuple[float, float, int, int, int]:
    """Time each operation's call; check it untimed. Returns (seconds,
    CPU seconds, failed, failed on a check, artifact bytes)."""
    spent = cpu = 0.0
    failed = wrong = nbytes = 0
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            res = op.run()
        except Exception:
            res = None
            log.append(f"{op.name}: raised\n{traceback.format_exc()}")
        spent += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if res is None:
            failed += 1
            continue
        try:
            problems = op.check(res)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            wrong += 1
            log.extend(f"{op.name}: {p}" for p in problems)
        if "rdir" in res:
            nbytes += sum(f.stat().st_size for f in res["rdir"].rglob("*")
                          if f.is_file())
    return spent, cpu, failed, wrong, nbytes


def layer_metrics(tracer: Tracer, n: int, warned: list, nbytes: int,
                  settle_s: float, overhead_s: float) -> dict:
    """Per-layer metrics, as means per traced round (n rounds)."""
    incl, calls, self_s = tracer.totals()
    c = tracer.counts

    def t(*names):
        return sum(incl.get(k, 0.0) for k in names) / n

    def per(num, den):
        return num / den if den else 0.0

    trans = c["transitions"]
    m = {
        "import.lorenzlab_s": (IMPORT_S, "s"),
        "section.settle_s": (settle_s, "s"),
        "section.sample_chain_s": (t("section.sample_chain"), "s"),
        "section.transitions_per_s": (
            per(trans, incl.get("section.sample_chain", 0.0)), "1/s"),
        "section.solver_calls_per_transition": (
            per(c["chain_solver_calls"], trans), "count"),
        "dynamics.rhs_evals_per_transition": (per(c["chain_rhs"], trans),
                                              "count"),
        "section.steps_per_transition": (per(c["chain_solver_steps"], trans),
                                         "count"),
        "section.segment_points": (c["segment_points"] / n, "count"),
        "section.return_map_s": (t("section.return_map"), "s"),
        "section.next_crossing_s": (t("section.next_crossing"), "s"),
        "dynamics.integrate_s": (t("dynamics.integrate"), "s"),
        "section.write_jsonl_s": (
            t("section.MarkovRenewalTrace.write_jsonl"), "s"),
        "section.tangency_warnings": (
            sum(issubclass(w, TangencyWarning) for w in warned) / n, "count"),
        "warnings.total": (len(warned) / n, "count"),
        "pdmp.trajectory_s": (t("pdmp.PdmpTrajectory"), "s"),
        "pdmp.estimators_s": (t("pdmp.PdmpTrajectory.time_average",
                                "pdmp.ratio_formula_estimate",
                                "pdmp.lifted_measure_probe"), "s"),
        "pdmp.drift_s": (t("pdmp.drift_check"), "s"),
        "pdmp.conjugation_s": (t("pdmp.suspension_conjugation_check"), "s"),
        "cuspmap.empirical_fit_s": (t("cuspmap.build_empirical_map",
                                      "cuspmap.fit_branch_exponents"), "s"),
        "cuspmap.inversions": (c["inversions"] / n, "count"),
        "cuspmap.inverse_s": (t("cuspmap.IntervalMap.inverse_left",
                                "cuspmap.IntervalMap.inverse_right"), "s"),
        "cuspmap.audit_s": (t("cuspmap.audit_assumptions"), "s"),
        "transfer.build_ulam_calls": (calls.get("transfer.build_ulam", 0) / n,
                                      "count"),
        "transfer.build_ulam_s": (t("transfer.build_ulam"), "s"),
        "transfer.build_ulam_exact_s": (t("transfer.build_ulam_exact"), "s"),
        "transfer.stationary_density_s": (t("transfer.stationary_density"),
                                          "s"),
        "transfer.operator_distance_s": (t("transfer.operator_distance"), "s"),
        "transfer.averaged_operator_s": (
            t("transfer.averaged_transfer_operator"), "s"),
        "dynamics.lyapunov_sweep_s": (t("dynamics.lyapunov_sweep"), "s"),
        "dynamics.sweep_samples_per_s": (
            per(c["sweep_samples"], incl.get("dynamics.lyapunov_sweep", 0.0)),
            "1/s"),
        "dynamics.batch_rhs_lane_evals": (c["batch_lanes"] / n, "count"),
        "plotting.emit_plot_s": (t("plotting.emit_plot"), "s"),
        "manifest.hash_s": (t("manifest.file_sha256"), "s"),
        "experiments.artifact_bytes": (nbytes / n, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.out / "runs" / f"{args.workload}-s{args.seed}")
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ops = wl.ops()
    tracer = Tracer() if args.trace else None
    plain, traced, plain_cpu, log = [], [], [], []
    attempted = failed = wrong = nbytes = 0
    traced_warnings: list = []
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while True:
            on = tracer is not None and len(plain) > len(traced)
            if on:
                tracer.install()
                seen = len(caught)
            try:
                spent, cpu, f, w, b = run_round(ops, log)
            finally:
                if on:
                    tracer.uninstall()
            attempted += len(ops)
            failed += f
            wrong += w
            (traced if on else plain).append(spent)
            if not on:
                plain_cpu.append(cpu)
            else:
                nbytes += b
                traced_warnings += [x.category for x in caught[seen:]]
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break

    result = {"ready": ready, "import_s": IMPORT_S,
              "numpy": np.__version__, "scipy": scipy.__version__,
              "plain_rounds": plain, "plain_rounds_cpu": plain_cpu,
              "traced_rounds": traced, "attempted": attempted,
              "failed": failed, "correct": wrong == 0, "failures": log[:20],
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "wall_s": statistics.median(plain)}
    if tracer is not None:
        overhead = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = layer_metrics(
            tracer, len(traced), traced_warnings, nbytes,
            wl.settle_s, overhead)
        tracer.write_spans(args.out / f"spans-{args.workload}-s{args.seed}"
                           ".jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
