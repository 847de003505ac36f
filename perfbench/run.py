"""Benchmark command: one lorenzlab workload, checked, as one JSON line.

Run from the root of a lorenzlab source checkout:

    python3 perfbench/run.py --workload pdmp --seed 1 --seconds 10 --trace 0

Workloads: pdmp, cusp-map, transfer, attractor (see perfbench/README.md).
Set-up time is sampled in fresh interpreters: SETUP_PROBES processes that
only import lorenzlab and build the workload's inputs, plus the worker
process that then runs the workload. `setup_s` is their median. The last
line of standard output is the result; the line before it records the
run's environment. Both are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 2
DEADLINE_S = 170.0  # the whole run, set-up probes included
HERE = Path(__file__).resolve().parent


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py, wait for it, return its last stdout line and start."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("worker exceeded the run deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), t0


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pdmp", "cusp-map", "transfer", "attractor"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "lorenzlab" / "__init__.py").is_file():
        print("run from the root of a lorenzlab checkout (no "
              "src/lorenzlab here)", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONHASHSEED": "0"}
    # byte-compile first, so no set-up sample pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "lorenzlab"), str(HERE)],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            res, t0 = run_child(common + ["--setup-only"], env, deadline)
            setups.append(res["ready"] - t0)
        res, t0 = run_child(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)],
                            env, deadline)
        setups.append(res["ready"] - t0)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for line in res["failures"]:
        print(line, file=sys.stderr)
    record = {"git_sha": git_sha(root), "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": res["numpy"],
              "scipy": res["scipy"], "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, "plain_rounds_s": res["plain_rounds"],
              "plain_rounds_cpu_s": res["plain_rounds_cpu"],
              "traced_rounds_s": res["traced_rounds"],
              "import_s": res["import_s"], "failures": res["failures"]}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    (out / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"run": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
