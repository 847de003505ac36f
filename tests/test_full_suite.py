"""The full-suite runner end to end: all five science runners, one run.

The config is fixed here: 2,000 cusp-map samples, 1,100 transitions with
100 burned in, the ladder 0.1, 0.05, 0.02 and seed 1. Every check is gated
except `averages-converge`, a fixed-seed ordering of stationary averages
that sits below the finite-chain noise at this size; its value is printed.
"""

import json

import pytest

from lorenzlab.config import make_config
from lorenzlab.experiments import _SUITE, run_directory, run_experiment
from lorenzlab.manifest import file_sha256

_CONFIG = {"experiment": "full-suite", "n_samples": "2000",
           "n_transitions": "1100", "burn_in": "100",
           "eps_ladder": "0.1,0.05,0.02", "seed": "1"}
_UNGATED = "stochastic-stability:averages-converge"


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """(suite manifest, {runner: its manifest}, run directory)."""
    cfg = make_config({**_CONFIG,
                       "out_dir": str(tmp_path_factory.mktemp("suite"))})
    run_experiment(cfg)
    rdir = run_directory(cfg)
    suite = json.loads((rdir / "manifest.json").read_text())
    subs = {}
    for path in sorted((rdir / "suite").glob("*/manifest.json")):
        man = json.loads(path.read_text())
        subs[man["experiment"]] = man
    return suite, subs, rdir


def test_every_runner_completes(suite_run):
    suite, subs, _ = suite_run
    assert suite["status"] == "ok", suite["error"]
    assert sorted(subs) == sorted(_SUITE)
    for name, man in subs.items():
        assert man["status"] == "ok", f"{name}: {man['error']}"


def test_suite_lists_every_sub_check(suite_run):
    """Each runner's checks appear in the suite's manifest, prefixed by the
    runner's name and otherwise unchanged."""
    suite, subs, _ = suite_run
    listed = {c["name"]: c for c in suite["checks"]}
    expected = {}
    for name in _SUITE:
        for c in subs[name]["checks"]:
            key = f"{name}:{c['name']}"
            expected[key] = {**c, "name": key}
    assert listed == expected


def test_artifacts_match_their_manifests(suite_run):
    _, _, rdir = suite_run
    for path in [rdir / "manifest.json",
                 *sorted((rdir / "suite").glob("*/manifest.json"))]:
        files = json.loads(path.read_text())["files"]
        assert files
        for rel, digest in files.items():
            assert file_sha256(path.parent / rel) == digest, rel


def test_every_gated_check_passes(suite_run):
    suite, _, _ = suite_run
    failed = [(c["name"], c["value"]) for c in suite["checks"]
              if not c["passed"] and c["name"] != _UNGATED]
    assert failed == []
    ungated = [c for c in suite["checks"] if c["name"] == _UNGATED]
    assert len(ungated) == 1
    print(f"{_UNGATED}: value {ungated[0]['value']:g}, "
          f"bound {ungated[0]['bound']}, passed {ungated[0]['passed']}")
