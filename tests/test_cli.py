"""End-to-end checks of the command line runner and its manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorenzlab
from lorenzlab.cli import main
from lorenzlab.config import (
    ExperimentConfig,
    load_config,
    make_config,
    read_config_file,
)
from lorenzlab.errors import ConfigError
from lorenzlab.experiments import _law, run_directory
from lorenzlab.manifest import file_sha256, write_csv
from lorenzlab.noise import NoiseLaw


def _fast_attractor_args(out_dir):
    # Small enough to finish in under a second, large enough that the
    # sweep check is not vacuous.
    return [
        "attractor",
        "-s", "n_samples=400",
        "-s", "t_final=5",
        "-s", f"out_dir={out_dir}",
    ]


def _run_manifest(capsys):
    """Return (exit_code, manifest dict, stdout) for the captured run."""
    captured = capsys.readouterr()
    line = [l for l in captured.out.splitlines() if l.startswith("manifest:")]
    assert len(line) == 1
    path = line[0].split("manifest:", 1)[1].strip()
    with open(path) as fh:
        return json.load(fh), captured.out


class TestConfigParsing:
    def test_defaults_are_valid(self):
        cfg = make_config({})
        assert cfg.experiment == "stat-stability"
        assert cfg.eps_ladder[0] > cfg.eps_ladder[-1]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            make_config({"epz": "0.1"})

    def test_bad_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            make_config({"eps": "plenty"})

    def test_ladder_must_decrease(self):
        # a tuple is checked like parsed text
        for ladder in ("0.1,0.1,0.05", (0.01, 0.1, 0.05)):
            with pytest.raises(ConfigError, match="strictly decreasing"):
                make_config({"eps_ladder": ladder})

    def test_ladder_rungs_positive_and_present(self):
        for ladder in ((0.01, 0.1, -0.5), "0.1,0.05,0"):
            with pytest.raises(ConfigError, match="must be > 0"):
                make_config({"eps_ladder": ladder})
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentConfig(eps_ladder=())

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError, match="eps must be >= 0"):
            make_config({"eps": "-0.01"})

    @pytest.mark.parametrize("key, value, message", [
        ("experiment", "lorenz", "unknown experiment 'lorenz'"),
        ("noise_kind", "cauchy", "unknown noise_kind 'cauchy'"),
        ("t_final", "0", "t_final must be > 0"),
        ("eps_box", "-25", "eps_box must be > 0"),
        ("n_transitions", "0", "n_transitions must be >= 1"),
        ("burn_in", "-1", "burn_in must be >= 0"),
        ("n_bins", "15", "n_bins must be >= 16"),
        ("seed", "-3", "seed must be >= 0"),
    ])
    def test_out_of_range_value_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            make_config({key: value})

    def test_noise_kind_selects_the_law(self):
        def law(kind, eps=0.05):
            return _law(make_config({"noise_kind": kind, "eps": eps}))

        assert law("delta_zero") == NoiseLaw.delta_zero()
        for kind in ("uniform", "discrete", "trunc_gauss"):
            assert law(kind, eps=0.0) == NoiseLaw.delta_zero()
        assert law("uniform") == NoiseLaw.uniform(0.05)
        assert law("discrete") == NoiseLaw.discrete((0.025, 0.05))
        assert law("trunc_gauss") == NoiseLaw.trunc_gauss(sigma=0.025,
                                                          eps=0.05)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment only\n"
            "\n"
            "experiment = pdmp\n"
            "eps = 0.02   # trailing comment\n"
        )
        pairs = read_config_file(path)
        assert pairs == {"experiment": "pdmp", "eps": "0.02"}

    def test_config_file_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eps = 0.02\nnot a pair\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            read_config_file(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config_file(tmp_path / "absent.cfg")

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eps = 0.02\nseed = 7\n")
        cfg = load_config(path, {"eps": "0.1"})
        assert cfg.eps == 0.1
        assert cfg.seed == 7


class TestExitCodes:
    def test_validation_failure_is_2(self, capsys):
        assert main(["attractor", "-s", "eps=-1"]) == 2
        assert "eps must be >= 0" in capsys.readouterr().err

    def test_unknown_key_is_2(self, capsys):
        assert main(["attractor", "-s", "bogus=3"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_override_is_2(self, capsys):
        assert main(["attractor", "-s", "eps_box"]) == 2
        assert "not key=value" in capsys.readouterr().err

    def test_experiment_specific_validation_is_2(self, capsys, tmp_path):
        # Each floor is only checkable once the experiment is known, and
        # each is rejected before the run directory exists: the stationary
        # estimators need a margin over the burn-in, the conjugation check
        # 100 probes, the empirical map 1000 successive pairs, the Kendall
        # trend three rungs and a decreasing gap sequence two. full-suite
        # is held to every sub-runner's floors before its first sub-run.
        for experiment, override, floor in (
                ("pdmp", "n_transitions=1100", ">= 1000"),
                ("pdmp", "probes=99", ">= 100"),
                ("cusp-map", "n_samples=1000", ">= 1001"),
                ("stat-stability", "eps_ladder=0.1,0.05,0", "> 0"),
                ("stat-stability", "eps_ladder=0.1", ">= 3"),
                ("stat-stability", "eps_ladder=0.1,0.05", ">= 3"),
                ("stochastic-stability", "eps_ladder=0.1", ">= 2"),
                ("full-suite", "eps_ladder=0.1,0.05", ">= 3"),
                ("full-suite", "n_samples=1000", ">= 1001"),
                ("full-suite", "probes=99", ">= 100"),
                ("full-suite", "n_transitions=1100", ">= 1000")):
            rc = main([experiment, "-s", override,
                       "-s", f"out_dir={tmp_path}"])
            assert rc == 2
            assert floor in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_runtime_failure_is_1_with_partial_manifest(self, capsys,
                                                        tmp_path):
        # A tiny membership box puts the start point outside the section
        # and the approach search exhausts its horizon.
        rc = main(["pdmp", "-s", "eps_box=5", "-s", f"out_dir={tmp_path}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "HorizonExceeded" in captured.err
        run_dirs = list(tmp_path.glob("pdmp-*"))
        assert len(run_dirs) == 1
        manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "HorizonExceeded" in manifest["error"]
        assert manifest["all_passed"] is False


class TestPrintConfig:
    def test_prints_and_exits_zero(self, capsys):
        assert main(["pdmp", "-s", "eps=0.02", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "experiment = pdmp" in out
        assert "eps = 0.02" in out

    def test_output_is_reloadable(self, capsys, tmp_path):
        inputs = (([], make_config({}).eps_ladder),
                  (["-s", "eps_ladder=0.1,0.0123456789"], (0.1, 0.0123456789)))
        for extra, ladder in inputs:
            assert main(["cusp-map", "-s", "seed=3", *extra,
                         "--print-config"]) == 0
            text = capsys.readouterr().out
            path = tmp_path / "echo.cfg"
            path.write_text(text)
            cfg = load_config(path)
            assert cfg.experiment == "cusp-map"
            assert cfg.seed == 3
            assert cfg.eps_ladder == ladder
        # every digit of a ladder entry reaches the run directory
        dirs = {run_directory(make_config({"eps_ladder": text}))
                for text in ("0.1,0.0123456789", "0.1,0.0123457")}
        assert len(dirs) == 2


class TestAttractorRun:
    def test_fast_run_passes(self, capsys, tmp_path):
        rc = main(_fast_attractor_args(tmp_path))
        assert rc == 0
        manifest, out = _run_manifest(capsys)
        assert manifest["status"] == "ok"
        assert manifest["all_passed"] is True
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        names = [c["name"] for c in manifest["checks"]]
        assert "lyapunov-bound-violations" in names

    def test_manifest_hashes_match_files(self, capsys, tmp_path):
        assert main(_fast_attractor_args(tmp_path)) == 0
        manifest, _ = _run_manifest(capsys)
        run_dir = next(tmp_path.glob("attractor-*"))
        assert manifest["files"], "run should produce artifacts"
        for rel, digest in manifest["files"].items():
            assert file_sha256(run_dir / rel) == digest

    def test_artifacts_are_deterministic(self, capsys, tmp_path):
        assert main(_fast_attractor_args(tmp_path / "a")) == 0
        first, _ = _run_manifest(capsys)
        assert main(_fast_attractor_args(tmp_path / "b")) == 0
        second, _ = _run_manifest(capsys)
        # Manifests differ in timestamps; the artifact hashes must not.
        assert first["files"] == second["files"]
        assert first["checks"] == second["checks"]

        def strip_timing(node):
            if isinstance(node, dict):
                return {k: strip_timing(v) for k, v in node.items()
                        if k != "elapsed_s"}
            return node

        assert strip_timing(first["results"]) == \
            strip_timing(second["results"])


def test_csv_writer_keeps_integers_exact(tmp_path):
    # seeds above 1e17 would round under %.17g; floats keep 17 digits
    path = tmp_path / "rows.csv"
    write_csv(path, "eps,passed,seed", [(0.1, True, 2 ** 63 + 1)])
    assert path.read_text() == \
        "eps,passed,seed\n0.10000000000000001,1,9223372036854775809\n"


def test_import_does_not_load_scipy_stats():
    """scipy.stats, scipy.interpolate, scipy.ndimage and scipy.optimize are
    imported where they are called, not with the package, and
    scipy.integrate not at all."""
    src = str(Path(lorenzlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, lorenzlab; print([m for m in ('scipy.stats', "
            "'scipy.interpolate', 'scipy.ndimage', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
