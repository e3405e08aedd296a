import json

import numpy as np
import pytest

from bellquench.cli import main
from bellquench.output import sha256_file


def run(argv):
    return main(argv)


def read_json(path):
    return json.loads(open(path).read())


class TestEvolve:
    def test_no_quench_constant_columns(self, tmp_path):
        out = tmp_path / "run"
        code = run(["evolve", "--gamma", "1.0", "--alpha", "10", "--kind",
                    "field", "--q-initial", "0.7", "--q-final", "0.7",
                    "--t-max", "4", "--dt", "0.5", "--n", "32",
                    "--out", str(out)])
        assert code == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,mz,cxx,cyy,czz,cxy,cyx,bell,logneg"
        rows = [line.split(",") for line in lines[1:]]
        for col in range(1, 9):
            values = [float(row[col]) for row in rows]
            assert max(values) - min(values) < 1e-12

    def test_intra_beats_inter_saturation(self, tmp_path):
        results = {}
        for tag, (hi, hf) in {"intra": (1.5, 2.5), "inter": (0.5, 2.5)}.items():
            out = tmp_path / tag
            assert run(["evolve", "--gamma", "1.0", "--alpha", "10",
                        "--kind", "field", "--q-initial", str(hi),
                        "--q-final", str(hf), "--t-max", "120", "--dt", "0.5",
                        "--n", "256", "--out", str(out)]) == 0
            rows = (out / "timeseries.csv").read_text().splitlines()[1:]
            bell = [float(r.split(",")[7]) for r in rows]
            results[tag] = np.mean(bell[len(bell) // 2:])
        assert results["intra"] > results["inter"]

    def test_matches_oracle_run(self, tmp_path):
        out = tmp_path / "r"
        assert run(["evolve", "--gamma", "1.0", "--alpha", "10", "--kind",
                    "field", "--q-initial", "0.5", "--q-final", "2.5",
                    "--t-max", "2", "--dt", "0.5", "--n", "10",
                    "--out", str(out)]) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        from bellquench import oracle
        from bellquench.model import ModelParams, field_quench
        from bellquench.bell import bell_value
        q = field_quench(ModelParams(N=10, gamma=1.0, alpha=10.0, h=0.5),
                         0.5, 2.5)
        for row in rows:
            vals = [float(x) for x in row.split(",")]
            reference, _ = oracle.oracle_quench(q, vals[0])
            assert abs(vals[1] - reference.mz) < 1e-6
            assert abs(vals[7] - bell_value(reference)) < 1e-6


class TestSweepCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "s"
        assert run(["sweep", "--gamma", "0.5", "--alpha", "2.0", "--kind",
                    "field", "--step", "0.25", "--n", "64",
                    "--quantifiers", "bell,czz", "--out", str(out)]) == 0
        for name in ("values_bell.csv", "values_czz.csv",
                     "same_phase_mask.csv", "axes.csv", "results.json",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["schema_version"] == 1
        for name, digest in manifest["checksums"].items():
            assert sha256_file(out / name) == digest
        results = read_json(out / "results.json")
        assert 0.0 <= results["bell"]["eta"] <= 1.0

    def test_all_same_phase_grid_exit_code(self, tmp_path):
        code = run(["sweep", "--gamma", "0.5", "--alpha", "2.0", "--kind",
                    "field", "--q-min", "1.5", "--q-max", "2.0", "--step",
                    "0.25", "--n", "32", "--cross-lines", "model",
                    "--out", str(tmp_path / "x")])
        assert code == 3
        assert not (tmp_path / "x").exists()

    def test_determinism_across_runs(self, tmp_path):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["sweep", "--gamma", "0.2", "--alpha", "10", "--kind",
                        "field", "--step", "0.1", "--n", "128",
                        "--out", str(out)]) == 0
            digests.append({name: sha256_file(out / name)
                            for name in ("values_bell.csv", "results.json",
                                         "same_phase_mask.csv", "axes.csv")})
        assert digests[0] == digests[1]

    def test_unknown_quantifier_rejected(self, tmp_path):
        assert run(["sweep", "--gamma", "0.5", "--alpha", "2.0", "--kind",
                    "field", "--quantifiers", "bogus", "--n", "32",
                    "--step", "0.5", "--out", str(tmp_path / "q")]) == 2


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep config\ngamma = 0.5\nalpha = 2.0\n"
                       "kind = field\nstep = 0.5\nn = 32\n")
        out = tmp_path / "o"
        assert run(["sweep", "--config", str(cfg), "--gamma", "0.8",
                    "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["gamma"] == 0.8  # flag wins

    def test_unknown_key_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.5\nbogus = 1\n")
        assert run(["sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 0.5\n")
        assert run(["sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = fast\n")
        assert run(["sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert "gamma" in capsys.readouterr().err


class TestFitCommand:
    def test_roundtrip_synthetic_curve(self, tmp_path):
        xs = np.arange(0.5, 10.01, 0.1)
        curve = tmp_path / "curve.csv"
        rows = ["alpha,b_c"] + [
            f"{x:.17g},{0.3 * np.exp(-0.05 * x * x) + 1.7:.17g}" for x in xs]
        curve.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        assert run(["fit", "--curve", str(curve), "--model", "gaussian",
                    "--out", str(out)]) == 0
        payload = read_json(out / "fit.json")
        assert abs(payload["A"] - 0.3) < 1e-5
        assert abs(payload["B"] - 0.05) < 1e-5
        assert abs(payload["C"] - 1.7) < 1e-5

    def test_malformed_row_names_line(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("alpha,b_c\n1.0,2.0\noops\n")
        out = tmp_path / "f"
        assert run(["fit", "--curve", str(curve), "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gaussian", "trigaussian"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_row_refused_at_once(self, tmp_path, capsys, model, bad):
        import time

        xs = np.arange(0.5, 6.01, 0.25)
        rows = [f"{x:.17g},{1.7 + 0.3 * np.exp(-0.05 * x * x):.17g}" for x in xs]
        rows[5] = f"{xs[5]:.17g},{bad}"
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join(["alpha,b_c"] + rows) + "\n")
        out = tmp_path / "f"
        started = time.perf_counter()
        assert run(["fit", "--curve", str(curve), "--model", model,
                    "--out", str(out)]) == 2
        assert time.perf_counter() - started < 1.0
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_default_validation_passes(self, tmp_path):
        out = tmp_path / "o"
        assert run(["oracle", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["pass"] is True
        assert report["spectrum_max_dev"] < 1e-8
        assert report["correlator_max_dev"] < 1e-6

    def test_failed_report_written_with_exit_3(self, tmp_path, monkeypatch):
        # a failed check is a result: the report and its checksum are
        # written, and the exit code says it failed
        from bellquench import oracle
        monkeypatch.setattr(oracle, "spectrum_match", lambda params: 1.0)
        out = tmp_path / "o"
        assert run(["oracle", "--n", "6", "--out", str(out)]) == 3
        report = read_json(out / "report.json")
        assert report["pass"] is False and report["spectrum_max_dev"] == 1.0
        checksums = read_json(out / "manifest.json")["checksums"]
        assert checksums == {"report.json": sha256_file(out / "report.json")}

    def test_resource_cap_exit_code(self, tmp_path):
        assert run(["oracle", "--n", "16",
                    "--out", str(tmp_path / "o")]) == 4

    def test_trivial_coupling_spectrum(self, tmp_path):
        out = tmp_path / "j0"
        assert run(["oracle", "--n", "6", "--j", "1e-13", "--gamma", "0.5",
                    "--alpha", "2.0", "--h-initial", "0.8", "--h-final",
                    "0.8", "--out", str(out)]) == 0


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BELLQUENCH_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run(["oracle", "--n", "6"]) == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_float_serialization_roundtrip(tmp_path):
    out = tmp_path / "r"
    assert run(["evolve", "--gamma", "0.31", "--alpha", "1.7", "--kind",
                "field", "--q-initial", "0.123456789012345", "--q-final",
                "1.5", "--t-max", "1", "--dt", "0.5", "--n", "16",
                "--out", str(out)]) == 0
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    for row in rows:
        for token in row.split(","):
            assert float(token) == float(f"{float(token):.17g}")


class TestCouplingKind:
    def test_coupling_evolve(self, tmp_path):
        out = tmp_path / "c"
        assert run(["evolve", "--gamma", "0.4", "--h", "-0.5", "--kind",
                    "coupling", "--q-initial", "1.0", "--q-final", "2.5",
                    "--t-max", "2", "--dt", "0.5", "--n", "32",
                    "--out", str(out)]) == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_coupling_sweep_defaults(self, tmp_path):
        out = tmp_path / "cs"
        assert run(["sweep", "--gamma", "0.4", "--h", "-0.5", "--kind",
                    "coupling", "--step", "0.25", "--n", "32",
                    "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["boundary"] == "exclude"
        assert manifest["config"]["q_min"] == 0.5

    @pytest.mark.parametrize("argv", [
        ["sweep", "--h", "0.9"],
        ["threshold-curve", "--points", "0.9"],
    ], ids=["sweep", "threshold-curve"])
    def test_out_of_window_field_refused(self, tmp_path, capsys, argv):
        # outside the window the coupling line never enters the alpha
        # grid: both commands refuse the field itself, before any map
        assert run([*argv, "--gamma", "0.4", "--kind", "coupling",
                    "--step", "0.25", "--n", "32",
                    "--out", str(tmp_path / "w")]) == 2
        assert "outside (-0.75, 0.414214)" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_coupling_threshold_curve(self, tmp_path):
        out = tmp_path / "tc"
        assert run(["threshold-curve", "--gamma", "0.4", "--kind", "coupling",
                    "--points=-0.5,-0.2", "--step", "0.1", "--n", "64",
                    "--out", str(out)]) == 0
        rows = (out / "curve.csv").read_text().splitlines()
        assert rows[0] == "h,b_c"
        assert len(rows) == 3
        config = read_json(out / "manifest.json")["config"]
        assert (config["boundary"], config["cross_lines"]) == ("exclude", "model")

    def test_coupling_curve_refuses_nn_limit(self, tmp_path, capsys):
        out = tmp_path / "nn"
        assert run(["threshold-curve", "--gamma", "0.4", "--kind", "coupling",
                    "--points=-0.5", "--step", "0.1", "--n", "16",
                    "--cross-lines", "nn_limit", "--out", str(out)]) == 2
        assert "nn_limit" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags,code", [
    (["--alpha", "10", "--boundary", "foo"], 2),
    (["--kind", "coupling", "--h", "-0.5", "--cross-lines", "nn_limit"], 2),
    # alpha_c(0.9) = 0.074 lies inside this grid, so the cross set is
    # not empty, but the same-phase area formula has no value there
    (["--kind", "coupling", "--h", "0.9", "--q-min", "0.05", "--q-max", "3.05"], 2),
])
def test_sweep_refuses_before_writing(tmp_path, flags, code):
    out = tmp_path / "s"
    assert run(["sweep", "--gamma", "0.4", "--step", "0.25", "--n", "16",
                *flags, "--out", str(out)]) == code
    assert not out.exists()


class TestNonFiniteInput:
    def test_threshold_curve_nan_point(self, tmp_path, capsys):
        assert run(["threshold-curve", "--gamma", "0.5", "--points", "nan",
                    "--n", "16", "--out", str(tmp_path / "nan")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_evolve_infinite_alpha(self, tmp_path, capsys):
        assert run(["evolve", "--gamma", "1.0", "--alpha", "inf",
                    "--q-initial", "0.5", "--q-final", "2.5", "--t-max", "1",
                    "--n", "16", "--out", str(tmp_path / "inf")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--q-max", "inf"), ("--step", "nan")])
    def test_sweep_non_finite_grid(self, tmp_path, capsys, flag, value):
        assert run(["sweep", "--gamma", "0.2", "--alpha", "10", flag, value,
                    "--n", "16", "--out", str(tmp_path / "g")]) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_oracle_non_finite_time(self, tmp_path, capsys, t):
        out = tmp_path / "t"
        assert run(["oracle", "--t", t, "--out", str(out)]) == 2
        assert "t must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestResourceCap:
    """Oversized inputs exit 4 at once, before any large allocation."""

    @pytest.mark.parametrize("argv", [
        ["evolve", "--gamma", "1.0", "--alpha", "10", "--q-initial", "0.5",
         "--q-final", "2.5", "--n", "1000000"],
        ["sweep", "--gamma", "0.2", "--alpha", "10", "--step", "1e-7"],
        ["threshold-curve", "--gamma", "0.2", "--points", "1,2", "--step", "1e-7"],
        ["threshold-curve", "--gamma", "0.8", "--kind", "coupling",
         "--points=-0.5", "--n", "1000000"],
        # the 2^14 x 2^14 dense matrix alone would take 2 GiB
        ["oracle", "--n", "14"],
    ])
    def test_refused_before_allocating(self, tmp_path, monkeypatch, capsys, argv):
        import time

        def no_alloc(*args, **kwargs):
            raise AssertionError("an oversized array was allocated")

        monkeypatch.setattr(np, "outer", no_alloc)
        monkeypatch.setattr(np, "arange", no_alloc)
        monkeypatch.setattr(np, "zeros", no_alloc)
        started = time.perf_counter()
        assert run(argv + ["--out", str(tmp_path / "cap")]) == 4
        assert time.perf_counter() - started < 1.0
        assert "resource cap" in capsys.readouterr().err
        assert not (tmp_path / "cap").exists()


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # a real `fit` in a fresh process: no scipy module at all is loaded
    import os
    import subprocess
    import sys

    import bellquench

    src = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))
    curve = tmp_path / "curve.csv"
    curve.write_text("alpha,b_c\n" + "".join(
        f"{x:.17g},{1.7 + 0.3 * np.exp(-0.05 * x * x):.17g}\n"
        for x in np.arange(0.5, 6.01, 0.25)))
    code = ("import sys, bellquench.cli as cli; "
            f"code = cli.main(['fit', '--curve', {str(curve)!r}, "
            f"'--out', {str(tmp_path / 'fit')!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src),
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "fit" / "fit.json").exists()


EVOLVE_README = ["evolve", "--gamma", "1.0", "--alpha", "10", "--kind", "field",
                 "--q-initial", "0.5", "--q-final", "2.5", "--n", "512"]


class TestEvolveArrays:
    def test_columns_match_scalar_path(self, tmp_path):
        from bellquench.bell import bell_value, log_negativity, reconstruct_rho12
        from bellquench.dynamics import correlators_at
        from bellquench.model import ModelParams, field_quench

        out = tmp_path / "e"
        assert run(["evolve", "--gamma", "0.6", "--alpha", "1.5", "--kind",
                    "field", "--q-initial", "0.3", "--q-final", "-1.7",
                    "--t-max", "60", "--dt", "0.1", "--n", "64",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
        q = field_quench(ModelParams(N=64, gamma=0.6, alpha=1.5, h=0.3), 0.3, -1.7)
        for k in (0, 255, 256, 511, 512, rows.shape[0] - 1):
            c = correlators_at(q, rows[k, 0])
            expected = [c.mz, c.cxx, c.cyy, c.czz, c.cxy, c.cyx, bell_value(c),
                        log_negativity(reconstruct_rho12(c))]
            assert np.max(np.abs(rows[k, 1:] - expected)) < 1e-12

    def test_memory_bound(self, tmp_path):
        # N = 512, 12001 samples: the whole command (3.4 MB traced) and
        # the CorrelatorSet list (4.0 MB) stay far below one (T x N/2)
        # float array (24.6 MB)
        import tracemalloc

        from bellquench.dynamics import TimeGrid, correlator_time_series
        from bellquench.model import ModelParams, field_quench

        tracemalloc.start()
        try:
            assert run(EVOLVE_README + ["--t-max", "1200", "--dt", "0.1",
                                        "--out", str(tmp_path / "m")]) == 0
            evolve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            q = field_quench(ModelParams(N=512, gamma=1.0, alpha=10.0, h=0.5), 0.5, 2.5)
            assert len(correlator_time_series(q, TimeGrid(1200.0, 0.1))) == 12001
            series_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert evolve_peak < 8e6
        assert series_peak < 8e6

    def test_time_grid_cap_exit_code(self, tmp_path, capsys):
        import time

        started = time.perf_counter()
        assert run(EVOLVE_README + ["--t-max", "1e6", "--dt", "1e-6",
                                    "--out", str(tmp_path / "cap")]) == 4
        assert time.perf_counter() - started < 1.0
        assert "resource cap" in capsys.readouterr().err
        assert not (tmp_path / "cap").exists()

    def test_non_psd_state_exit_code(self, tmp_path, monkeypatch, capsys):
        import bellquench.cli as cli

        def bad_arrays(quench, grid):
            one = np.ones(2)
            return 0.5 * np.arange(2), 0.9 * one, one, -one, one, 0.0 * one

        monkeypatch.setattr(cli, "correlator_arrays", bad_arrays)
        out = tmp_path / "bad"
        assert run(EVOLVE_README + ["--out", str(out)]) == 3
        assert "non-positive" in capsys.readouterr().err
        assert not out.exists()


REMOVED_SETTINGS_ARGV = {
    "evolve": EVOLVE_README,
    "sweep": ["sweep", "--gamma", "0.4", "--alpha", "2.0", "--step", "0.5",
              "--n", "16"],
    "threshold-curve": ["threshold-curve", "--gamma", "0.4", "--points", "1",
                        "--step", "0.5", "--n", "16"],
    "fit": ["fit", "--curve", "curve.csv"],
    "oracle": ["oracle", "--n", "6"],
}


@pytest.mark.parametrize("command", list(REMOVED_SETTINGS_ARGV))
@pytest.mark.parametrize("flag,line", [
    (["--workers", "2"], "workers = 2"),
    (["--absolute-czz"], "absolute_czz = true"),
], ids=["workers", "absolute_czz"])
def test_removed_settings_refused(tmp_path, command, flag, line):
    # neither a flag nor a config-file line takes a setting that is gone
    argv = REMOVED_SETTINGS_ARGV[command]
    out = tmp_path / "w"
    with pytest.raises(SystemExit) as exc:
        run(argv + flag + ["--out", str(out)])
    assert exc.value.code == 2
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert run(argv + ["--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


def test_negative_points_list_forms(tmp_path):
    digests = []
    for tag, points in (("split", ["--points", "-0.7,0.3"]),
                        ("joined", ["--points=-0.7,0.3"])):
        out = tmp_path / tag
        assert run(["threshold-curve", "--gamma", "0.4", "--kind", "coupling",
                    *points, "--step", "0.1", "--n", "16",
                    "--out", str(out)]) == 0
        digests.append(sha256_file(out / "curve.csv"))
    assert digests[0] == digests[1]
    rows = (tmp_path / "split" / "curve.csv").read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [-0.7, 0.3]


def test_sweep_counts_cross_cells_of_its_policy(tmp_path):
    out = tmp_path / "nc"
    assert run(["sweep", "--gamma", "0.2", "--alpha", "10", "--kind", "field",
                "--step", "0.1", "--n", "16", "--out", str(out)]) == 0
    assert read_json(out / "results.json")["bell"]["n_cross_cells"] == 1760


class TestOneParser:
    """Flags and config-file values go through the same text-to-value step."""

    def test_bad_flag_value_names_key(self, tmp_path, capsys):
        out = tmp_path / "n"
        assert run(["oracle", "--n", "abc", "--out", str(out)]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_list_items_skipped_alike(self, tmp_path):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("points = 1,,2\n")
        curve = ["threshold-curve", "--gamma", "0.4", "--step", "0.1", "--n", "16"]
        assert run(curve + ["--points", "1,,2", "--out", str(tmp_path / "f")]) == 0
        assert run(curve + ["--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        flag, file = tmp_path / "f" / "curve.csv", tmp_path / "c" / "curve.csv"
        assert sha256_file(flag) == sha256_file(file)
        rows = flag.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [1.0, 2.0]

    def test_empty_list_refused_alike(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("quantifiers =\n")
        sweep = ["sweep", "--gamma", "0.5", "--alpha", "2.0", "--step", "0.5",
                 "--n", "16"]
        for tag, extra in (("flag", ["--quantifiers", ""]),
                           ("file", ["--config", str(cfg)])):
            out = tmp_path / tag
            assert run(sweep + extra + ["--out", str(out)]) == 2
            assert "quantifiers" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("target", ["empty", "file", "under_file"])
def test_unusable_out_refused_before_running(tmp_path, monkeypatch, capsys, target):
    import bellquench.cli as cli

    def never(config):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_oracle", never)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    paths = {"empty": "", "file": str(out), "under_file": str(out / "sub" / "o")}
    assert run(["oracle", "--out", paths[target]]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"
