import contextlib
import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bellquench
import bellquench.cli as cli
import bellquench.sweep as sweep_mod
from bellquench import dynamics, momentum
from bellquench.cli import main
from bellquench.dynamics import MAX_TIME_SAMPLES
from bellquench.oracle import BUILD_CAP
from bellquench.output import openblas, sha256_file, write_json, writer_cpus


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_stopped_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a re-run into the same directory whose writer fails once
        # timeseries.csv is written leaves no manifest of the first run
        # beside the new file
        from bellquench.errors import BellquenchError
        from bellquench.output import write_csv
        out = tmp_path / "e"
        argv = ["evolve", "--gamma", "1.0", "--alpha", "10", "--kind",
                "field", "--q-initial", "0.5", "--q-final", "2.5",
                "--t-max", "2", "--dt", "0.5", "--n", "16", "--out", str(out)]
        assert run(argv) == 0 and (out / "manifest.json").exists()

        def failing(path, *data):
            write_csv(path, *data)
            raise BellquenchError("a CSV writer process failed")

        monkeypatch.setattr(cli, "write_csv", failing)
        argv[2] = "0.5"
        assert run(argv) == 1
        assert (out / "timeseries.csv").exists()
        assert not (out / "manifest.json").exists()


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
        runtime = manifest["runtime"]  # outside the checksums
        assert set(runtime) == {"blas", "blas_version", "blas_corename",
                                "blas_threads", "blas_thread_timeout", "writer_cpus"}
        assert runtime["writer_cpus"] == (len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else 1)

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


    def test_files_are_closed(self, tmp_path, monkeypatch):
        # an unclosed file warns when it is collected, inside __del__,
        # where the error the filter makes of the warning reaches
        # sys.unraisablehook instead of the caller
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.4\npoints = 1,2\nstep = 0.1\nn = 16\n")
        curve = tmp_path / "curve.csv"
        curve.write_text("alpha,b_c\n" + "".join(
            f"{x:.17g},{0.3 * np.exp(-0.05 * x * x) + 1.7:.17g}\n"
            for x in np.arange(0.5, 10.01, 0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run(["threshold-curve", "--config", str(cfg),
                        "--out", str(tmp_path / "c")]) == 0
            assert run(["fit", "--curve", str(curve),
                        "--out", str(tmp_path / "f")]) == 0
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_json_value_is_null(tmp_path, value):
    path = tmp_path / "v.json"
    write_json(path, {"x": value, "y": [np.float64(value), 1.5]})
    assert read_json(path) == {"x": None, "y": [None, 1.5]}


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
    # cross cells exist, but same_phase_area is the area over [-3, 3]^2
    (["--alpha", "10", "--q-min", "-1.5", "--q-max", "1.5"], 2),
])
def test_sweep_refuses_before_writing(tmp_path, flags, code):
    out = tmp_path / "s"
    assert run(["sweep", "--gamma", "0.4", "--step", "0.25", "--n", "16",
                *flags, "--out", str(out)]) == code
    assert not out.exists()


SRC = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))


@pytest.mark.skipif(openblas() is None, reason="a curve forks only where its "
                    "BLAS can be pinned to one thread")
class TestCurveWorkers:
    """threshold-curve runs its points in forked workers, every product on
    one pinned OpenBLAS thread."""

    def test_refusal_comes_before_any_fork(self, tmp_path, forks, capsys):
        # alpha 1 has cross-phase cells on this grid and alpha 10 none:
        # the second worker's point is refused here (exit 3), not in the
        # worker (exit 1, "a curve worker process failed")
        out = tmp_path / "u"
        assert run(["threshold-curve", "--kind", "field", "--gamma", "1", "--n", "16",
                    "--q-min", "-0.5", "--q-max", "0.5", "--step", "0.1",
                    "--points=1,10", "--cross-lines", "model", "--out", str(out)]) == 3
        assert "no cross-phase cells" in capsys.readouterr().err
        assert not out.exists() and forks == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_exits_nonzero(self, tmp_path, monkeypatch, forks, capsys):
        parent, cross_max = os.getpid(), sweep_mod._cross_max

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return cross_max(*args)

        monkeypatch.setattr(sweep_mod, "_cross_max", dying)
        out = tmp_path / "d"
        assert run(["threshold-curve", "--gamma", "0.4", "--points", "1,2,3",
                    "--step", "0.1", "--n", "16", "--out", str(out)]) == 1
        assert "a curve worker process failed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists() and forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # the estimate of one process for these curves (a kernel of 61 grid
    # values, N 16)
    FOOTPRINT = momentum.check_footprint(16, 61, 2 * dynamics.ROW_CHUNK * 61)

    @pytest.mark.parametrize("points,cpus,cap,workers", [
        ("1", 2, momentum.MEMORY_CAP, 1), ("1,2,3", 2, momentum.MEMORY_CAP, 2),
        # each worker builds a kernel of its own: of 64 CPUs, a cap that
        # holds two footprints allows two workers, one byte less one
        ("1,2,3", 64, 2 * FOOTPRINT, 2), ("1,2,3", 64, 2 * FOOTPRINT - 1, 1),
    ])
    def test_manifest_records_threads_and_workers(self, tmp_path, monkeypatch, forks,
                                                  points, cpus, cap, workers):
        monkeypatch.setattr(sweep_mod, "writer_cpus", lambda: cpus)
        monkeypatch.setattr(momentum, "MEMORY_CAP", cap)
        monkeypatch.setattr(sweep_mod, "MEMORY_CAP", cap)
        out = tmp_path / "m"
        assert run(["threshold-curve", "--gamma", "0.4", "--points", points,
                    "--step", "0.1", "--n", "16", "--out", str(out)]) == 0
        runtime = read_json(out / "manifest.json")["runtime"]
        assert (runtime["blas_threads"], runtime["curve_workers"]) == (1, workers)
        assert len(forks) == workers - 1

    def test_curve_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the README coupling curve and each of its points alone write
        # the same rows at one and at the default OpenBLAS threads, per
        # kernel; unpinned, h -0.5 read 1.7093020048109264 at two
        # threads and 1.7093020048109273 at one
        points = ["-0.7", "-0.5", "-0.2"]
        code = ("import sys\nfrom bellquench.cli import main\n"
                "out, points = sys.argv[1], sys.argv[2:]\n"
                "for tag, run in [('all', points)] + [(p, [p]) for p in points]:\n"
                "    assert main(['threshold-curve', '--gamma', '0.8', '--kind',\n"
                "                 'coupling', '--points=' + ','.join(run),\n"
                "                 '--out', out + '/' + tag]) == 0\n")
        for coretype in (None, "Haswell"):
            texts = []
            for threads in (None, "1"):
                env = {k: v for k, v in os.environ.items()
                       if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
                env.update(PYTHONPATH=SRC, **{k: v for k, v in (
                    ("OPENBLAS_NUM_THREADS", threads),
                    ("OPENBLAS_CORETYPE", coretype)) if v is not None})
                out = tmp_path / f"{coretype}-{threads}"
                subprocess.run([sys.executable, "-c", code, str(out), *points],
                               env=env, check=True, capture_output=True)
                whole = (out / "all" / "curve.csv").read_text()
                alone = [(out / p / "curve.csv").read_text().splitlines()[1]
                         for p in points]
                assert whole.splitlines()[1:] == alone, (coretype, threads)
                texts.append(whole)
            assert texts[0] == texts[1], coretype


@pytest.mark.skipif(openblas() is None or writer_cpus() < 2,
                    reason="needs numpy's scipy-openblas and two CPUs for a BLAS worker")
class TestBlasIdleSpin:
    """The package starts OpenBLAS with a short idle spin
    (OPENBLAS_THREAD_TIMEOUT 20) unless the environment sets one."""

    @staticmethod
    def child(code, *args, timeout=None):
        """stdout of `code` run with `args` in a fresh interpreter, with
        OPENBLAS_THREAD_TIMEOUT `timeout` (unset for None) and the BLAS's
        default thread count."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS")}
        env.update(PYTHONPATH=SRC, **({} if timeout is None else
                                      {"OPENBLAS_THREAD_TIMEOUT": timeout}))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              check=True, capture_output=True, text=True).stdout

    def test_idle_worker_sleeps(self):
        # after a threaded product the worker no longer spins: 0.3 s of
        # sleep cost 0.08-0.14 s of process CPU at OpenBLAS's default
        # timeout (2**28 cycles) and 0.0001-0.004 s at 20
        cpu = self.child("import time\nimport bellquench.cli\nimport numpy as np\n"
                         "a = np.ones((800, 800))\na @ a\n"
                         "start = time.process_time()\ntime.sleep(0.3)\n"
                         "print(time.process_time() - start)\n")
        assert float(cpu) < 0.03

    SWEEP = ("import sys\nfrom bellquench.cli import main\n"
             "sys.exit(main(['sweep', '--gamma', '0.8', '--alpha', '3.5', '--n', '16',\n"
             "               '--step', '0.05', '--quantifiers', 'bell,entanglement,czz',\n"
             "               '--out', sys.argv[1]]))\n")

    def test_user_value_kept_and_bytes_unchanged(self, tmp_path):
        # a value the environment sets is the one OpenBLAS starts with,
        # as the manifest records, and the spin changes no byte
        runs = {}
        for timeout in (None, "28"):
            out = tmp_path / str(timeout)
            self.child(self.SWEEP, str(out), timeout=timeout)
            runs[timeout] = read_json(out / "manifest.json")
        assert runs[None]["runtime"]["blas_thread_timeout"] == "20"
        assert runs["28"]["runtime"]["blas_thread_timeout"] == "28"
        assert len(runs[None]["checksums"]) == 6
        assert runs[None]["checksums"] == runs["28"]["checksums"]

    def test_numpy_loaded_first_keeps_openblas_default(self):
        assert self.child("import os, numpy, bellquench\n"
                          "print(bellquench.BLAS_THREAD_TIMEOUT,\n"
                          "      os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
                          ).split() == ["None", "None"]


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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha", "10"],
        ["threshold-curve", "--points", "1"],
    ], ids=["sweep", "threshold-curve"])
    def test_infinite_step_count(self, tmp_path, capsys, argv):
        out = tmp_path / "g"
        assert run([*argv, "--gamma", "0.5", "--q-min=-1e308", "--n", "16",
                    "--out", str(out)]) == 2
        assert "finite number of steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha", "10"],
        ["threshold-curve", "--points", "1"],
    ], ids=["sweep", "threshold-curve"])
    def test_step_beyond_span(self, tmp_path, capsys, argv):
        # 6e-10 steps round to a one-value grid: a configuration error,
        # not a run without cross-phase cells (exit 3)
        out = tmp_path / "g"
        assert run([*argv, "--gamma", "0.5", "--step", "1e10", "--n", "16",
                    "--out", str(out)]) == 2
        assert "at least one step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_oracle_non_finite_time(self, tmp_path, capsys, t):
        out = tmp_path / "t"
        assert run(["oracle", "--t", t, "--out", str(out)]) == 2
        assert "t must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["evolve", "--alpha", "10", "--q-initial", "0.5", "--q-final", "1e308",
          "--t-max", "1", "--dt", "0.5"], 2, "overflow the angle 2 Lambda_f t"),
        # a step whose padded chunk (TIME_CHUNK offsets) runs past 1.8e308
        (["evolve", "--alpha", "10", "--q-initial", "0.5", "--q-final", "2.5",
          "--t-max", "1", "--dt", "1e308"], 2, "overflow the angle 2 Lambda_f t"),
        (["threshold-curve", "--points", "3", "--q-min=-1e300", "--q-max", "1e300",
          "--step", "1e299"], 2, "overflow the steady squares"),
    ], ids=["evolve", "evolve-step", "threshold-curve"])
    def test_non_finite_result_refused(self, tmp_path, capsys, argv, code, message):
        # finite inputs that would overflow the kernels are refused up
        # front: the angle 2 Lambda t (dynamics._check_angles), a field
        # grid's squares (sweep.GridSpec)
        out = tmp_path / "o"
        assert run([*argv, "--gamma", "1", "--n", "8", "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [("sweep", "results.json"),
                                               ("fit", "fit.json")])
    def test_non_finite_json_refused(self, tmp_path, monkeypatch, capsys,
                                     command, name):
        # a NaN bound for the JSON of a run that would exit 0 is refused
        # before anything is written, not written as null
        monkeypatch.setattr(cli, f"cmd_{command}", lambda config: (
            {"x": 1.0}, {name: (write_json, {"model": "m", "y": [0.5, np.nan]})}))
        out = tmp_path / "o"
        assert run([command, "--out", str(out)]) == 3
        assert "NaN or infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csv_refused(self, tmp_path, monkeypatch, capsys):
        # a NaN bound for a CSV reaches the exit-3 net of run_command
        def nan_arrays(quench, grid):
            one = np.ones(2)
            return 0.5 * np.arange(2), 0.5 * one, 0.1 * one, 0.1 * one, np.nan * one, 0 * one

        monkeypatch.setattr(dynamics, "correlator_arrays", nan_arrays)
        out = tmp_path / "o"
        assert run(EVOLVE_README + ["--out", str(out)]) == 3
        assert "timeseries.csv would hold NaN or infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_oracle_report_parses(self, tmp_path):
        # a huge final field makes two deviations NaN, through overflows
        # of the timed kernel and the dense build; the failed report is
        # written with null in their place
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning):
            assert run(["oracle", "--n", "8", "--h-final", "1e308",
                        "--out", str(out)]) == 3
        report = read_json(out / "report.json")
        assert report["pass"] is False and report["correlator_max_dev"] is None
        assert read_json(out / "manifest.json")["results"] == report


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
        # cell and sample counts of hundreds of digits, shown as powers of ten
        ["sweep", "--gamma", "0.5", "--alpha", "2", "--step", "1e-300"],
        ["evolve", "--gamma", "1", "--alpha", "10", "--q-initial", "0.5",
         "--q-final", "2.5", "--t-max", "1", "--dt", "1e-307"],
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
        err = capsys.readouterr().err
        assert "resource cap" in err and len(err) < 160
        assert not (tmp_path / "cap").exists()

    def test_curve_is_charged_its_kernel_not_a_map(self, tmp_path, monkeypatch):
        # 6001 grid values at N 512: their grid^2 map would be estimated
        # at 1.35e9 B, over the cap, but a curve builds none, so the run
        # passes the cap and reaches the kernel (stopped here at its
        # first array); ten times the values still exit 4
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(sweep_mod, "SteadyKernel", reached)
        argv = ["threshold-curve", "--kind", "field", "--gamma", "1", "--points=3.5",
                "--out", str(tmp_path / "c")]
        with pytest.raises(Reached):
            run(argv + ["--step", "0.001"])
        assert run(argv + ["--step", "0.0001"]) == 4
        assert not (tmp_path / "c").exists()


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


SMALL_EVOLVE = ["evolve", "--gamma", "1", "--alpha", "10", "--q-initial", "0.5",
                "--q-final", "2.5", "--n", "16", "--t-max", "2"]
# argv after `bellquench` (None: the import alone) -> the modules it must
# load, the modules it must not load
IMPORT_SETS = {
    "import": (None, ["bellquench.cli"],
               ["bellquench.sweep", "bellquench.fit", "bellquench.oracle",
                "bellquench.dynamics", "bellquench.bell", "bellquench.momentum",
                "numpy.ma", "numpy.random"]),
    "evolve": (SMALL_EVOLVE, ["bellquench.dynamics", "bellquench.bell"],
               ["bellquench.sweep", "bellquench.fit", "bellquench.oracle"]),
    "fit": (["fit", "--curve", "curve.csv"], ["bellquench.fit"],
            ["bellquench.sweep", "bellquench.dynamics", "numpy.ma"]),
    "threshold-curve": (["threshold-curve", "--gamma", "0.4", "--points", "1",
                         "--step", "0.5", "--n", "16"], ["bellquench.sweep"],
                        ["bellquench.fit", "bellquench.oracle"]),
}


@pytest.mark.parametrize("case", list(IMPORT_SETS))
def test_command_loads_only_its_modules(tmp_path, case):
    # a fresh process: the package and cli load no compute module, and
    # each command the ones it runs
    argv, loaded, unloaded = IMPORT_SETS[case]
    (tmp_path / "curve.csv").write_text("alpha,b_c\n" + "".join(
        f"{x:.17g},{1.7 + 0.3 * np.exp(-0.05 * x * x):.17g}\n"
        for x in (0.5, 1.5, 3.0, 5.0)))
    code = ("import json, sys, bellquench.cli as cli; "
            f"argv = {argv!r}; "
            "code = 0 if argv is None else cli.main(argv + ['--out', 'o']); "
            "print(json.dumps(sorted(sys.modules))); sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            capture_output=True, text=True, check=False,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    modules = set(json.loads(result.stdout.splitlines()[-1]))
    assert set(loaded) <= modules
    assert not modules & set(unloaded)


def _process_argv(route):
    """How `bellquench ...` starts: through `python -m bellquench.cli`, or
    through the console script's target named in pyproject.toml."""
    if route == "module":
        return [sys.executable, "-m", "bellquench.cli"]
    with open(os.path.join(SRC, os.pardir, "pyproject.toml"), encoding="utf-8") as fh:
        module, func = re.search(r'^bellquench = "([\w.]+):(\w+)"$', fh.read(),
                                 re.M).groups()
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; del sys.argv[0]; {func}()",
            "bellquench"]


@pytest.mark.parametrize("route", ["module", "script"])
class TestProcessEntry:
    """A CLI process ends without the finalizer's collections (cli.entry):
    its files are whole and its exit codes those of main."""

    def start(self, route, argv, tmp_path):
        return subprocess.run(_process_argv(route) + argv, cwd=tmp_path,
                              capture_output=True, text=True, check=False,
                              env=dict(os.environ, PYTHONPATH=SRC))

    def test_files_whole(self, tmp_path, route):
        result = self.start(route, SMALL_EVOLVE + ["--out", "e"], tmp_path)
        assert result.returncode == 0, result.stderr
        manifest = read_json(tmp_path / "e" / "manifest.json")
        assert list(manifest["checksums"]) == ["timeseries.csv"]
        for name, digest in manifest["checksums"].items():
            assert sha256_file(tmp_path / "e" / name) == digest

    def test_config_error_exits_2(self, tmp_path, route):
        result = self.start(route, ["evolve", "--gamma", "1", "--out", "e"], tmp_path)
        assert result.returncode == 2
        assert "missing required settings" in result.stderr

    def test_numerical_contract_exits_3(self, tmp_path, route):
        # the failed oracle report is still written, and parses
        result = self.start(route, ["oracle", "--n", "8", "--h-final", "1e308",
                                    "--out", "r"], tmp_path)
        assert result.returncode == 3, result.stderr
        assert read_json(tmp_path / "r" / "report.json")["pass"] is False


def test_entry_freezes_and_still_flushes_and_runs_atexit():
    code = ("import atexit, gc, sys; from bellquench.cli import entry; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
            "sys.argv[1:] = ['--version']; entry()")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=False, env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [bellquench.__version__, "frozen", "True"]


def test_in_process_main_leaves_gc_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    assert run(SMALL_EVOLVE + ["--out", str(tmp_path / "e")]) == 0
    assert gc.get_freeze_count() == frozen


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
        # N = 512, 12001 samples: the whole command (3.0 MB traced) and
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

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the timed kernel's BLAS product gives the same timeseries.csv
        # at one and at two OpenBLAS threads
        import subprocess
        import sys

        import bellquench

        src = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "bellquench.cli", *EVOLVE_README,
                            "--t-max", "1200", "--dt", "0.1", "--out", str(out)],
                           env=dict(os.environ, PYTHONPATH=src,
                                    OPENBLAS_NUM_THREADS=threads),
                           check=True, capture_output=True)
            digests.append(sha256_file(out / "timeseries.csv"))
        assert digests[0] == digests[1]

    def test_time_grid_cap_exit_code(self, tmp_path, capsys):
        import time

        started = time.perf_counter()
        assert run(EVOLVE_README + ["--t-max", "1e6", "--dt", "1e-6",
                                    "--out", str(tmp_path / "cap")]) == 4
        assert time.perf_counter() - started < 1.0
        assert "resource cap" in capsys.readouterr().err
        assert not (tmp_path / "cap").exists()

    def test_non_psd_state_exit_code(self, tmp_path, monkeypatch, capsys):
        def bad_arrays(quench, grid):
            one = np.ones(2)
            return 0.5 * np.arange(2), 0.9 * one, one, -one, one, 0.0 * one

        monkeypatch.setattr(dynamics, "correlator_arrays", bad_arrays)
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
    (["--j", "2"], "j = 2"),
], ids=["workers", "absolute_czz", "j"])
def test_removed_settings_refused(tmp_path, command, flag, line):
    # neither a flag nor a config-file line takes a setting that is gone
    argv = REMOVED_SETTINGS_ARGV[command]
    out = tmp_path / "w"
    assert run(argv + flag + ["--out", str(out)]) == 2
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


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["--version"]])
def test_help_and_version_return_zero(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out


def test_every_key_type_belongs_to_a_setting():
    assert set(cli._KEY_TYPES) == set().union(*cli.SETTINGS.values())


@pytest.mark.parametrize("flags,kind,fixed", [
    (["--kind", "field", "--alpha", "10"], "field", dict(alpha=10.0, h=0.0)),
    (["--kind", "coupling", "--h", "-0.5"], "coupling", dict(alpha=1.0, h=-0.5)),
])
def test_library_default_policy_is_the_cli_threshold(tmp_path, flags, kind, fixed):
    from bellquench.model import ModelParams, QuenchKind
    from bellquench.sweep import (KIND_DEFAULTS, GridSpec, Quantifier,
                                  critical_threshold, sweep)

    out = tmp_path / kind
    assert run(["sweep", "--gamma", "0.4", "--step", "0.25", "--n", "16",
                *flags, "--out", str(out)]) == 0
    window = KIND_DEFAULTS[QuenchKind(kind)].grid
    diagram = sweep(QuenchKind(kind), ModelParams(N=16, gamma=0.4, **fixed),
                    GridSpec(window.q_min, window.q_max, 0.25), Quantifier.BELL)
    assert critical_threshold(diagram) == read_json(out / "results.json")["bell"]["q_c"]


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
    def never(config):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_oracle", never)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    paths = {"empty": "", "file": str(out), "under_file": str(out / "sub" / "o")}
    assert run(["oracle", "--out", paths[target]]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


# Setting text for the contract fuzz below: small valid values (n <= 16,
# grids of at most 41 points, time grids of at most 201 samples), per
# kind where the kind sets what is valid, and adversarial ones.
FUZZ_VALID = {
    "n": ["4", "8", "16"],
    "gamma": ["0", "0.4", "1"],
    "alpha": ["0.5", "1", "3.5", "10"],
    "h": ["-0.7", "-0.5", "0", "0.3"],
    "quantifiers": ["bell", "entanglement,czz", "bell,entanglement,czz"],
    "boundary": ["cross", "exclude"],
}
FUZZ_KINDS = {
    "field": {"grid": [("-3", "3", "0.15"), ("-3", "3", "0.5"), ("-1.5", "1.5", "0.25")],
              "points": ["1", "1,3.5", "0.5,2,10"],
              "cross_lines": ["model", "nn_limit"],
              "quench": ["-1", "-0.5", "0.3", "1", "2.5"]},
    "coupling": {"grid": [("0.5", "3", "0.0625"), ("0.5", "3", "0.25"), ("1", "2", "0.5")],
                 "points": ["-0.5", "0.3,-0.7"], "cross_lines": ["model"],
                 "quench": ["0.5", "1.5", "3.5"]},
}
# evolve's (t_max, dt): small grids, and grids of MAX_TIME_SAMPLES + 1
# and + 2 samples, which must exit 4 before the times are allocated
FUZZ_TIMES = [("1", "0.1"), ("20", "0.25"), ("0.5", "0.5"), ("7", "0.035")]
FUZZ_CAPPED_TIMES = [(repr(0.5 * MAX_TIME_SAMPLES), "0.5"),
                     (repr(MAX_TIME_SAMPLES + 1.0), "1")]
FUZZ_ADVERSARIAL = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "0", "-0.0", "-1",
                    "", "bogus"]


def json_numbers(obj):
    """The numbers and nulls of a parsed JSON value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in json_numbers(item)]
    return [obj] if obj is None or type(obj) in (int, float) else []


@st.composite
def fuzz_argv(draw, command):
    """`command` and flags for each of its keys but out: a grid (a time
    grid for evolve) always, each other key mostly valid, sometimes
    omitted, and up to two keys adversarial."""
    kind = draw(st.sampled_from(sorted(FUZZ_KINDS)))
    pools = dict(FUZZ_VALID, kind=[kind], **FUZZ_KINDS[kind])
    pools["q_initial"] = pools["q_final"] = pools["quench"]
    if command == "evolve":
        values = dict(zip(("t_max", "dt"),
                          draw(st.sampled_from(FUZZ_TIMES + FUZZ_CAPPED_TIMES))))
    else:
        values = dict(zip(("q_min", "q_max", "step"), draw(st.sampled_from(pools["grid"]))))
    keys = [k for k in cli.SETTINGS[command] if k != "out"]
    for key in keys:
        if key not in values and draw(st.integers(0, 9)):
            values[key] = draw(st.sampled_from(pools[key]))
    bad = draw(st.sampled_from([0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(keys), min_size=bad, max_size=bad)):
        values[key] = draw(st.sampled_from(FUZZ_ADVERSARIAL))
    return [command, *(f"--{key.replace('_', '-')}={value}"
                       for key, value in values.items())]


@settings(max_examples=450, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(["sweep", "threshold-curve", "evolve"]).flatmap(fuzz_argv))
# finite bounds whose step count overflows to infinity
@example(argv=["sweep", "--gamma=0.5", "--alpha=10", "--n=16", "--q-min=-1e308",
               "--q-max=3", "--step=0.15"])
@example(argv=["threshold-curve", "--gamma=0.5", "--points=1", "--n=16",
               "--q-min=-3", "--q-max=3", "--step=1e-308"])
# a time grid of infinitely many steps (2), one of 1e308 steps (4) and
# one just above the cap (4)
@example(argv=["evolve", "--gamma=1", "--alpha=10", "--q-initial=0.5",
               "--q-final=2.5", "--t-max=1e308", "--dt=0.1"])
@example(argv=["evolve", "--gamma=1", "--alpha=10", "--q-initial=0.5",
               "--q-final=2.5", "--t-max=1", "--dt=1e-308"])
@example(argv=["evolve", "--gamma=1", "--alpha=10", "--q-initial=0.5",
               "--q-final=2.5", f"--t-max={FUZZ_CAPPED_TIMES[0][0]}", "--dt=0.5"])
def test_cli_contract_fuzz(tmp_path, capsys, argv):
    # exit codes, no output from a refused run, and checksums that match;
    # an evolve refused for its size (exit 4) traces less than 1 MiB,
    # where the times of a capped grid alone take 32 MiB
    import tracemalloc

    out = os.path.join(tempfile.mkdtemp(dir=tmp_path), "out")
    traced = argv[0] == "evolve"
    if traced:
        tracemalloc.start()
    try:
        code = run([*argv, f"--out={out}"])
        peak = tracemalloc.get_traced_memory()[1] if traced else 0
    finally:
        if traced:
            tracemalloc.stop()
    capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if traced and code == 4:
        assert peak < 2 ** 20
    if any(f"--t-max={t_max}" in argv for t_max, _ in FUZZ_CAPPED_TIMES):
        assert code in (2, 4)
    if code:
        assert not os.path.exists(out)
        return
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert set(manifest["checksums"]) | {"manifest.json"} == set(os.listdir(out))
    for name, digest in manifest["checksums"].items():
        assert sha256_file(os.path.join(out, name)) == digest
    # every number written is finite: a CSV cell, or a JSON number (a
    # non-finite float would be written as null, so a data JSON has none)
    for name in os.listdir(out):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            assert all(np.isfinite(float(x)) for row in rows for x in row.split(","))
        else:
            numbers = json_numbers(read_json(path))
            assert all(x is None or np.isfinite(x) for x in numbers)
            assert name == "manifest.json" or None not in numbers


# A 23-point field curve, and the curve files of the contract table:
# each fit refuses them before any start (exit 2)
CONTRACT_CURVE = [(0.5 * k, 1.6 + 0.3 * math.exp(-0.0125 * k * k)) for k in range(1, 24)]
CONTRACT_CURVES = {
    "header": [], "one-row": CONTRACT_CURVE[:1],
    **{name: [(x, bad if k == 11 else y) for k, (x, y) in enumerate(CONTRACT_CURVE)]
       for name, bad in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                         ("y-1e308", 1e308)]},
    "x-1e300": [(x * 1e300, y) for x, y in CONTRACT_CURVE],
}
CONTRACT_SECONDS = 2.0


@pytest.mark.parametrize("argv, code, warns", [
    *(pytest.param(["fit", "--model", model, "--curve", name], 2, False,
                   id=f"fit-{model}-{name}")
      for model in ("gaussian", "trigaussian") for name in CONTRACT_CURVES),
    pytest.param(["oracle", "--n", str(BUILD_CAP + 1)], 2, False, id="oracle-n-odd"),
    pytest.param(["oracle", "--n", str(BUILD_CAP + 2)], 4, False, id="oracle-n-capped"),
    # an overflow the oracle does not yet refuse up front: the dense
    # eigensolver fails (2), or the report fails with NaN deviations (3)
    pytest.param(["oracle", "--h-initial", "1e308"], 2, True, id="oracle-h-initial"),
    pytest.param(["oracle", "--h-final", "1e308"], 3, True, id="oracle-h-final"),
    pytest.param(["oracle", "--t", "1e308"], 3, True, id="oracle-t-huge"),
    pytest.param(["oracle", "--t", "-1"], 2, False, id="oracle-t-negative"),
])
def test_contract_table(tmp_path, capsys, argv, code, warns):
    # the documented exit code within CONTRACT_SECONDS, and no file from
    # a refused run (a failed oracle report is written)
    if argv[0] == "fit":
        curve = tmp_path / "curve.csv"
        curve.write_text("alpha,b_c\n" + "".join(
            f"{x!r},{y!r}\n" for x, y in CONTRACT_CURVES[argv[-1]]))
        argv = [*argv[:-1], str(curve)]
    out = tmp_path / "o"
    started = time.perf_counter()
    with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
        assert run([*argv, "--out", str(out)]) == code
    assert time.perf_counter() - started < CONTRACT_SECONDS
    assert code == 3 or not out.exists()
    capsys.readouterr()
