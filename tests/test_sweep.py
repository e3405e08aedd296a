import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import bellquench
import bellquench.sweep as sweep_mod
from bellquench.bell import (bell_value, chsh_arrays, log_negativity,
                             reconstruct_rho12)
from bellquench.errors import ResourceCapError, ThresholdUndefinedError
from bellquench.model import (WINDOW, ModelParams, QuenchKind, phase_codes,
                              same_phase_area)
from bellquench.momentum import (MEMORY_CAP, STEADY_DEGENERACY_TOL,
                                 check_footprint, mode_angles)
from bellquench.sweep import (FIELD_GRID, KIND_DEFAULTS, MAX_GRID_VALUE, GridSpec,
                              Quantifier, _cross_blocks, check_window,
                              critical_threshold, cross_cell_count,
                              curve_workers, efficiency, steady_cell, sweep,
                              sweep_all, threshold_curve)
from phase_reference import (PhaseLabel, classify_coupling_value,
                             classify_field_value, classify_pair)
from steady_reference import steady_correlators
import readout_reference
from bellquench import oracle
from bellquench.dynamics import (ROW_CHUNK, CorrelatorSet, SteadyKernel, _axes,
                                 _correlators_from_sums, correlators_at)
from bellquench.output import openblas


def fixed_params(**kwargs):
    defaults = dict(N=64, gamma=1.0, alpha=10.0, h=0.0)
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestGridSpec:
    def test_count_and_values(self):
        grid = GridSpec(-3.0, 3.0, 0.01)
        assert grid.count == 601
        values = grid.values()
        assert values[0] == -3.0
        assert values[-1] == pytest.approx(3.0, abs=1e-12)
        assert 1.0 in np.round(values, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.03)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, -0.1)
        # finite bounds whose step count overflows to infinity
        for q_min, q_max, step in ((-1e308, 3.0, 0.01), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValueError, match="finite number of steps"):
                GridSpec(q_min, q_max, step)
        # a step beyond the span rounds to zero steps: a one-value grid
        with pytest.raises(ValueError, match="at least one step"):
            GridSpec(-3.0, 3.0, 1e10)
        # values whose steady squares would overflow
        above = np.nextafter(MAX_GRID_VALUE, np.inf)
        for q_min, q_max in ((-above, MAX_GRID_VALUE), (-MAX_GRID_VALUE, above),
                             (1.0, above)):
            with pytest.raises(ValueError, match="overflow the steady squares"):
                GridSpec(q_min, q_max, above / 4)

    def test_maps_finite_at_the_largest_values(self):
        grid = GridSpec(-MAX_GRID_VALUE, MAX_GRID_VALUE, MAX_GRID_VALUE / 4)
        maps = sweep_all(QuenchKind.FIELD, fixed_params(N=8, alpha=3.0), grid)
        assert all(np.isfinite(diagram.values).all() for diagram in maps.values())
        curve = threshold_curve(QuenchKind.FIELD, 1.0, [3.0], grid, N=8)
        assert np.isfinite(curve[0][1])

    def test_coupling_field_outside_window_refused(self, monkeypatch):
        # at h = 1e300 every cell of every map was NaN; the coupling
        # window refuses it, before any map
        monkeypatch.setattr(sweep_mod, "SteadyKernel", None)
        with pytest.raises(ValueError, match="outside"):
            sweep_all(QuenchKind.COUPLING, ModelParams(8, 1.0, 1.0, 1e300),
                      GridSpec(0.5, 3.0, 0.5))


class TestSweepValues:
    # the grid kernel against the per-mode reference of steady_reference

    def test_diagonal_is_equilibrium(self):
        fixed = fixed_params()
        grid = GridSpec(-2.0, 2.0, 0.5)
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        for i, q in enumerate(grid.values()):
            c = steady_correlators(steady_cell(QuenchKind.FIELD, fixed,
                                               float(q), float(q)))
            assert diagram.values[i, i] == pytest.approx(bell_value(c),
                                                         abs=1e-12)

    def test_engine_matches_scalar_path(self):
        fixed = fixed_params(gamma=0.3, alpha=1.2)
        grid = GridSpec(-1.0, 1.0, 0.25)
        diagrams = sweep_all(QuenchKind.FIELD, fixed, grid)
        qs = grid.values()
        for i in range(0, qs.size, 3):
            for j in range(0, qs.size, 3):
                c = steady_correlators(
                    steady_cell(QuenchKind.FIELD, fixed, float(qs[i]), float(qs[j])))
                assert diagrams[Quantifier.BELL].values[i, j] == pytest.approx(
                    bell_value(c), abs=1e-12)
                assert diagrams[Quantifier.CZZ].values[i, j] == pytest.approx(
                    c.czz, abs=1e-12)
                assert diagrams[Quantifier.ENTANGLEMENT].values[i, j] == pytest.approx(
                    log_negativity(reconstruct_rho12(c)), abs=1e-10)

    def test_coupling_engine_matches_scalar_path(self):
        fixed = fixed_params(gamma=0.4, h=-0.5, alpha=1.0)
        grid = GridSpec(0.5, 3.0, 0.5)
        diagram = sweep(QuenchKind.COUPLING, fixed, grid, Quantifier.BELL)
        qs = grid.values()
        for i in range(qs.size):
            for j in range(qs.size):
                c = steady_correlators(
                    steady_cell(QuenchKind.COUPLING, fixed, float(qs[i]), float(qs[j])))
                assert diagram.values[i, j] == pytest.approx(bell_value(c),
                                                             abs=1e-12)

    def test_toy_grid_against_oracle_finite_time(self):
        # the same ground states the sweep uses, cross-checked by dense
        # evolution at finite time
        fixed = ModelParams(N=10, gamma=1.0, alpha=10.0, h=0.0)
        for hi in (0.3, 1.6):
            for hf in (0.3, 2.2):
                q = steady_cell(QuenchKind.FIELD, fixed, hi, hf)
                reference, _ = oracle.oracle_quench(q, 1.7)
                computed = correlators_at(q, 1.7)
                for k in ("mz", "cxx", "cyy", "czz", "cxy", "cyx"):
                    assert abs(getattr(computed, k)
                               - getattr(reference, k)) < 1e-6

    def test_cross_phase_cells_depressed(self):
        fixed = fixed_params(N=512, gamma=1.0, alpha=10.0)
        grid = GridSpec(-3.0, 3.0, 0.1)
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        _, on = phase_codes(QuenchKind.FIELD, fixed, grid.values())
        off_line = ~(on[:, None] | on[None, :])
        cross = diagram.values[~diagram.same_phase_mask & off_line]
        same = diagram.values[diagram.same_phase_mask]
        assert np.median(cross) < np.median(same)

    def test_bell_values_in_range(self):
        diagram = sweep(QuenchKind.FIELD, fixed_params(gamma=0.2),
                        GridSpec(-3.0, 3.0, 0.2), Quantifier.BELL)
        assert np.all(diagram.values >= 0.0)
        assert np.all(diagram.values <= 2.0 + 1e-9)


class TestThreshold:
    def test_soundness(self):
        fixed = fixed_params(N=256, gamma=0.8)
        grid = GridSpec(-3.0, 3.0, 0.05)
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        q_c = critical_threshold(diagram, boundary="cross", cross_lines="model")
        cross = diagram.values[~diagram.same_phase_mask]
        assert not np.any(cross > q_c)

    def test_undefined_without_cross_cells(self):
        fixed = fixed_params(gamma=0.5, alpha=2.0)
        grid = GridSpec(1.5, 2.0, 0.25)  # all cells paramagnetic
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        with pytest.raises(ThresholdUndefinedError):
            critical_threshold(diagram)

    def test_trivial_detection(self):
        fixed = fixed_params(gamma=0.5, alpha=2.0)
        grid = GridSpec(-3.0, 3.0, 0.25)
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        zeroed = type(diagram)(kind=diagram.kind, fixed=diagram.fixed,
                               grid=diagram.grid, quantifier=diagram.quantifier,
                               values=np.where(diagram.same_phase_mask, 1.0, 0.0),
                               same_phase_mask=diagram.same_phase_mask)
        policy = dict(boundary="cross", cross_lines="model")
        q_c = critical_threshold(zeroed, **policy)
        assert q_c == 0.0
        report = efficiency(zeroed, q_c, **policy)
        assert report.n_detected_cells == report.n_same_cells

    def test_policies(self):
        fixed = fixed_params(N=256, gamma=0.2, h=-0.5, alpha=1.0)
        diagram = sweep(QuenchKind.COUPLING, fixed, GridSpec(0.5, 3.0, 0.05),
                        Quantifier.BELL)
        incl = critical_threshold(diagram, boundary="cross")
        excl = critical_threshold(diagram, boundary="exclude")
        assert excl <= incl
        with pytest.raises(ValueError):
            critical_threshold(diagram, boundary="bogus")
        with pytest.raises(ValueError):
            critical_threshold(diagram, cross_lines="nn_limit")


class TestEfficiency:
    def test_above_max_gives_zero(self):
        fixed = fixed_params(N=128, gamma=0.5, alpha=2.0)
        diagram = sweep(QuenchKind.FIELD, fixed, GridSpec(-3, 3, 0.1),
                        Quantifier.BELL)
        report = efficiency(diagram, diagram.values.max() + 1.0)
        assert report.eta == 0.0

    def test_report_identities(self):
        fixed = fixed_params(N=128, gamma=0.5, alpha=2.0)
        diagram = sweep(QuenchKind.FIELD, fixed, GridSpec(-3, 3, 0.1),
                        Quantifier.BELL)
        policy = dict(boundary="cross", cross_lines="model")
        q_c = critical_threshold(diagram, **policy)
        report = efficiency(diagram, q_c, **policy)
        step = diagram.grid.step
        assert report.area_detected == pytest.approx(
            report.n_detected_cells * step * step, rel=1e-12)
        assert report.eta == pytest.approx(
            report.area_detected / report.area_same, rel=1e-12)
        assert 0.0 <= report.eta <= 1.0

    @pytest.mark.parametrize("kind", list(QuenchKind))
    def test_default_grid_spans_the_model_window(self, kind):
        grid = KIND_DEFAULTS[kind].grid
        assert (grid.q_min, grid.q_max) == WINDOW[kind]
        check_window(kind, grid)

    @pytest.mark.parametrize("kind,fixed,grid", [
        (QuenchKind.FIELD, fixed_params(N=16, gamma=0.8, alpha=3.5),
         GridSpec(-1.5, 1.5, 0.25)),
        (QuenchKind.FIELD, fixed_params(N=16, gamma=0.8, alpha=3.5),
         GridSpec(-1.0, 3.0, 0.25)),
        (QuenchKind.COUPLING, fixed_params(N=16, gamma=0.8, h=-0.5),
         GridSpec(1.0, 3.0, 0.25)),
    ])
    def test_window_other_than_the_kind_refused(self, kind, fixed, grid):
        # same_phase_area integrates over the kind's default window only
        diagram = sweep(kind, fixed, grid, Quantifier.BELL)
        with pytest.raises(ValueError, match="window"):
            efficiency(diagram, critical_threshold(diagram))

    def test_discretized_area_matches_analytic(self):
        step = 0.01
        for alpha in (0.9, 1.5, 3.5, 10.0):
            fixed = fixed_params(gamma=0.5, alpha=alpha)
            diagram = sweep(QuenchKind.FIELD, fixed, FIELD_GRID,
                            Quantifier.CZZ)
            discrete = np.count_nonzero(diagram.same_phase_mask) * step ** 2
            analytic = same_phase_area(QuenchKind.FIELD, alpha)
            assert abs(discrete - analytic) <= 2 * step * 12


class TestThresholdCurves:
    def test_field_curve_monotone_tail(self):
        curve = threshold_curve(QuenchKind.FIELD, 0.2, [0.9, 1.5, 3.5, 10.0],
                                GridSpec(-3.0, 3.0, 0.05), N=128)
        values = [b for _, b in curve]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_coupling_curve_window(self):
        with pytest.raises(ValueError):
            threshold_curve(QuenchKind.COUPLING, 0.2, [-0.9], N=64)
        with pytest.raises(ValueError):
            threshold_curve(QuenchKind.FIELD, 0.2, [], N=64)

    def test_coarse_vs_fine_grid(self):
        fine = threshold_curve(QuenchKind.FIELD, 1.0, [10.0], GridSpec(-3, 3, 0.01),
                               N=256)
        coarse = threshold_curve(QuenchKind.FIELD, 1.0, [10.0], GridSpec(-3, 3, 0.05),
                                 N=256)
        assert abs(fine[0][1] - coarse[0][1]) < 0.02

    def test_dispersion_calls(self, monkeypatch):
        # a coupling curve builds its alpha-axis dispersion once and adds
        # each h to it; a field curve builds one row per alpha in one call
        import bellquench.dynamics as dyn

        calls = []

        def counted(*args, real=dyn.dispersion, **kwargs):
            calls.append(kwargs.get("alphas") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(dyn, "dispersion", counted)
        threshold_curve(QuenchKind.COUPLING, 0.5, [-0.5, -0.2, 0.1],
                        GridSpec(0.5, 3.0, 0.1), N=32)
        assert calls == [True]
        calls.clear()
        threshold_curve(QuenchKind.FIELD, 0.5, [1.0, 2.0, 4.0],
                        GridSpec(-3, 3, 0.1), N=32)
        assert calls == [True]

    @pytest.mark.parametrize("kind,points,grid", [
        # the model lines move with alpha, so the cross blocks, and the
        # gathered columns among them, change shape from point to point
        (QuenchKind.FIELD, [0.7, 1.0, 3.5, 6.0, 10.0], GridSpec(-3, 3, 0.05)),
        (QuenchKind.COUPLING, [-0.5, -0.2, 0.1], GridSpec(0.5, 3.0, 0.05)),
    ])
    def test_points_do_not_depend_on_earlier_points(self, kind, points, grid, forks):
        # one kernel serves every point of a process, and each whole
        # curve here runs in two (one forked) where the BLAS can be pinned
        def curve(qs):
            return threshold_curve(kind, 0.5, qs, grid, N=64, cross_lines="model")

        alone = [curve([q])[0] for q in points]
        assert forks == []
        assert curve(points) == alone
        assert curve(points[::-1]) == alone[::-1]
        assert len(forks) == (0 if openblas() is None else 2)

    def test_curve_is_charged_its_kernel_not_a_map(self):
        # a curve builds no grid^2 map: at N 512 a 6001-value grid's map
        # alone exceeds MEMORY_CAP while its kernel fits, and a kernel of
        # 10x the values does not
        grid = GridSpec(-3, 3, 0.001)
        with pytest.raises(ResourceCapError):
            check_footprint(512, grid.count, grid.count ** 2)
        assert curve_workers(1, grid, 512) == 1
        with pytest.raises(ResourceCapError):
            curve_workers(1, GridSpec(-3, 3, 0.0001), 512)

    @pytest.mark.parametrize("step,N", [(0.1, 16), (0.01, 512), (0.002, 512),
                                        (0.0015, 512), (0.0005, 512), (0.0004, 512)])
    def test_workers_fit_the_memory_cap(self, monkeypatch, step, N):
        # however many CPUs, the workers' kernels together stay within
        # MEMORY_CAP (the last two grids hold 3 and 2 footprints of 12)
        monkeypatch.setattr(sweep_mod, "writer_cpus", lambda: 64)
        monkeypatch.setattr(sweep_mod, "CURVE_WORK", 1)
        grid = GridSpec(-3, 3, step)
        workers = curve_workers(12, grid, N)
        need = check_footprint(N, grid.count, 2 * ROW_CHUNK * grid.count)  # a curve kernel
        assert 1 <= workers <= 12
        assert workers * need <= MEMORY_CAP
        if openblas() is not None:
            assert workers == min(12, MEMORY_CAP // need)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's count of minor page faults")
    def test_curve_points_reuse_memory(self):
        # the kernel's arrays are allocated once per curve, so a point
        # faults in few fresh pages (about 1,400 each when every point
        # allocated its own)
        src = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))
        code = ("import resource\n"
                "from bellquench.model import QuenchKind\n"
                "from bellquench.sweep import GridSpec, threshold_curve\n"
                "grid = GridSpec(-3.0, 3.0, 0.02)\n"
                "threshold_curve(QuenchKind.FIELD, 1.0, [1.0], grid, N=256)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "threshold_curve(QuenchKind.FIELD, 1.0, [0.5, 1.0, 2.0, 3.5, 6.0, 10.0],\n"
                "                grid, N=256)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=dict(os.environ, PYTHONPATH=src),
                                check=False)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) / 6 < 500


POLICIES = [("cross", "model"), ("exclude", "model"),
            ("cross", "nn_limit"), ("exclude", "nn_limit")]


def _curve_point(kind, fixed, grid, boundary, cross_lines):
    """B_c of one point from the threshold-curve path."""
    point = fixed.alpha if kind is QuenchKind.FIELD else fixed.h
    curve = threshold_curve(kind, fixed.gamma, [point], grid, N=fixed.N,
                            boundary=boundary, cross_lines=cross_lines)
    return curve[0][1]


def _diagram_point(kind, fixed, grid, boundary, cross_lines):
    """B_c of one point from the full phase diagram."""
    diagram = sweep(kind, fixed, grid, Quantifier.BELL)
    return critical_threshold(diagram, boundary=boundary,
                              cross_lines=cross_lines)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ThresholdUndefinedError:
        return "undefined"


class TestThresholdCurveEquivalence:
    """The curves reduce B_c over cross-phase blocks without building a
    diagram; critical_threshold over the full sweep is the arbiter."""

    @pytest.mark.parametrize("boundary,cross_lines", POLICIES)
    @pytest.mark.parametrize("N,gamma,alpha,step", [
        (64, 0.5, 1.0, 0.05),    # model line h_c = 0 on a grid point
        (64, 0.0, 2.0, 0.05),    # gamma = 0: degenerate blocks
        (16, 1.0, 3.5, 0.1),
        (16, 0.3, 0.7, 0.25),
    ])
    def test_field_matches_diagram(self, N, gamma, alpha, step, boundary,
                                   cross_lines):
        fixed = ModelParams(N=N, gamma=gamma, alpha=alpha, h=0.0)
        grid = GridSpec(-3.0, 3.0, step)
        args = (QuenchKind.FIELD, fixed, grid, boundary, cross_lines)
        assert _curve_point(*args) == pytest.approx(_diagram_point(*args),
                                                    abs=1e-12)

    @pytest.mark.parametrize("boundary", ["cross", "exclude"])
    @pytest.mark.parametrize("N,gamma,h,step", [
        (64, 0.8, 0.0, 0.05),    # alpha_c = 1.0 on a grid point
        (64, 0.0, -0.5, 0.05),   # gamma = 0, alpha_c = 2.0 on a grid point
        (16, 0.4, -0.7, 0.1),
        (16, 1.0, 0.3, 0.25),
    ])
    def test_coupling_matches_diagram(self, N, gamma, h, step, boundary):
        fixed = ModelParams(N=N, gamma=gamma, alpha=1.0, h=h)
        grid = GridSpec(0.5, 3.0, step)
        args = (QuenchKind.COUPLING, fixed, grid, boundary, "model")
        assert _curve_point(*args) == pytest.approx(_diagram_point(*args),
                                                    abs=1e-12)

    @pytest.mark.parametrize("kind,fixed,grid,boundary,cross_lines", [
        # every value paramagnetic under both line sets
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(1.5, 2.0, 0.25),
         "cross", "model"),
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(1.5, 2.0, 0.25),
         "cross", "nn_limit"),
        # one side of the model line h_c = -0.5, plus the line itself
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(-1.5, -0.5, 0.5),
         "exclude", "model"),
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(-1.5, -0.5, 0.5),
         "cross", "model"),
        # the same, against the nn_limit line h = 1
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(1.0, 2.0, 0.5),
         "exclude", "nn_limit"),
        (QuenchKind.FIELD, fixed_params(N=16, alpha=2.0), GridSpec(1.0, 2.0, 0.5),
         "cross", "nn_limit"),
        # alpha_c = 2.0 is the last grid value; the rest is one phase
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=-0.5),
         GridSpec(1.0, 2.0, 0.5), "exclude", "model"),
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=-0.5),
         GridSpec(1.0, 2.0, 0.5), "cross", "model"),
        # alpha_c = 2.0 outside the grid
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=-0.5),
         GridSpec(0.5, 1.5, 0.5), "cross", "model"),
    ])
    def test_undefined_in_the_same_cases(self, kind, fixed, grid, boundary,
                                         cross_lines):
        args = (kind, fixed, grid, boundary, cross_lines)
        curve = _outcome(_curve_point, *args)
        diagram = _outcome(_diagram_point, *args)
        if diagram == "undefined":
            assert curve == "undefined"
        else:
            assert curve == pytest.approx(diagram, abs=1e-12)

    @pytest.mark.parametrize("boundary,cross_lines", POLICIES)
    @pytest.mark.parametrize("kind,fixed,grid", [
        # both classes and every line (h_c = 0 under alpha = 1; alpha_c = 1)
        (QuenchKind.FIELD, fixed_params(N=16, alpha=1.0), GridSpec(-1.5, 1.5, 0.25)),
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=0.0),
         GridSpec(0.5, 1.5, 0.25)),
        # no value on a line
        (QuenchKind.FIELD, fixed_params(N=16, alpha=1.0), GridSpec(-1.3, 1.3, 0.2)),
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=0.0),
         GridSpec(0.5, 1.5, 0.2)),
        # no first-class value: the line h = 1 and the lobe above it
        (QuenchKind.FIELD, fixed_params(N=16, alpha=1.0), GridSpec(1.0, 2.0, 0.25)),
        # no second-class value: the values from h = 0 to the line h = 1
        (QuenchKind.FIELD, fixed_params(N=16, alpha=1.0), GridSpec(0.0, 1.0, 0.25)),
        # h = -1: one class and no line, so no cross cell
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=-1.0),
         GridSpec(0.5, 1.5, 0.25)),
    ])
    def test_cross_blocks_match_pair_classification(self, kind, fixed, grid,
                                                    boundary, cross_lines):
        # the phase order and the slice blocks every threshold path
        # reduces over, against the scalar classify_pair (model lines) or
        # the lines h = +-1 (nn_limit)
        qs = grid.values()
        args = (kind, fixed, qs, boundary, cross_lines)
        if cross_lines == "nn_limit":
            if kind is QuenchKind.COUPLING:
                with pytest.raises(ValueError):
                    _cross_blocks(*args)
                return
            on = np.abs(np.abs(qs) - 1.0) <= 1e-12
            rank = np.where(on, 1, np.where(np.abs(qs) < 1.0, 0, 2))
            line = on[:, None] | on[None, :]
            cross = (rank[:, None] != rank[None, :]) & ~line
        else:
            classify = (classify_field_value if kind is QuenchKind.FIELD
                        else classify_coupling_value)
            held = fixed.alpha if kind is QuenchKind.FIELD else fixed.h
            rank = np.array([{0: 0, PhaseLabel.BOUNDARY: 1, 1: 2}[
                classify(float(q), held)] for q in qs])
            labels = np.array([[classify_pair(steady_cell(kind, fixed, float(a),
                                                          float(b))).value
                                for b in qs] for a in qs])
            cross = labels == PhaseLabel.CROSS.value
            line = labels == PhaseLabel.BOUNDARY.value
        expected = cross | line if boundary == "cross" else cross
        count_args = (kind, fixed, grid, boundary, cross_lines)
        if not expected.any():
            with pytest.raises(ThresholdUndefinedError):
                _cross_blocks(*args)
            with pytest.raises(ThresholdUndefinedError):
                cross_cell_count(*count_args)
            return

        order, blocks = _cross_blocks(*args)
        # first class, lines, second class, each in ascending grid order
        assert np.array_equal(np.sort(order), np.arange(qs.size))
        assert np.array_equal(order, np.lexsort((np.arange(qs.size), rank)))
        hits = np.zeros(expected.shape, dtype=int)
        for rows, cols in blocks:
            assert isinstance(rows, slice) and isinstance(cols, slice)
            hits[np.ix_(order[rows], order[cols])] += 1
        assert hits.max() == 1
        assert np.array_equal(hits == 1, expected)
        assert cross_cell_count(*count_args) == np.count_nonzero(expected)


def steady_entanglement_map(mz, cxx, cyy, czz):
    """Log-negativity of the steady X-state written out for C_xy = 0
    (|rho_03| = |C_xx - C_yy|/4); the sweep maps keep its bits."""
    r00 = (1.0 + 2.0 * mz + czz) / 4.0
    r11 = (1.0 - czz) / 4.0
    r33 = (1.0 - 2.0 * mz + czz) / 4.0
    outer_off = (cxx + cyy) / 4.0
    inner_off = (cxx - cyy) / 4.0
    half_sum = (r00 + r33) / 2.0
    rad = np.sqrt(((r00 - r33) / 2.0) ** 2 + outer_off ** 2)
    trace_norm = (np.abs(half_sum + rad) + np.abs(half_sum - rad)
                  + np.abs(r11 + np.abs(inner_off))
                  + np.abs(r11 - np.abs(inner_off)))
    return np.log2(trace_norm)


def kernel_maps(kind, fixed, grid):
    """(mz, cxx, cyy, czz) over the whole grid, stacked from the steady
    kernel's row chunks; they cover the grid's rows in order."""
    qs = grid.values()
    phis, axis = _axes(kind, qs, [fixed])
    b, u = axis(0)
    # each chunk's arrays are the kernel's buffers, which the next overwrites
    chunks = [(rows, *(m.copy() for m in maps))
              for rows, *maps in SteadyKernel(fixed.N, phis, qs.size).maps(b, u)]
    rows = np.concatenate([np.arange(qs.size)[c[0]] for c in chunks])
    assert np.array_equal(rows, np.arange(qs.size))
    return [np.concatenate(maps) for maps in list(zip(*chunks))[1:]]


@pytest.mark.parametrize("kind, fixed, grid", [
    (QuenchKind.FIELD, fixed_params(N=128, gamma=0.2, alpha=10.0), GridSpec(-3, 3, 0.05)),
    (QuenchKind.FIELD, fixed_params(N=64, gamma=0.0, alpha=1.0), GridSpec(-3, 3, 0.1)),
    (QuenchKind.COUPLING, fixed_params(N=128, gamma=0.8, h=-0.5), GridSpec(0.5, 3.0, 0.05)),
])
def test_entanglement_map_bits_unchanged(kind, fixed, grid):
    mz, cxx, cyy, czz = kernel_maps(kind, fixed, grid)
    maps = sweep_all(kind, fixed, grid)
    assert np.array_equal(maps[Quantifier.BELL].values,
                          chsh_arrays(cxx, cyy, czz, 0.0, 0.0))
    assert np.array_equal(maps[Quantifier.BELL].values,
                          readout_reference.bell(cxx, cyy, czz, 0.0, 0.0))
    assert np.array_equal(maps[Quantifier.CZZ].values, czz)
    assert np.array_equal(maps[Quantifier.ENTANGLEMENT].values,
                          steady_entanglement_map(mz, cxx, cyy, czz))
    assert np.array_equal(sweep(kind, fixed, grid, Quantifier.ENTANGLEMENT).values,
                          maps[Quantifier.ENTANGLEMENT].values)


def degenerate_axis(N, n, seed):
    """Hand-built (b, u) rows of n grid values: rows ROW_CHUNK to
    ROW_CHUNK + 20 hold blocks with b = u = 0 and blocks of gap 5e-13
    (degenerate in the steady limit only), the other rows none."""
    rng = np.random.default_rng(seed)
    b, u = rng.normal(size=(2, n, N // 2))
    zero = ROW_CHUNK + rng.integers(0, 10, 6), rng.integers(0, N // 2, 6)
    tiny = ROW_CHUNK + 10 + rng.integers(0, 10, 6), rng.integers(0, N // 2, 6)
    b[zero] = u[zero] = 0.0
    b[tiny], u[tiny] = 3e-13, -4e-13
    return b, u


def steady_cases():
    """(N, phis, b, u, order, blocks): random field and coupling grids
    with their cross blocks, and hand-built rows with exact zeros."""
    rng = np.random.default_rng(5)
    for _ in range(3):
        N = int(rng.choice([16, 32, 64]))
        gamma = float(rng.uniform(0.1, 1.0))
        for kind, fixed, grid in (
                (QuenchKind.FIELD, fixed_params(N=N, gamma=gamma,
                                                alpha=float(rng.uniform(0.6, 6.0))),
                 GridSpec(-3.0, 3.0, 0.05)),
                (QuenchKind.COUPLING, fixed_params(N=N, gamma=gamma,
                                                   h=float(rng.uniform(-0.7, 0.4))),
                 GridSpec(0.5, 3.0, 0.02))):
            qs = grid.values()
            phis, axis = _axes(kind, qs, [fixed])
            order, blocks = _cross_blocks(kind, fixed, qs, None, None)
            yield (N, phis, *axis(0), order, blocks)
    n = 2 * ROW_CHUNK + 22
    for N, order, blocks in (
            (16, None, [(slice(0, n), slice(0, n))]),
            (8, np.random.default_rng(1).permutation(n),
             [(slice(0, 70), slice(70, n)), (slice(100, n), slice(0, 100))])):
        yield (N, mode_angles(N), *degenerate_axis(N, n, N), order, blocks)


class TestLeanReadout:
    """The steady kernel and the threshold path keep the bits of the
    readout as written before it ran in place (readout_reference)."""

    @pytest.mark.parametrize("case", list(steady_cases()))
    def test_maps_keep_their_bits(self, case):
        N, phis, b, u, order, blocks = case
        kernel = SteadyKernel(N, phis, b.shape[0])
        expected = readout_reference.steady_chunks(N, phis, b, u, blocks, order)
        # a degenerate block is not divided by its zero gap
        with np.errstate(divide="raise", invalid="raise"):
            got = [(rows, *(m.copy() for m in maps))
                   for rows, *maps in kernel.maps(b, u, blocks, order)]
        for (rows, *maps), (want_rows, *want) in itertools.zip_longest(got, expected):
            assert rows == want_rows
            for value, reference in zip(maps, want):
                assert np.array_equal(value, reference)

    @pytest.mark.parametrize("case", list(steady_cases()))
    def test_cross_max_is_bell_max(self, case):
        N, phis, b, u, order, blocks = case
        kernel = SteadyKernel(N, phis, b.shape[0])
        b_c = sweep_mod._cross_max(kernel, (b, u), order, blocks)
        assert b_c == max(np.max(chsh_arrays(cxx, cyy, czz, 0.0, 0.0))
                          for _, _, cxx, cyy, czz in kernel.maps(b, u, blocks, order))
        assert b_c == max(np.max(readout_reference.bell(cxx, cyy, czz, 0.0, 0.0))
                          for _, _, cxx, cyy, czz in readout_reference.steady_chunks(
                              N, phis, b, u, blocks, order))

    def test_timed_terms_keep_their_bits(self):
        # the timed path's n_x sums and evolve's C_xy are arrays: their
        # terms are added, as before, and scalars give the array bits
        rng = np.random.default_rng(3)
        phis = mode_angles(32)
        sums = rng.normal(size=(4, 300)) * [[16.0], [8.0], [8.0], [4.0]]
        sums[3, :50] = 0.0
        expected = readout_reference.correlators(phis, sums, 32)
        got = _correlators_from_sums(np.cos(phis).sum(), sums, 32, np.empty((2, 300)))
        for value, reference in zip(got, expected):
            assert np.array_equal(value, reference)
        cxx, cyy, czz, cxy, cyx = rng.uniform(-1.0, 1.0, size=(5, 300))
        cxy[:50] = cyx[:50] = 0.0
        for args in ((cxx, cyy, czz, cxy, cyx), (cxx, cyy, czz, cxy, cxy)):
            reference = readout_reference.bell(*args)
            assert np.array_equal(chsh_arrays(*args), reference)
            assert [bell_value(CorrelatorSet(0.0, *cell)) for cell in zip(*args)] == \
                reference.tolist()

    def test_degenerate_chunks_are_hit(self):
        # the hand-built rows: exact zeros and steady-only degenerate
        # blocks in the second chunk, none in the first and the third
        _, _, b, u, _, _ = list(steady_cases())[-2]
        lam = np.hypot(u, b)
        degen = lam < STEADY_DEGENERACY_TOL
        assert [degen[lo:lo + ROW_CHUNK].any()
                for lo in range(0, b.shape[0], ROW_CHUNK)] == [False, True, False]
        assert (lam == 0.0).any() and (degen & (lam > 1e-14)).any()


def test_efficiency_counts_cross_cells_of_the_policy():
    fixed = fixed_params(N=16, gamma=0.2, alpha=10.0)
    diagram = sweep(QuenchKind.FIELD, fixed, GridSpec(-3, 3, 0.1), Quantifier.BELL)
    q_c = critical_threshold(diagram)
    # the field default, (cross, nn_limit)
    assert efficiency(diagram, q_c).n_cross_cells == 1760
    # the model-line policy counts the complement of the same-phase mask
    report = efficiency(diagram, q_c, boundary="cross", cross_lines="model")
    assert report.n_cross_cells == int(
        np.count_nonzero(~diagram.same_phase_mask)) == 1679
