import numpy as np
import pytest

from bellquench.bell import (bell_value, chsh_arrays, log_negativity,
                             reconstruct_rho12)
from bellquench.errors import ThresholdUndefinedError
from bellquench.model import ModelParams, QuenchKind, phase_codes, same_phase_area
from bellquench.sweep import (FIELD_GRID, GridSpec, Quantifier, _axes,
                              _bell_map, _cross_blocks, _steady_maps,
                              critical_threshold, efficiency, steady_cell,
                              sweep, sweep_all, threshold_curve)
from phase_reference import PhaseLabel, classify_pair
from steady_reference import steady_correlators
from bellquench import oracle
from bellquench.dynamics import correlators_at


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
        q_c = critical_threshold(diagram)
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
        grid = GridSpec(-2.0, 2.0, 0.25)
        diagram = sweep(QuenchKind.FIELD, fixed, grid, Quantifier.BELL)
        zeroed = type(diagram)(kind=diagram.kind, fixed=diagram.fixed,
                               grid=diagram.grid, quantifier=diagram.quantifier,
                               values=np.where(diagram.same_phase_mask, 1.0, 0.0),
                               same_phase_mask=diagram.same_phase_mask)
        q_c = critical_threshold(zeroed)
        assert q_c == 0.0
        report = efficiency(zeroed, q_c)
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
        q_c = critical_threshold(diagram)
        report = efficiency(diagram, q_c)
        step = diagram.grid.step
        assert report.area_detected == pytest.approx(
            report.n_detected_cells * step * step, rel=1e-12)
        assert report.eta == pytest.approx(
            report.area_detected / report.area_same, rel=1e-12)
        assert 0.0 <= report.eta <= 1.0

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
        # each h to it; a field curve needs one dispersion per alpha
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
        assert calls == [False] * 3


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
        (QuenchKind.FIELD, fixed_params(N=16, alpha=1.0), GridSpec(-1.5, 1.5, 0.25)),
        (QuenchKind.COUPLING, fixed_params(N=16, alpha=1.0, h=0.0),
         GridSpec(0.5, 1.5, 0.25)),
    ])
    def test_cross_blocks_match_pair_classification(self, kind, fixed, grid,
                                                    boundary, cross_lines):
        # the blocks both threshold paths reduce over, against the scalar
        # classify_pair (model lines) or the lines h = +-1 (nn_limit)
        qs = grid.values()
        if cross_lines == "nn_limit":
            if kind is QuenchKind.COUPLING:
                with pytest.raises(ValueError):
                    _cross_blocks(kind, fixed, qs, boundary, cross_lines)
                return
            inside = np.abs(qs) < 1.0
            on = np.abs(np.abs(qs) - 1.0) <= 1e-12
            line = on[:, None] | on[None, :]
            cross = (inside[:, None] != inside[None, :]) & ~line
        else:
            labels = np.array([[classify_pair(steady_cell(kind, fixed, float(a),
                                                          float(b))).value
                                for b in qs] for a in qs])
            cross = labels == PhaseLabel.CROSS.value
            line = labels == PhaseLabel.BOUNDARY.value
        expected = cross | line if boundary == "cross" else cross
        assert line.any() and cross.any()

        got = np.zeros_like(expected)
        index = np.arange(qs.size)
        for rows, cols in _cross_blocks(kind, fixed, qs, boundary, cross_lines):
            got[index[rows][:, None], index[cols][None, :]] = True
        assert np.array_equal(got, expected)


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


@pytest.mark.parametrize("kind, fixed, grid", [
    (QuenchKind.FIELD, fixed_params(N=128, gamma=0.2, alpha=10.0), GridSpec(-3, 3, 0.05)),
    (QuenchKind.FIELD, fixed_params(N=64, gamma=0.0, alpha=1.0), GridSpec(-3, 3, 0.1)),
    (QuenchKind.COUPLING, fixed_params(N=128, gamma=0.8, h=-0.5), GridSpec(0.5, 3.0, 0.05)),
])
def test_entanglement_map_bits_unchanged(kind, fixed, grid):
    (mz, cxx, cyy, czz), = _steady_maps(
        fixed.N, *_axes(kind, fixed, grid.values())(fixed))
    maps = sweep_all(kind, fixed, grid)
    assert np.array_equal(maps[Quantifier.CZZ].values, czz)
    assert np.array_equal(maps[Quantifier.ENTANGLEMENT].values,
                          steady_entanglement_map(mz, cxx, cyy, czz))
    assert np.array_equal(sweep(kind, fixed, grid, Quantifier.ENTANGLEMENT).values,
                          maps[Quantifier.ENTANGLEMENT].values)


@pytest.mark.parametrize("kind, fixed, grid", [
    (QuenchKind.FIELD, fixed_params(N=128, gamma=0.8, alpha=3.5), GridSpec(-3, 3, 0.05)),
    (QuenchKind.COUPLING, fixed_params(N=128, gamma=0.8, h=-0.5), GridSpec(0.5, 3.0, 0.05)),
])
def test_bell_map_is_chsh_at_zero_cxy(kind, fixed, grid):
    (_, cxx, cyy, czz), = _steady_maps(
        fixed.N, *_axes(kind, fixed, grid.values())(fixed))
    assert np.max(np.abs(_bell_map(cxx, cyy, czz)
                         - chsh_arrays(cxx, cyy, czz, 0.0, 0.0)[3])) <= 1e-15


def test_efficiency_counts_cross_cells_of_the_policy():
    fixed = fixed_params(N=16, gamma=0.2, alpha=10.0)
    diagram = sweep(QuenchKind.FIELD, fixed, GridSpec(-3, 3, 0.1), Quantifier.BELL)
    q_c = critical_threshold(diagram, boundary="cross", cross_lines="nn_limit")
    report = efficiency(diagram, q_c, boundary="cross", cross_lines="nn_limit")
    assert report.n_cross_cells == 1760
    # the model-line policy (the default) counts the complement of the
    # same-phase mask
    assert efficiency(diagram, q_c).n_cross_cells == int(
        np.count_nonzero(~diagram.same_phase_mask)) == 1679
