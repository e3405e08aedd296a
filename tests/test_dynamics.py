import numpy as np
import pytest

from bellquench.model import ModelParams, coupling_quench, field_quench
from bellquench.dynamics import (MAX_TIME_SAMPLES, STEADY, TIME_CHUNK, TimeGrid,
                                 correlator_arrays, correlator_time_series,
                                 correlators_at, steady_correlators)
from bellquench.errors import ResourceCapError
from bellquench import oracle

CORRELATOR_FIELDS = ("mz", "cxx", "cyy", "czz", "cxy", "cyx")


def nn_quench(N=8, gamma=1.0, h_i=0.5, h_f=2.5, alpha=10.0):
    return field_quench(ModelParams(N=N, gamma=gamma, alpha=alpha, h=h_i),
                        h_i, h_f)


def max_dev(a, b):
    return max(abs(getattr(a, k) - getattr(b, k)) for k in CORRELATOR_FIELDS)


@pytest.mark.parametrize("t", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_invalid_time_rejected(t):
    q = nn_quench()
    with pytest.raises(ValueError, match="finite and >= 0"):
        correlators_at(q, t)


class TestCorrelatorsAt:
    def test_polarized_product_state(self):
        q = nn_quench(h_i=1e6, h_f=1e6)
        c = correlators_at(q, 0.0)
        assert c.mz == pytest.approx(1.0, abs=1e-6)
        assert c.czz == pytest.approx(1.0, abs=1e-6)
        for k in ("cxx", "cyy", "cxy", "cyx"):
            assert abs(getattr(c, k)) < 1e-6

    @pytest.mark.parametrize("t", [0.0, 1.3])
    def test_matches_oracle_n10(self, t):
        q = nn_quench(N=10)
        reference, _ = oracle.oracle_quench(q, t)
        assert max_dev(correlators_at(q, t), reference) < 1e-8

    def test_no_quench_stationary(self):
        q = nn_quench(h_i=0.7, h_f=0.7)
        c0 = correlators_at(q, 0.0)
        for t in (0.4, 3.7, 11.0):
            assert max_dev(correlators_at(q, t), c0) < 1e-12

    def test_bounded(self):
        q = field_quench(ModelParams(N=64, gamma=0.3, alpha=0.8, h=-2.0),
                         -2.0, 0.5)
        for t in np.linspace(0, 20, 40):
            c = correlators_at(q, float(t))
            for k in CORRELATOR_FIELDS:
                assert abs(getattr(c, k)) <= 1.0 + 1e-9


def one_body(quench, t):
    """(G0, G, F) = (<c+_j c_j>, <c+_j c_{j+1}>, <c_j c_{j+1}>), the Wick
    inputs of C_zz, from the spin correlators at time t."""
    c = correlators_at(quench, t)
    return ((1.0 - c.mz) / 2.0, (c.cxx + c.cyy) / 4.0,
            ((c.cyy - c.cxx) - 2j * c.cxy) / 4.0)


class TestOneBody:
    def test_vacuum_limit(self):
        g0, g, f = one_body(nn_quench(h_i=1e6, h_f=1e6), 0.0)
        assert abs(g0) < 1e-6 and abs(g) < 1e-6 and abs(f) < 1e-6

    def test_filled_limit(self):
        g0, g, _ = one_body(nn_quench(h_i=-1e6, h_f=-1e6), 0.0)
        assert g0 == pytest.approx(1.0, abs=1e-6)
        assert abs(g) < 1e-6

    def test_matches_dense_jw(self):
        q = nn_quench(N=10, gamma=0.8, alpha=2.0, h_i=0.3, h_f=-0.9)
        runner = oracle.OracleQuench(q)
        c0 = oracle.jw_annihilation(0, 10)
        c1 = oracle.jw_annihilation(1, 10)
        t = 0.7
        psi = runner.state_at(t)
        g0, g, f = one_body(q, t)
        assert abs(f - psi.conj() @ (c0 @ c1) @ psi) < 1e-8
        assert abs(g - psi.conj() @ (c0.conj().T @ c1) @ psi) < 1e-8
        assert abs(g0 - (psi.conj() @ (c0.conj().T @ c0) @ psi).real) < 1e-8


class TestSteadyState:
    def test_no_quench_equals_equilibrium(self):
        q = nn_quench(h_i=0.7, h_f=0.7)
        steady = steady_correlators(q)
        assert steady.t == STEADY
        assert max_dev(steady, correlators_at(q, 0.0)) < 1e-14

    def test_steady_has_no_xy(self):
        q = nn_quench(N=512, h_i=0.5, h_f=2.5)
        steady = steady_correlators(q)
        assert steady.cxy == 0.0 and steady.cyx == 0.0

    def test_agrees_with_long_time_average(self):
        q = field_quench(ModelParams(N=512, gamma=1.0, alpha=10.0, h=0.5),
                         0.5, 2.5)
        steady = steady_correlators(q)
        series = correlator_time_series(q, TimeGrid(400.0, 0.1))
        window = [c for c in series if c.t >= 200.0]
        for k in CORRELATOR_FIELDS:
            avg = np.mean([getattr(c, k) for c in window])
            assert abs(avg - getattr(steady, k)) < 1e-2

    def test_coupling_quench_steady(self):
        q = coupling_quench(ModelParams(N=256, gamma=0.4, alpha=1.0, h=-0.5),
                            1.0, 2.5)
        steady = steady_correlators(q)
        series = correlator_time_series(q, TimeGrid(300.0, 0.1))
        window = [c for c in series if c.t >= 150.0]
        avg = np.mean([c.czz for c in window])
        assert abs(avg - steady.czz) < 1e-2


class TestTimeSeries:
    def test_constant_for_no_quench(self):
        q = nn_quench(h_i=1.2, h_f=1.2)
        series = correlator_time_series(q, TimeGrid(5.0, 0.5))
        first = series[0]
        assert all(max_dev(c, first) < 1e-12 for c in series)

    def test_sampling_is_exact(self):
        # halving dt only adds samples; shared times agree exactly
        q = nn_quench(N=16, h_i=0.4, h_f=1.8)
        coarse = correlator_time_series(q, TimeGrid(4.0, 0.5))
        fine = correlator_time_series(q, TimeGrid(4.0, 0.25))
        for c in coarse:
            match = [f for f in fine if abs(f.t - c.t) < 1e-12][0]
            assert max_dev(c, match) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, -0.1)

    def test_late_window_settles(self):
        q = field_quench(ModelParams(N=512, gamma=1.0, alpha=10.0, h=0.5),
                         0.5, 2.5)
        series = correlator_time_series(q, TimeGrid(400.0, 0.1))
        czz = np.array([c.czz for c in series])
        late = czz[int(0.8 * czz.size):]
        assert late.std() < 0.02


class TestTimedKernel:
    def test_chunk_boundaries_match_single_time(self):
        q = nn_quench(N=64, gamma=0.7, alpha=1.5, h_i=0.3, h_f=1.9)
        grid = TimeGrid(0.1 * (2 * TIME_CHUNK + 10), 0.1)
        series = correlator_time_series(q, grid)
        assert len(series) == grid.count > 2 * TIME_CHUNK
        for k in (TIME_CHUNK - 1, TIME_CHUNK, 2 * TIME_CHUNK - 1,
                  2 * TIME_CHUNK, len(series) - 1):
            assert max_dev(series[k], correlators_at(q, series[k].t)) < 1e-12

    def test_arrays_match_series(self):
        q = nn_quench(N=16, h_i=0.4, h_f=1.8)
        grid = TimeGrid(3.0, 0.25)
        times, mz, cxx, cyy, czz, cxy = correlator_arrays(q, grid)
        for k, c in enumerate(correlator_time_series(q, grid)):
            assert (c.t, c.mz, c.cxx, c.cyy, c.czz, c.cxy, c.cyx) == (
                times[k], mz[k], cxx[k], cyy[k], czz[k], cxy[k], cxy[k])

    def test_cap_refuses_before_allocating(self, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("the capped grid was allocated")

        monkeypatch.setattr(np, "arange", no_arange)
        grid = TimeGrid(1e6, 1e-6)
        assert grid.count == 10 ** 12 + 1
        with pytest.raises(ResourceCapError):
            grid.times()
        with pytest.raises(ResourceCapError):
            TimeGrid(0.5 * MAX_TIME_SAMPLES, 0.5).times()

    def test_cap_is_inclusive(self):
        assert TimeGrid(0.5 * (MAX_TIME_SAMPLES - 1), 0.5).times().size == MAX_TIME_SAMPLES

    def test_non_finite_grid_rejected(self):
        for t_max, dt in ((float("nan"), 0.1), (float("inf"), 0.1),
                          (1.0, float("nan")), (1e300, 1e-300)):
            with pytest.raises(ValueError):
                TimeGrid(t_max, dt)


class TestXStateProperty:
    def test_cross_correlators_vanish_in_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            gamma = float(rng.uniform(0.1, 1.0))
            alpha = float(rng.uniform(0.6, 6.0))
            h_i, h_f = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
            q = field_quench(ModelParams(N=8, gamma=gamma, alpha=alpha, h=h_i),
                             h_i, h_f)
            _, rho12 = oracle.oracle_quench(q, float(rng.uniform(0, 3)))
            obs = oracle.pair_observables(rho12)
            for key in ("cxz", "czx", "cyz", "czy"):
                assert abs(obs[key]) < 1e-10
