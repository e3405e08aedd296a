import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellquench.bell import bell_value, xstate_log_negativity
from bellquench.model import ModelParams, QuenchKind, field_quench, make_quench
from bellquench.momentum import (STEADY_DEGENERACY_TOL, TIMED_DEGENERACY_TOL,
                                 ground_bloch)
from bellquench.dynamics import (MAX_TIME_SAMPLES, STEADY, TIME_CHUNK,
                                 CorrelatorSet, SteadyKernel, TimeGrid,
                                 _correlators_from_sums, _quench_axis,
                                 _timed_mode_sums, correlator_arrays,
                                 correlator_time_series, correlators_at,
                                 steady_correlators)
from bellquench.errors import ResourceCapError
from bellquench import oracle
from bellquench.oracle import _ID, _SZ
import steady_reference

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


def _op_on_site(op: np.ndarray, site: int, N: int) -> np.ndarray:
    """Dense operator acting on one site; site 0 is the least
    significant bit, so it sits rightmost in the Kronecker product."""
    out = np.array([[1.0 + 0j]])
    for k in range(N - 1, -1, -1):
        out = np.kron(out, op if k == site else _ID)
    return out


def jw_annihilation(site: int, N: int) -> np.ndarray:
    """Dense fermion operator c_site = (prod_{m<site} sz_m) |up><down|."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    out = _op_on_site(lower, site, N)
    for m in range(site):
        out = _op_on_site(_SZ, m, N) @ out
    return out


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
        c0 = jw_annihilation(0, 10)
        c1 = jw_annihilation(1, 10)
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
        q = make_quench(QuenchKind.COUPLING,
                        ModelParams(N=256, gamma=0.4, alpha=1.0, h=-0.5), 1.0, 2.5)
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


def rotation_reference(phis, gy, gz, b_f, u_f, steps, dt):
    """The four mode sums of _timed_mode_sums at the times steps * dt,
    rotated in long double from the same double inputs, and a bound on
    the double kernel's error in each.

    With u the unit roundoff of a double, each of the kernel's angles
    2 Lambda_k start and 2 Lambda_k offset carries at most three
    relative roundings (Lambda_k, the time, their product), so their
    sum theta_k is off by at most 3 u theta_k.  The cos and sin of both
    angles add 2 u each, the weights and the (2 modes)-term products of
    the BLAS call at most 2 modes + 8 more.  A sum with mode weights
    w_k (|w_k| <= 1) is thus within u sum_k |w_k| (3 theta_k + 2 modes
    + 16), plus modes u sum_k |para_k| for its constant para terms.
    """
    ld = np.longdouble
    gy, gz, b_f, u_f, phis = (np.asarray(v, dtype=ld) for v in (gy, gz, b_f, u_f, phis))
    lam = np.sqrt(u_f * u_f + b_f * b_f)
    dy, dz = -b_f / lam, -u_f / lam
    kappa = gy * dy + gz * dz
    para_y, para_z = kappa * dy, kappa * dz
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    weights = np.stack([gz - para_z, cos_p * (gz - para_z), sin_p * (gy - para_y),
                        sin_p * (dy * gz - dz * gy)])
    para = np.stack([para_z, cos_p * para_z, sin_p * para_y, 0.0 * para_z])
    theta = np.multiply.outer(np.asarray(steps, dtype=ld) * ld(dt), 2.0 * lam)
    trig = np.stack([np.cos(theta)] * 3 + [np.sin(theta)])
    sums = np.sum(weights[:, None, :] * trig, axis=-1) + np.sum(para, axis=-1)[:, None]
    modes, unit = phis.size, np.finfo(np.float64).eps / 2
    bound = unit * (np.abs(weights) @ (3.0 * theta.T + 2 * modes + 16)
                    + modes * np.sum(np.abs(para), axis=-1)[:, None])
    return sums.astype(np.float64), bound.astype(np.float64)


class TestTimedKernel:
    def test_chunk_boundaries_match_single_time(self):
        q = nn_quench(N=64, gamma=0.7, alpha=1.5, h_i=0.3, h_f=1.9)
        grid = TimeGrid(0.1 * (2 * TIME_CHUNK + 10), 0.1)
        series = correlator_time_series(q, grid)
        assert len(series) == grid.count > 2 * TIME_CHUNK
        for k in (TIME_CHUNK - 1, TIME_CHUNK, 2 * TIME_CHUNK - 1,
                  2 * TIME_CHUNK, len(series) - 1):
            assert max_dev(series[k], correlators_at(q, series[k].t)) < 1e-12

    @pytest.mark.parametrize("k", [2, 13, TIME_CHUNK + 5])
    def test_prefix_of_longer_grid(self, k):
        # every chunk runs whole, so a sample's bits do not depend on
        # where the grid ends
        q = nn_quench(N=64, gamma=0.7, alpha=1.5, h_i=0.3, h_f=1.9)
        long = correlator_arrays(q, TimeGrid(0.1 * 3 * TIME_CHUNK, 0.1))
        short = correlator_arrays(q, TimeGrid(0.1 * (k - 1), 0.1))
        assert short[0].size == k
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:k])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    def test_long_time_sums_match_long_double(self):
        # README quench at N = 512 to t = 1.2e4 (angles 2 Lambda t up to
        # 8e4), the kernel's chunks as correlator_arrays forms them,
        # against the same rotation in long double at 300 samples and
        # the last
        q = field_quench(ModelParams(N=512, gamma=1.0, alpha=10.0, h=0.5),
                         0.5, 2.5)
        grid = TimeGrid(1.2e4, 0.1)
        phis, b, u = _quench_axis(q)
        _, gy, gz = ground_bloch(u[0], b[0])
        times = grid.times()
        sums = _timed_mode_sums(phis, gy, gz, b[1], u[1], times[::TIME_CHUNK],
                                grid.dt * np.arange(TIME_CHUNK))
        picks = np.append(np.random.default_rng(5).choice(times.size, 300), times.size - 1)
        reference, bound = rotation_reference(phis, gy, gz, b[1], u[1], picks, grid.dt)
        assert np.all(np.abs(sums[:, picks] - reference) <= bound)

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


class TestCutoffs:
    """One block on a hand-made two-row axis (row 0 initial, row 1
    final), with the final gap Lambda_f on both sides of
    STEADY_DEGENERACY_TOL and of TIMED_DEGENERACY_TOL."""

    PHIS = np.array([0.9])

    def correlators(self, sums):
        """(mz, cxx, cyy, czz) of one block's mode sums."""
        sums = np.array(sums, dtype=float).reshape(4, -1)
        return np.ravel(_correlators_from_sums(
            np.cos(self.PHIS).sum(), sums, 2, np.empty((2, sums.shape[1])))[:4])

    def block(self, lam_f):
        # initial and final fields point along different axes
        b = np.array([[0.6], [0.6 * lam_f]])
        u = np.array([[-0.3], [0.8 * lam_f]])
        _, gy, gz = ground_bloch(u[0], b[0])
        (_, *steady), = SteadyKernel(2, self.PHIS, 2).maps(
            b, u, ((slice(0, 1), slice(1, 2)),))
        steady = np.ravel(steady)
        held = np.stack([gz, np.cos(self.PHIS) * gz, np.sin(self.PHIS) * gy,
                         np.zeros(1)])
        return b, u, gy, gz, steady, held

    def test_cutoffs_ordered(self):
        assert 0.0 < 1e-31 < TIMED_DEGENERACY_TOL < 1e-13
        assert 1e-13 < STEADY_DEGENERACY_TOL < 1e-11

    @pytest.mark.parametrize("lam_f", [1e-11, 1.0])
    def test_steady_is_period_average(self, lam_f):
        b, u, gy, gz, steady, held = self.block(lam_f)
        times = (math.pi / lam_f) * np.arange(16) / 16
        sums = _timed_mode_sums(self.PHIS, gy, gz, b[1], u[1], times)
        average = self.correlators(sums.mean(axis=1))
        assert np.max(np.abs(steady - average)) <= 1e-12
        # the projection is not the initial vector: the cutoff decides
        assert np.max(np.abs(steady - self.correlators(held))) > 1e-3

    @pytest.mark.parametrize("lam_f", [0.0, 1e-31, 1e-13])
    def test_below_steady_cutoff_vector_survives(self, lam_f):
        b, u, gy, gz, steady, held = self.block(lam_f)
        assert np.array_equal(steady, self.correlators(held))
        times = np.array([0.0, 1.0, 1e3, 1e6])
        sums = _timed_mode_sums(self.PHIS, gy, gz, b[1], u[1], times)
        assert np.max(np.abs(sums - held)) <= 1e-6


@st.composite
def model_quenches(draw, max_n=64):
    """Field or coupling quenches at N <= max_n, with gamma = 0 and
    fields exactly on h = +-1 and h_c(alpha) drawn alongside generic
    values."""
    n = draw(st.integers(2, max_n // 2)) * 2
    gamma = draw(st.just(0.0) | st.floats(0.0, 1.0))
    alpha = draw(st.floats(0.3, 6.0))
    fields = (st.sampled_from([1.0, -1.0, -1.0 + 2.0 ** (1.0 - alpha)])
              | st.floats(-3.0, 3.0))
    base = ModelParams(N=n, gamma=gamma, alpha=alpha, h=draw(fields))
    if draw(st.booleans()):
        return field_quench(base, draw(fields), draw(fields))
    rates = st.floats(0.3, 6.0)
    # the coupling line alpha_c(h); it rounds to 0 as h approaches 1
    alpha_c = 1.0 - math.log2(1.0 + base.h) if -1.0 < base.h < 1.0 else 0.0
    if alpha_c > 0.0:
        rates = st.just(alpha_c) | rates
    return make_quench(QuenchKind.COUPLING, base, draw(rates), draw(rates))


@settings(max_examples=300, deadline=None)
@given(model_quenches())
def test_steady_cell_matches_reference(quench):
    # steady_correlators is one cell of the sweep kernel; the reference
    # projects mode by mode and sums with np.sum
    steady = steady_correlators(quench)
    assert max_dev(steady, steady_reference.steady_correlators(quench)) <= 1e-12
    assert bell_value(steady) <= 2.0 * math.sqrt(2.0)
    xstate_log_negativity(steady.mz, steady.cxx, steady.cyy, steady.czz,
                          steady.cxy)


@settings(max_examples=60, deadline=None)
@given(model_quenches(max_n=10), st.floats(1.0, 1e3), st.integers(2, 3 * TIME_CHUNK),
       st.integers(0, 3 * TIME_CHUNK))
# h_i on the line h_c(0.5), where the gamma = 0 chain's even ground level
# is doubly degenerate: both paths take the limit h_i - eps
@example(field_quench(ModelParams(N=4, gamma=0.0, alpha=0.5, h=0.0),
                      -1.0 + 2.0 ** 0.5, 1.0), 10.0, 3, 1)
def test_timed_matches_oracle(quench, t_max, count, pick):
    # a grid of `count` samples to t_max <= 1e3, so the angle addition
    # meets large starts and nonzero offsets; correlators_at and
    # correlator_arrays at t = 0 and two more of its samples against the dense
    # evolution.  Tolerance, with u the unit roundoff of a double and D
    # the even sector's dimension (D >= 8): each momentum angle
    # 2 Lambda_k t is off by at most 3 u 2 Lambda_k t
    # (rotation_reference); the dense phases E_j t by D u |H_f| t
    # (eigh's backward error p(D) u |H_f|, taken with p(D) = D, acting
    # for a time t), and its initial vector and reduced-state sums of
    # at most D terms by D u.  A correlator moves by at most 10 times
    # these (C_zz: 2 |m_z| + 8 (|F| + |G|) <= 10), so the two paths
    # agree within 16 D u (1 + (2 Lambda + |H_f|) t).
    grid = TimeGrid(t_max, t_max / (count - 1))
    times, *arrays = correlator_arrays(quench, grid)
    runner = oracle.OracleQuench(quench)
    _, b, u = _quench_axis(quench)
    rates = 2.0 * np.max(np.hypot(u[1], b[1])) + np.max(np.abs(runner._energies))
    dim = 2 ** (quench.initial.N - 1)
    for k in (0, pick % times.size, times.size - 1):
        t = float(times[k])
        dense = oracle.correlator_set_from_pair(
            oracle.pair_observables(runner.rho12_at(t)), t)
        tol = 16 * dim * (np.finfo(float).eps / 2) * (1.0 + rates * t)
        assert max_dev(correlators_at(quench, t), dense) <= tol
        row = CorrelatorSet(*(float(a[k]) for a in arrays), cyx=float(arrays[4][k]), t=t)
        assert max_dev(row, dense) <= tol
