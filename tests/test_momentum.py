import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellquench.errors import ResourceCapError
from bellquench.model import ModelParams
from bellquench.momentum import (DEGENERACY_TOL, MEMORY_CAP, check_footprint,
                                 dispersion, ground_bloch, ground_energy,
                                 mode_angles)
from bellquench.oracle import ground_state_even


def params(**kwargs):
    defaults = dict(N=8, gamma=1.0, alpha=10.0, h=0.5)
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestModeGrid:
    def test_antiperiodic_angles(self):
        phis = mode_angles(8)
        assert np.allclose(phis, np.pi * np.array([1, 3, 5, 7]) / 8.0)
        assert np.all((phis > 0) & (phis < np.pi))

    def test_periodic_angles(self):
        phis = mode_angles(8, "periodic")
        assert np.allclose(phis, 2 * np.pi * np.array([1, 2, 3]) / 8.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            mode_angles(7)


class TestDispersion:
    def test_phi_pi_nn_pairing_vanishes(self):
        a, b = dispersion(params(alpha=100.0), np.array([np.pi]))
        assert abs(b[0]) < 1e-12
        assert a[0] == pytest.approx(1.0, abs=1e-12)

    def test_gamma_zero_no_pairing(self):
        _, b = dispersion(params(gamma=0.0), mode_angles(8))
        assert np.all(b == 0.0)

    def test_nn_half_pi_block(self):
        # NN limit, h=0, phi=pi/2: a = 0 and the even doublet couples
        # |0> and |pair> with strength gamma; levels a -+ Lambda = -+gamma.
        # The dense-solver-arbitrated coupling sign makes b = -gamma
        # (the opposite-sign convention is spectrum-equivalent).
        gamma = 0.7
        a, b = dispersion(params(gamma=gamma, alpha=100.0, h=0.0),
                          np.array([np.pi / 2]))
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        assert b[0] == pytest.approx(-gamma, abs=1e-12)
        lam, ny, nz = ground_bloch(a, b)  # u = a at h = 0
        assert lam[0] == pytest.approx(gamma, abs=1e-12)
        assert ny[0] == pytest.approx(-1.0, abs=1e-12)


def bloch_from_eigh(u, b):
    """Levels and Bloch vector of the lowest eigenvector of the even
    block -b*sigma_y - u*sigma_z."""
    block = np.array([[-u, 1j * b], [-1j * b, u]])
    levels, vecs = np.linalg.eigh(block)
    v = vecs[:, 0]
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    return levels, [float(np.real(v.conj() @ s @ v)) for s in paulis]


finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


class TestGroundBloch:
    @settings(max_examples=500, deadline=None)
    @given(u=finite, b=finite | st.just(0.0))
    @example(u=1.0, b=0.0)
    @example(u=-1.0, b=0.0)
    @example(u=1e-12, b=0.0)
    @example(u=0.0, b=-1e-12)
    def test_matches_eigh(self, u, b):
        assume(np.hypot(u, b) >= 1e-12)
        lam, ny, nz = ground_bloch(u, b)
        levels, (sx, sy, sz) = bloch_from_eigh(u, b)
        assert lam == np.hypot(u, b)
        assert np.allclose(levels, [-lam, lam], rtol=1e-12, atol=0)
        assert abs(sx) < 1e-12
        assert abs(ny - sy) < 1e-12 and abs(nz - sz) < 1e-12
        assert abs(ny * ny + nz * nz - 1.0) < 1e-12

    def test_degenerate_continuity_convention(self):
        # the h - eps limit: |pair>, (0, -1)
        a, h = 0.5, -0.5
        assert ground_bloch(a + h, 0.0) == (0.0, 0.0, -1.0)
        lam, ny, nz = ground_bloch(np.array([0.5 * DEGENERACY_TOL, 1.0]),
                                   np.array([0.0, 0.0]))
        assert ny.tolist() == [0.0, 0.0] and nz.tolist() == [-1.0, 1.0]

    def test_polarized_limit(self):
        p = params(h=1e6)
        a, b = dispersion(p, mode_angles(p.N))
        _, ny, nz = ground_bloch(a + p.h, b)
        assert np.allclose(nz, 1.0, atol=1e-6)
        assert np.allclose(ny, 0.0, atol=1e-6)

    def test_gamma_zero_sign(self):
        # no pairing: the ground state is |0> (n_z = +1) where u > 0 and
        # |pair> (n_z = -1) where u < 0
        p = params(gamma=0.0, h=0.5)
        a, b = dispersion(p, mode_angles(p.N))
        u = a + p.h
        _, ny, nz = ground_bloch(u, b)
        assert np.all(ny == 0.0)
        assert np.array_equal(nz, np.sign(u))

    def test_unit_norm(self):
        p = params(gamma=0.3, alpha=0.9, h=-0.4)
        a, b = dispersion(p, mode_angles(p.N))
        lam, ny, nz = ground_bloch(a + p.h, b)
        assert np.all(lam > DEGENERACY_TOL)
        assert np.allclose(ny * ny + nz * nz, 1.0, atol=1e-12, rtol=0)


class TestFootprint:
    def test_admits_test_and_benchmark_sizes(self):
        assert check_footprint(512, 601, 601 ** 2) < MEMORY_CAP
        assert check_footprint(512, 256, samples=12001) < MEMORY_CAP

    def test_refuses_beyond_the_cap(self):
        with pytest.raises(ResourceCapError):
            check_footprint(100_000)
        with pytest.raises(ResourceCapError):
            check_footprint(512, 60_000_001, 60_000_001 ** 2)

    # traced peak of the sweep below: 7.7 MB; 8.2 MB with a kernel that
    # held gy and gz per grid value, and 11.7 MB with one that held the
    # four (n, n) correlator maps before taking the quantifiers
    SWEEP_PEAK_BOUND = 9.4e6
    # traced peaks of the curves below: 11.5 MB (field) and 6.0 MB
    # (coupling); a kernel that held gy and gz per grid value and a u
    # array per point traced 14.8 MB and 7.9 MB, and one that gathered
    # its columns into a copy of its factor arrays 22.8 MB and 10.1 MB
    CURVE_PEAK_BOUNDS = {"field": 14e6, "coupling": 6.9e6}

    @pytest.mark.parametrize("kind,N,step,bound", [
        ("field", 256, 0.02, SWEEP_PEAK_BOUND),
        # at small N the quantifier pass's chunk temporaries outweigh the
        # kernel: uncharged, they traced 0.4 to 1.3 MB above the estimate
        ("field", 16, 0.01, None), ("field", 64, 0.01, None),
        ("coupling", 16, 0.005, None), ("coupling", 64, 0.005, None),
    ], ids=["field-256", "field-16", "field-64", "coupling-16", "coupling-64"])
    def test_bounds_the_traced_sweep_peak(self, kind, N, step, bound):
        import tracemalloc

        from bellquench.model import WINDOW, QuenchKind
        from bellquench.sweep import GridSpec, kernel_footprint, sweep_all

        kind = QuenchKind(kind)
        fixed = (params(N=N, gamma=0.2, alpha=10.0, h=0.0) if kind is QuenchKind.FIELD
                 else params(N=N, gamma=0.8, alpha=1.0, h=-0.5))
        grid = GridSpec(*WINDOW[kind], step)
        tracemalloc.start()
        try:
            sweep_all(kind, fixed, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kernel_footprint(N, grid, grid.count ** 2)
        assert bound is None or peak < bound

    @pytest.mark.parametrize("kind,gamma,points", [
        ("field", 1.0, [0.5, 1.5, 3.5, 10.0]),
        ("coupling", 0.8, [-0.7, -0.16, 0.38]),
    ])
    def test_bounds_the_traced_curve_peak(self, kind, gamma, points):
        # the estimate threshold_curve checks and a fixed bound, against
        # the steady kernel's arrays and its chunks on the default grids
        import tracemalloc

        from bellquench.dynamics import ROW_CHUNK
        from bellquench.model import QuenchKind
        from bellquench.sweep import KIND_DEFAULTS, threshold_curve

        kind = QuenchKind(kind)
        grid = KIND_DEFAULTS[kind].grid
        tracemalloc.start()
        try:
            threshold_curve(kind, gamma, points, N=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < check_footprint(512, grid.count, 2 * ROW_CHUNK * grid.count)
        assert peak < self.CURVE_PEAK_BOUNDS[kind.value]

    def test_curve_peak_does_not_grow_with_points(self):
        # each point's cross blocks, an order array of the grid's length,
        # are built when its turn comes: built up front, the 100 more
        # points here held 0.55 MB more at the peak
        import tracemalloc

        from bellquench.model import QuenchKind
        from bellquench.sweep import GridSpec, threshold_curve

        grid = GridSpec(-3.0, 3.0, 0.01)

        def peak(count):
            points = [0.6 + 0.001 * k for k in range(count)]
            tracemalloc.start()
            try:
                threshold_curve(QuenchKind.FIELD, 0.5, points, grid, N=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        assert peak(102) - peak(2) < 100 * grid.count * 8 / 4


class TestGroundEnergy:
    @pytest.mark.parametrize("kwargs", [
        dict(N=8, gamma=1.0, alpha=10.0, h=0.5),
        dict(N=8, gamma=0.7, alpha=1.3, h=0.45),
        dict(N=10, gamma=0.2, alpha=0.9, h=-1.2),
        dict(N=12, gamma=0.5, alpha=2.0, h=2.0),
    ])
    def test_matches_dense_even_sector(self, kwargs):
        p = ModelParams(**kwargs)
        e_dense, _ = ground_state_even(p)
        assert ground_energy(p) == pytest.approx(e_dense, abs=1e-10)


def test_dispersion_shapes():
    p = params(N=512, alpha=100.0)
    phis = mode_angles(512)
    a, b = dispersion(p, phis)
    assert a.shape == b.shape == (256,)
    # strict NN limit: a = -cos(phi), b = -gamma*sin(phi)
    assert np.allclose(a, -np.cos(phis), atol=1e-12)
    assert np.allclose(b, -p.gamma * np.sin(phis), atol=1e-12)


def test_dispersion_alpha_axis_bitwise():
    # one cos/sin table for all rates; each row one GEMV, as in the
    # single-rate call
    p = params(N=512, gamma=0.7, alpha=1.0)
    phis = mode_angles(512)
    alphas = 0.5 + 0.01 * np.arange(251)   # the default coupling axis
    a, b = dispersion(p, phis, alphas=alphas)
    assert a.shape == b.shape == (len(alphas), phis.size)
    for k, alpha in enumerate(alphas):
        a_k, b_k = dispersion(p.replace(alpha=float(alpha)), phis)
        assert np.array_equal(a[k], a_k)
        assert np.array_equal(b[k], b_k)
