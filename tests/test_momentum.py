import numpy as np
import pytest

from bellquench.errors import DegenerateGroundStateError
from bellquench.model import ModelParams
from bellquench.momentum import (MomentumMode,
                                 build_block_hamiltonian,
                                 build_block_operators, dispersion,
                                 ground_block_state, ground_bloch,
                                 ground_energy, mode_angles, modes,
                                 magnetization_block)
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
            MomentumMode(1, 0.0)
        with pytest.raises(ValueError):
            mode_angles(7)

    def test_modes_constructor(self):
        ms = modes(params(N=8))
        assert [m.index for m in ms] == [1, 2, 3, 4]
        assert np.allclose([m.phi for m in ms], mode_angles(8))


class TestBlockHamiltonian:
    def test_matrix_layout(self):
        hp = build_block_hamiltonian(params(), MomentumMode(1, np.pi / 3))
        m = hp.matrix
        assert m[0, 0] == -0.5
        assert m[1, 1] == pytest.approx(2 * hp.a + 0.5)
        assert m[0, 1] == pytest.approx(1j * hp.b)
        assert m[1, 0] == pytest.approx(-1j * hp.b)
        assert m[2, 2] == m[3, 3] == pytest.approx(hp.a)
        assert np.allclose(m, m.conj().T)

    def test_phi_pi_nn_is_diagonal(self):
        hp = build_block_hamiltonian(params(alpha=100.0), MomentumMode(4, np.pi))
        assert abs(hp.b) < 1e-12
        assert np.allclose(hp.matrix, np.diag(np.diag(hp.matrix)))

    def test_gamma_zero_no_pairing(self):
        for phi in mode_angles(8):
            hp = build_block_hamiltonian(params(gamma=0.0), MomentumMode(1, phi))
            assert hp.b == 0.0

    def test_nn_half_pi_block(self):
        # NN limit, h=0, phi=pi/2: a = 0 and the even block couples
        # |0> and |pair> with strength gamma; spectrum {-gamma, +gamma}.
        # The dense-solver-arbitrated coupling sign makes b = -gamma
        # (the opposite-sign convention is spectrum-equivalent).
        gamma = 0.7
        hp = build_block_hamiltonian(params(gamma=gamma, alpha=100.0, h=0.0),
                                     MomentumMode(1, np.pi / 2))
        assert hp.a == pytest.approx(0.0, abs=1e-12)
        assert hp.b == pytest.approx(-gamma, abs=1e-12)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = -1j * gamma
        expected[1, 0] = 1j * gamma
        assert np.allclose(hp.matrix, expected, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(hp.matrix)),
                           [-gamma, 0.0, 0.0, gamma], atol=1e-12)

    def test_block_spectrum_closed_form(self):
        # spectrum of the 4x4 equals {a - L, a, a, a + L} with
        # L = sqrt((a+h)^2 + b^2), checked by a generic eigensolver
        p = params(gamma=0.4, alpha=1.3, h=-0.7)
        for phi in mode_angles(p.N):
            hp = build_block_hamiltonian(p, MomentumMode(1, phi))
            lam = np.hypot(hp.a + p.h, hp.b)
            expected = np.sort([hp.a - lam, hp.a, hp.a, hp.a + lam])
            assert np.allclose(np.linalg.eigvalsh(hp.matrix), expected,
                               atol=1e-12)


class TestBlockOperators:
    def test_phi_pi_txx(self):
        ops = build_block_operators(MomentumMode(4, np.pi))
        assert np.allclose(ops.txx, np.diag([0.0, -2.0, -1.0, -1.0]), atol=1e-12)

    def test_sz_sign_convention(self):
        ops = build_block_operators(MomentumMode(1, 0.77))
        assert np.allclose(ops.sz, np.diag([-1.0, 1.0, 0.0, 0.0]))

    def test_magnetization_sign_corrected(self):
        assert np.allclose(magnetization_block(), np.diag([1.0, -1.0, 0, 0]))

    def test_txy_half_pi(self):
        ops = build_block_operators(MomentumMode(1, np.pi / 2))
        assert np.allclose(ops.txy[:2, :2], [[0, -1], [-1, 0]])
        assert np.allclose(np.diag(ops.txy)[2:], [1.0, -1.0])

    def test_hermiticity(self):
        ops = build_block_operators(MomentumMode(1, 1.23))
        assert np.allclose(ops.txx, ops.txx.conj().T)
        assert np.allclose(ops.tyy, ops.tyy.conj().T)


class TestGroundBlockState:
    def test_polarized_limit(self):
        p = params(h=1e6)
        for phi in mode_angles(p.N):
            rho = ground_block_state(p, MomentumMode(1, phi)).rho
            assert rho[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_gamma_zero_selects_lower_diagonal(self):
        p = params(gamma=0.0, h=0.5)
        for phi in mode_angles(p.N):
            hp = build_block_hamiltonian(p, MomentumMode(1, phi))
            rho = ground_block_state(p, MomentumMode(1, phi)).rho
            if -p.h < 2 * hp.a + p.h:
                assert rho[0, 0] == pytest.approx(1.0)
            else:
                assert rho[1, 1] == pytest.approx(1.0)

    def test_purity_and_validity(self):
        p = params(gamma=0.3, alpha=0.9, h=-0.4)
        for phi in mode_angles(p.N):
            state = ground_block_state(p, MomentumMode(1, phi))
            state.validate()
            assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_strict_raises(self):
        with pytest.raises(DegenerateGroundStateError):
            ground_bloch(0.5, 0.0, -0.5, strict=True)

    def test_degenerate_continuity_convention(self):
        ny, nz = ground_bloch(0.5, 0.0, -0.5)
        assert (ny, nz) == (0.0, -1.0)


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
