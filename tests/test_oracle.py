import numpy as np
import pytest

from bellquench.errors import ResourceCapError
from bellquench.model import ModelParams, field_quench
from bellquench.dynamics import TimeGrid, correlators_at
from bellquench.bell import bell_value
from bellquench import oracle


def params(**kwargs):
    defaults = dict(N=8, gamma=1.0, alpha=10.0, h=0.5)
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestBuildSpinHamiltonian:
    def test_hermitian_real(self):
        h = oracle.build_spin_hamiltonian(params(gamma=0.4, alpha=1.1))
        assert np.allclose(h, h.T)

    def test_field_only_spectrum(self):
        # H(h) - H(0) is the field term alone: diagonal in the z basis
        p = ModelParams(N=6, gamma=0.5, alpha=2.0, h=0.8)
        diff = (oracle.build_spin_hamiltonian(p)
                - oracle.build_spin_hamiltonian(p.replace(h=0.0)))
        field = [-(p.h / 2.0) * (6 - 2 * bin(s).count("1")) for s in range(64)]
        assert np.allclose(diff, np.diag(field), atol=1e-12)

    def test_ising_field_reflection_symmetry(self):
        # NN Ising spectrum is invariant under h -> -h
        a = np.linalg.eigvalsh(oracle.build_spin_hamiltonian(
            params(N=4, alpha=100.0, h=0.7)))
        b = np.linalg.eigvalsh(oracle.build_spin_hamiltonian(
            params(N=4, alpha=100.0, h=-0.7)))
        assert np.allclose(a, b, atol=1e-10)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            oracle.build_spin_hamiltonian(params(N=16))


class TestSpectrumEquivalence:
    @pytest.mark.parametrize("kwargs", [
        dict(N=4, gamma=1.0, alpha=100.0, h=0.7),
        dict(N=6, gamma=0.3, alpha=0.9, h=1.2),
        dict(N=8, gamma=0.7, alpha=1.3, h=0.45),
        dict(N=8, gamma=1.0, alpha=10.0, h=-0.6),
        dict(N=8, gamma=0.0, alpha=2.0, h=0.25),
    ])
    def test_dense_vs_fermionic(self, kwargs):
        assert oracle.spectrum_match(ModelParams(**kwargs)) < 1e-8


class TestOracleQuench:
    def test_partial_trace_is_state(self):
        _, rho12 = oracle.oracle_quench(
            field_quench(params(N=8), 0.5, 2.5), 1.1)
        assert np.trace(rho12).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho12).min() > -1e-12

    def test_translation_invariance(self):
        q = field_quench(params(N=8, gamma=0.6, alpha=1.5), 0.5, -0.3)
        runner = oracle.OracleQuench(q)
        psi = runner.state_at(0.9)
        tensor = psi.reshape((2,) * 8)
        rho01 = np.moveaxis(tensor, [7, 6], [0, 1]).reshape(4, -1)
        rho01 = rho01 @ rho01.conj().T
        rho12 = np.moveaxis(tensor, [6, 5], [0, 1]).reshape(4, -1)
        rho12 = rho12 @ rho12.conj().T
        assert np.allclose(rho01, rho12, atol=1e-10)

    def test_stationary_without_quench(self):
        q = field_quench(params(N=8), 0.5, 0.5)
        _, rho_a = oracle.oracle_quench(q, 0.0)
        _, rho_b = oracle.oracle_quench(q, 2.3)
        assert np.allclose(rho_a, rho_b, atol=1e-10)

    def test_cross_validation_target(self):
        q = field_quench(params(N=10), 0.5, 2.5)
        reference, _ = oracle.oracle_quench(q, 2.0)
        computed = correlators_at(q, 2.0)
        for k in ("mz", "cxx", "cyy", "czz", "cxy", "cyx"):
            assert abs(getattr(computed, k) - getattr(reference, k)) < 1e-6

    def test_evolution_cap(self):
        with pytest.raises(ResourceCapError):
            oracle.OracleQuench(field_quench(params(N=14), 0.5, 2.5))


def oracle_bell_trace(quench, grid):
    """Bell value along the exact trajectory."""
    runner = oracle.OracleQuench(quench)
    return np.array([bell_value(oracle.correlator_set_from_pair(
        oracle.pair_observables(runner.rho12_at(float(t))), float(t)))
        for t in grid.times()])


class TestOracleBellTrace:
    def test_monogamy_and_initial_value(self):
        q = field_quench(params(N=8), 0.5, 2.5)
        trace = oracle_bell_trace(q, TimeGrid(5.0, 0.25))
        assert np.all(trace <= 2.0 + 1e-9)
        reference, _ = oracle.oracle_quench(q, 0.0)
        assert trace[0] == pytest.approx(bell_value(reference), abs=1e-12)

    def test_matches_free_fermion_trace(self):
        q = field_quench(params(N=10), 0.5, 2.5)
        times = TimeGrid(3.0, 0.5)
        dense = oracle_bell_trace(q, times)
        fermionic = [bell_value(correlators_at(q, float(t)))
                     for t in times.times()]
        assert np.allclose(dense, fermionic, atol=1e-6)


def test_even_ground_state_parity():
    _, psi = oracle.ground_state_even(params(N=8, gamma=0.3, alpha=1.2, h=-0.8))
    parity = np.array([(-1) ** bin(s).count("1") for s in range(256)])
    assert np.all(np.abs(psi[parity < 0]) < 1e-14)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
