import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellquench import oracle
from bellquench.bell import (_chsh_terms, bell_value, chsh_arrays, log_negativity,
                             partial_transpose, reconstruct_rho12,
                             xstate_log_negativity)
from bellquench.dynamics import (CorrelatorSet, TimeGrid, correlator_arrays,
                                 correlator_time_series, correlators_at,
                                 steady_correlators)
from bellquench.errors import InconsistentCorrelatorsError
from bellquench.model import ModelParams, QuenchKind, field_quench, make_quench


def correlation_matrix(c: CorrelatorSet) -> np.ndarray:
    """3x3 matrix T with T[k][l] = C^{kl}, rows/columns ordered (x, y, z)."""
    return np.array([
        [c.cxx, c.cxy, 0.0],
        [c.cyx, c.cyy, 0.0],
        [0.0, 0.0, c.czz],
    ])


def correlators_from_state(rho):
    """The CorrelatorSet of a 4 x 4 pair state, through the oracle's path."""
    return oracle.correlator_set_from_pair(oracle.pair_observables(rho), 0.0)


def cset(mz=0.0, cxx=0.0, cyy=0.0, czz=0.0, cxy=0.0, cyx=None, t=0.0):
    return CorrelatorSet(mz=mz, cxx=cxx, cyy=cyy, czz=czz, cxy=cxy,
                         cyx=cxy if cyx is None else cyx, t=t)


def random_xstate_correlators(rng):
    """Correlators of a random physical X-state (built from a random
    density matrix, so positivity is automatic)."""
    diag = rng.dirichlet(np.ones(4))
    rho = np.diag(diag).astype(complex)
    for (i, j) in ((0, 3), (1, 2)):
        bound = np.sqrt(diag[i] * diag[j])
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        rho[i, j] = bound * z * rng.uniform(0, 1)
        rho[j, i] = np.conj(rho[i, j])
    return correlators_from_state(rho), rho


def eigenvalues(c):
    """(lambda_plus, lambda_minus, C_zz**2, B) of one CorrelatorSet."""
    lam_plus, lam_minus, czz_sq, radicand = _chsh_terms(
        c.cxx, c.cyy, c.czz, c.cxy, c.cyx, np.empty((4, 1)))
    return (float(lam_plus[0]), float(lam_minus[0]), float(czz_sq[0]),
            float(chsh_arrays(c.cxx, c.cyy, c.czz, c.cxy, c.cyx)))


class TestBellEigenvalues:
    def test_all_zero(self):
        lam_plus, _, czz_sq, bell = eigenvalues(cset())
        assert bell == 0.0 and lam_plus == 0.0 and czz_sq == 0.0

    def test_tsirelson_configuration(self):
        lam_plus, lam_minus, _, bell = eigenvalues(cset(cxx=1.0, cyy=1.0, czz=1.0))
        assert bell == pytest.approx(2.0 * np.sqrt(2.0))
        assert lam_plus == pytest.approx(1.0)
        assert lam_minus == pytest.approx(1.0)

    def test_classical_bound_from_czz(self):
        _, lam_minus, czz_sq, bell = eigenvalues(cset(czz=1.0))
        assert bell == pytest.approx(2.0)
        # the second eigenvalue in B is C_zz**2, not lambda_minus
        assert lam_minus < czz_sq

    def test_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c, _ = random_xstate_correlators(rng)
            lam_plus, lam_minus, _, _ = eigenvalues(c)
            assert lam_plus >= lam_minus >= 0.0

    def test_horodecki_equivalence_bulk(self):
        # closed form vs generic symmetric eigensolver on 10^4 X-states
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            c, _ = random_xstate_correlators(rng)
            t_mat = correlation_matrix(c)
            eigs = np.sort(np.linalg.eigvalsh(t_mat.T @ t_mat))
            expected = 2.0 * np.sqrt(eigs[-1] + eigs[-2])
            assert abs(bell_value(c) - expected) < 1e-10

    def test_eq5_identity(self):
        # 2*lambda_pm = s +- sqrt((Caa+ + Cab-)(Caa- + Cab+)) with the
        # printed typo corrected to (Cxy +- Cyx)^2
        rng = np.random.default_rng(7)
        for _ in range(2000):
            c, _ = random_xstate_correlators(rng)
            lam_plus, lam_minus, _, _ = eigenvalues(c)
            caa_p = (c.cxx + c.cyy) ** 2
            caa_m = (c.cxx - c.cyy) ** 2
            cab_p = (c.cxy + c.cyx) ** 2
            cab_m = (c.cxy - c.cyx) ** 2
            s = c.cxx ** 2 + c.cyy ** 2 + c.cxy ** 2 + c.cyx ** 2
            root = np.sqrt((caa_p + cab_m) * (caa_m + cab_p))
            assert 2 * lam_plus == pytest.approx(s + root, abs=1e-10)
            assert 2 * lam_minus == pytest.approx(s - root, abs=1e-10)


class TestReconstructRho12:
    def test_maximally_mixed(self):
        rho = reconstruct_rho12(cset())
        assert np.allclose(rho, np.eye(4) / 4.0)

    def test_polarized_product(self):
        rho = reconstruct_rho12(cset(mz=1.0, czz=1.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c, rho_ref = random_xstate_correlators(rng)
            back = correlators_from_state(reconstruct_rho12(c))
            for k in ("mz", "cxx", "cyy", "czz", "cxy", "cyx"):
                assert abs(getattr(back, k) - getattr(c, k)) < 1e-12

    def test_matches_oracle_partial_trace(self):
        q = field_quench(ModelParams(N=10, gamma=1.0, alpha=10.0, h=0.5),
                         0.5, 2.5)
        reference, rho12 = oracle.oracle_quench(q, 2.0)
        # the oracle state has mz1 = mz2 by translation invariance, so
        # the reconstruction from correlators is exact
        assert np.allclose(reconstruct_rho12(reference), rho12, atol=1e-8)

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentCorrelatorsError):
            reconstruct_rho12(cset(cxx=1.0, cyy=-1.0, czz=1.0, mz=0.9))


class TestLogNegativity:
    def test_product_state(self):
        assert log_negativity(reconstruct_rho12(cset(mz=1.0, czz=1.0))) == \
            pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        rho = reconstruct_rho12(cset(cxx=1.0, cyy=-1.0, czz=1.0))
        assert log_negativity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_against_generic_eigensolver(self):
        rho = reconstruct_rho12(cset(cxx=0.4, cyy=0.4, czz=0.2))
        eigs = np.linalg.eigvalsh(partial_transpose(rho))
        assert log_negativity(rho) == pytest.approx(
            np.log2(np.sum(np.abs(eigs))))

    def test_invariant_under_local_z_rotation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c, rho = random_xstate_correlators(rng)
            phi = rng.uniform(0, 2 * np.pi)
            u = np.kron(np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)]),
                        np.eye(2))
            rotated = u @ rho @ u.conj().T
            assert log_negativity(rotated) == pytest.approx(
                log_negativity(rho), abs=1e-12)

    def test_ppt_states_give_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            c, rho = random_xstate_correlators(rng)
            value = log_negativity(rho)
            min_pt = np.linalg.eigvalsh(partial_transpose(rho)).min()
            if min_pt >= -1e-14:
                assert value == pytest.approx(0.0, abs=1e-10)
            else:
                assert value > 0.0


def competition(c):
    """(lambda_plus - C_zz**2, lambda_minus - C_zz**2)."""
    lam_plus, lam_minus, czz_sq, _ = eigenvalues(c)
    return lam_plus - czz_sq, lam_minus - czz_sq


class TestEigenvalueCompetition:
    def test_pure_czz(self):
        a, b = competition(cset(czz=0.5))
        assert a == b == pytest.approx(-0.25)

    def test_zero_czz(self):
        a, b = competition(cset(cxx=0.3, cyy=0.1))
        assert a >= 0.0 and b >= 0.0

    def test_paramagnetic_same_phase_czz_dominates(self):
        q = field_quench(ModelParams(N=512, gamma=1.0, alpha=10.0, h=2.0),
                         2.0, 2.5)
        a, b = competition(steady_correlators(q))
        assert a < 0.0 and b < 0.0


def test_monogamy_on_model_states():
    # no simulated state of this model exceeds the local bound 2
    rng = np.random.default_rng(21)
    for _ in range(25):
        gamma = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.6, 8.0))
        h_i, h_f = (float(x) for x in rng.uniform(-3.0, 3.0, 2))
        q = field_quench(ModelParams(N=128, gamma=gamma, alpha=alpha, h=h_i),
                         h_i, h_f)
        series = correlator_time_series(q, TimeGrid(20.0, 0.5))
        for c in series:
            assert bell_value(c) <= 2.0 + 1e-9
        assert bell_value(steady_correlators(q)) <= 2.0 + 1e-9


def test_time_average_map_weaker_contrast():
    # coarse-grid check: the averaged-Bell map orders phases like the
    # steady map but with reduced same/cross contrast
    base = ModelParams(N=128, gamma=1.0, alpha=10.0, h=0.0)
    hs = np.arange(-2.5, 2.6, 0.5)
    grid_t = TimeGrid(60.0, 0.5)
    steady_map = np.zeros((hs.size, hs.size))
    avg_map = np.zeros((hs.size, hs.size))
    h_c = -1.0 + 2.0 ** (1.0 - base.alpha)
    same = np.zeros_like(steady_map, dtype=bool)
    for i, hi in enumerate(hs):
        for j, hf in enumerate(hs):
            q = field_quench(base, float(hi), float(hf))
            steady_map[i, j] = bell_value(steady_correlators(q))
            times, _, cxx, cyy, czz, cxy = correlator_arrays(q, grid_t)
            bell = chsh_arrays(cxx, cyy, czz, cxy, cxy)
            avg_map[i, j] = np.trapezoid(bell, times) / (times[-1] - times[0])
            fi = h_c < hi < 1.0
            fj = h_c < hf < 1.0
            same[i, j] = fi == fj
    contrast_steady = steady_map[same].mean() - steady_map[~same].mean()
    contrast_avg = avg_map[same].mean() - avg_map[~same].mean()
    assert contrast_steady > 0 and contrast_avg > 0
    assert contrast_avg < contrast_steady
    corr = np.corrcoef(steady_map.ravel(), avg_map.ravel())[0, 1]
    assert corr > 0.9


# ---------------------------------------------------------------------------
# Array kernels against the generic 4 x 4 path

def generic_bell(c):
    t_mat = correlation_matrix(c)
    eigs = np.sort(np.linalg.eigvalsh(t_mat.T @ t_mat))
    return 2.0 * np.sqrt(eigs[-1] + eigs[-2])


def kernel_values(series):
    """chsh_arrays and xstate_log_negativity over a list of CorrelatorSets."""
    mz, cxx, cyy, czz, cxy = (np.array([getattr(c, k) for c in series])
                              for k in ("mz", "cxx", "cyy", "czz", "cxy"))
    return (chsh_arrays(cxx, cyy, czz, cxy, cxy),
            xstate_log_negativity(mz, cxx, cyy, czz, cxy))


def assert_kernels_match_generic(series):
    bell, logneg = kernel_values(series)
    for k, c in enumerate(series):
        assert abs(bell[k] - generic_bell(c)) < 1e-12
        assert abs(logneg[k] - log_negativity(reconstruct_rho12(c))) < 1e-12


@st.composite
def xstates(draw):
    """Correlators of a random X-state with a real rho_12 (so C_yx = C_xy)
    and a complex rho_03 (so C_xy != 0)."""
    weights = [draw(st.floats(0.01, 1.0)) for _ in range(4)]
    diag = np.array(weights) / sum(weights)
    r03 = np.sqrt(diag[0] * diag[3]) * draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.05, 2 * np.pi - 0.05))
    r12 = np.sqrt(diag[1] * diag[2]) * draw(st.floats(-1.0, 1.0))
    rho = np.diag(diag).astype(complex)
    rho[0, 3] = r03 * np.exp(1j * phase)
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = rho[2, 1] = r12
    # equal local magnetizations, as translation invariance gives
    rho[1, 1] = rho[2, 2] = 0.5 * (diag[1] + diag[2])
    return correlators_from_state(rho)


@settings(max_examples=300, deadline=None)
@given(st.lists(xstates(), min_size=1, max_size=8))
def test_array_kernels_match_generic_on_random_xstates(series):
    assert_kernels_match_generic(series)


# at alpha = 2 the field line h_c = -1 + 2**(1 - alpha) is h = -0.5, and
# the coupling line alpha_c = 1 - log2(1 + h) at h = -0.5 is alpha = 2
CRITICAL_ALPHA = 2.0
H_C = -1.0 + 2.0 ** (1.0 - CRITICAL_ALPHA)


@settings(max_examples=40, deadline=None)
@given(gamma=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       h_i=st.sampled_from([1.0, -1.0, H_C]) | st.floats(-2.5, 2.5),
       h_f=st.sampled_from([1.0, H_C]) | st.floats(-2.5, 2.5),
       t=st.floats(0.0, 30.0), n=st.sampled_from([8, 16, 64]))
def test_array_kernels_match_generic_on_model_states(gamma, h_i, h_f, t, n):
    # gamma = 0 and fields exactly on a critical line are drawn alongside
    # generic values; finite t gives C_xy != 0
    base = ModelParams(N=n, gamma=gamma, alpha=CRITICAL_ALPHA, h=h_i)
    quench = field_quench(base, h_i, h_f)
    coupling = make_quench(QuenchKind.COUPLING, base.replace(h=H_C),
                           CRITICAL_ALPHA, 1.0 + t / 10)
    series = [correlators_at(quench, t), steady_correlators(quench),
              correlators_at(coupling, t)]
    assert_kernels_match_generic(series)


def test_array_kernels_scalar_path_bits():
    # bell_value is a call into chsh_arrays: same bits for floats and arrays
    rng = np.random.default_rng(3)
    series = [random_xstate_correlators(rng)[0] for _ in range(200)]
    cxx, cyy, czz, cxy, cyx = (np.array([getattr(c, k) for c in series])
                               for k in ("cxx", "cyy", "czz", "cxy", "cyx"))
    bell = chsh_arrays(cxx, cyy, czz, cxy, cyx)
    assert np.array_equal(bell, [bell_value(c) for c in series])


def test_xstate_log_negativity_rejects_non_psd():
    good = cset(cxx=0.4, cyy=0.4, czz=0.2)
    bad = cset(cxx=1.0, cyy=-1.0, czz=1.0, mz=0.9)
    with pytest.raises(InconsistentCorrelatorsError):
        kernel_values([good, bad, good])
