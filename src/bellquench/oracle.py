"""Dense spin-basis reference solver for small chains.

Builds the full 2^N Hamiltonian of the long-range chain, including the
string operators between coupled sites and the periodic wrap bonds,
and evolves quenches exactly.  Everything here is the ground truth the
momentum-space machinery is validated against: ground energies,
spectra (assembled from both fermion-parity sectors), time-dependent
correlators and reduced two-site states.

Conventions: basis index s has bit j = 1 when spin j points down
(= one fermion on site j), so the spin-parity operator prod_j sigma^z_j
equals (-1)**popcount(s) and the even sector is even popcount.  The
dynamical sector of the momentum modules is exactly this even sector;
its ground state is obtained here by diagonalizing the even block.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CorrelatorSet
from .errors import ResourceCapError
from .model import ModelParams, QuenchSpec, coupling_profile
from .momentum import MEMORY_CAP, dispersion, mode_angles

# Peak bytes per entry of a dense 2^N x 2^N build: the float matrix and
# the copy the eigensolver of spectrum_match works on.
DENSE_ENTRY_BYTES = 16
# Largest even N (ModelParams takes no odd N) whose build fits
# momentum.MEMORY_CAP: 12 at 2^30 B, where N = 14 would need 4 GiB.
# The one dense cap: OracleQuench is refused by its build.
BUILD_CAP = next(N for N in range(0, 64, 2)
                 if DENSE_ENTRY_BYTES * 4 ** (N + 2) > MEMORY_CAP)
# Even levels this close to the lowest form one degenerate ground level:
# eigh splits an exactly degenerate level by up to 3e-14 at N = 12.
LEVEL_DEGENERACY_TOL = 1e-12

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x.astype(np.uint64)).astype(np.int64)


def build_spin_hamiltonian(params: ModelParams) -> np.ndarray:
    """Full 2^N spin Hamiltonian with periodic boundaries.

    H = sum_j sum_{r=1}^{N/2} -J_r [ (1+gamma)/4 sx_j Z sx_{j+r}
        + (1-gamma)/4 sy_j Z sy_{j+r} ] - (h/2) sum_j sz_j,
    with Z the sigma^z string strictly between the coupled sites and
    J_r the Kac-normalized couplings.  Pairs at distance N/2 occur
    twice (once from each end, with complementary strings), exactly as
    the double sum prescribes.
    """
    N = params.N
    if N > BUILD_CAP:
        raise ResourceCapError(
            f"dense build capped at N={BUILD_CAP} by the {MEMORY_CAP} B "
            f"memory cap, got {N}")
    dim = 1 << N
    s = np.arange(dim, dtype=np.int64)
    h_mat = np.zeros((dim, dim))

    np.fill_diagonal(h_mat, -(params.h / 2.0) * (N - 2.0 * _popcount(s)))

    j_r = coupling_profile(params)
    cx = (1.0 + params.gamma) / 4.0
    cy = (1.0 - params.gamma) / 4.0
    for r in range(1, N // 2 + 1):
        for j in range(N):
            j2 = (j + r) % N
            mask = (1 << j) | (1 << j2)
            string_mask = 0
            for l in range(j + 1, j + r):
                string_mask |= 1 << (l % N)
            sp = s ^ mask
            zsign = 1.0 - 2.0 * (_popcount(s & string_mask) % 2)
            bj = (s >> j) & 1
            bj2 = (s >> j2) & 1
            # <s'|YZY|s> = -(-1)**(b_j + b_j2) * <s'|XZX|s>
            ysign = -(1.0 - 2.0 * ((bj + bj2) % 2))
            h_mat[sp, s] += -j_r[r - 1] * zsign * (cx + cy * ysign)
    return h_mat


def even_parity_indices(N: int) -> np.ndarray:
    s = np.arange(1 << N, dtype=np.int64)
    return np.where(_popcount(s) % 2 == 0)[0]


def ground_state_even(params: ModelParams) -> tuple[float, np.ndarray]:
    """Lowest eigenstate in the even-parity sector, embedded in 2^N.

    The quench protocol lives entirely in this sector; at points where
    the global ground state is odd the two sectors are degenerate to
    exponentially small corrections and the even state is the one the
    momentum-space construction describes.  Inside a degenerate even
    ground level (LEVEL_DEGENERACY_TOL) it is the limit of H(h - eps),
    as in momentum.ground_bloch: H(h - eps) = H(h) + (eps/2) sum_j sz_j,
    so the state of the level with the lowest sum of sz.
    """
    dense = build_spin_hamiltonian(params)
    idx = even_parity_indices(params.N)
    block = dense[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(block)
    psi = np.zeros(dense.shape[0], dtype=complex)
    level = vecs[:, vals - vals[0] <= LEVEL_DEGENERACY_TOL]
    if level.shape[1] > 1:
        sz = params.N - 2.0 * _popcount(idx)
        vecs[:, 0] = level @ np.linalg.eigh(level.T @ (sz[:, None] * level))[1][:, 0]
    psi[idx] = vecs[:, 0]
    return float(vals[0]), psi


class OracleQuench:
    """Exact evolution of one quench, reusable across sample times."""

    def __init__(self, quench: QuenchSpec):
        N = quench.initial.N
        self.N = N
        self.quench = quench
        _, psi0 = ground_state_even(quench.initial)
        idx = even_parity_indices(N)
        h_final = build_spin_hamiltonian(quench.final)
        block = h_final[np.ix_(idx, idx)]
        self._idx = idx
        self._energies, self._vecs = np.linalg.eigh(block)
        self._coeffs = self._vecs.conj().T @ psi0[idx]

    def state_at(self, t: float) -> np.ndarray:
        amp = self._coeffs * np.exp(-1j * self._energies * t)
        psi = np.zeros(1 << self.N, dtype=complex)
        psi[self._idx] = self._vecs @ amp
        return psi

    def rho12_at(self, t: float) -> np.ndarray:
        psi = self.state_at(t)
        tensor = psi.reshape((2,) * self.N)
        # bit j lives on axis N-1-j; bring sites 0 and 1 to the front
        front = np.moveaxis(tensor, [self.N - 1, self.N - 2], [0, 1])
        mat = front.reshape(4, -1)
        return mat @ mat.conj().T


def pair_observables(rho12: np.ndarray) -> dict:
    """All nine two-point correlators and both magnetizations."""
    paulis = {"x": _SX, "y": _SY, "z": _SZ}
    out = {}
    for k, a in paulis.items():
        for l, b in paulis.items():
            out[f"c{k}{l}"] = float(np.real(np.trace(rho12 @ np.kron(a, b))))
    out["mz1"] = float(np.real(np.trace(rho12 @ np.kron(_SZ, _ID))))
    out["mz2"] = float(np.real(np.trace(rho12 @ np.kron(_ID, _SZ))))
    return out


def correlator_set_from_pair(obs: dict, t: float | str) -> CorrelatorSet:
    return CorrelatorSet(mz=0.5 * (obs["mz1"] + obs["mz2"]),
                         cxx=obs["cxx"], cyy=obs["cyy"], czz=obs["czz"],
                         cxy=obs["cxy"], cyx=obs["cyx"], t=t)


def oracle_quench(quench: QuenchSpec, t: float) -> tuple[CorrelatorSet, np.ndarray]:
    """Exact correlators and reduced pair state at time t."""
    runner = OracleQuench(quench)
    rho12 = runner.rho12_at(t)
    obs = pair_observables(rho12)
    return correlator_set_from_pair(obs, t), rho12


# ---------------------------------------------------------------------------
# Spectrum assembly from the two fermion-parity sectors

def _accumulate_blocks(levels, parities):
    energies = np.zeros(1)
    parity = np.zeros(1, dtype=np.int64)
    for lev, par in zip(levels, parities):
        energies = (energies[:, None] + np.asarray(lev)[None, :]).ravel()
        parity = ((parity[:, None] + np.asarray(par)[None, :]) % 2).ravel()
    return energies, parity


def fermionic_spectrum(params: ModelParams) -> np.ndarray:
    """All 2^N many-body energies from the free-fermion blocks.

    Even-parity states use the antiperiodic mode grid, odd-parity
    states the periodic grid with its two unpaired modes at phi = 0
    and pi; each sector is filtered to the matching fermion parity.
    """
    N = params.N
    if N > BUILD_CAP:
        raise ResourceCapError(f"spectrum assembly capped at N={BUILD_CAP}")
    h = params.h

    def block_levels(phis):
        a, b = dispersion(params, phis)
        lam = np.hypot(a + h, b)
        return [(np.array([ai - li, ai + li, ai, ai]), np.array([0, 0, 1, 1]))
                for ai, li in zip(a, lam)]

    even_blocks = block_levels(mode_angles(N, "antiperiodic"))
    energies, parity = _accumulate_blocks(*zip(*even_blocks))
    even_sector = energies[parity == 0]

    odd_blocks = block_levels(mode_angles(N, "periodic"))
    a_unpaired, _ = dispersion(params, np.array([0.0, np.pi]))
    for a_u in a_unpaired:
        odd_blocks.append((np.array([-h / 2.0, a_u + h / 2.0]),
                           np.array([0, 1])))
    energies, parity = _accumulate_blocks(*zip(*odd_blocks))
    odd_sector = energies[parity == 1]

    return np.sort(np.concatenate([even_sector, odd_sector]))


def spectrum_match(params: ModelParams) -> float:
    """Max absolute deviation between dense and free-fermion spectra."""
    dense = np.sort(np.linalg.eigvalsh(build_spin_hamiltonian(params)))
    fermi = fermionic_spectrum(params)
    return float(np.max(np.abs(dense - fermi)))
