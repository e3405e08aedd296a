"""Momentum-space 4x4 blocks of the chain and its observables.

After the fermion mapping the Hamiltonian splits into independent
blocks over (p, -p) mode pairs with basis

    { |0>,  c+_p c+_{-p} |0>,  c+_p |0>,  c+_{-p} |0> }.

Two conventions are fixed here once and tested against the dense spin
solver (see tests/test_oracle.py):

* Momentum grid: even-fermion-parity states of the periodic spin chain
  carry antiperiodic fermions, so the physical blocks sit at
  phi = pi*(2m - 1)/N, m = 1 .. N/2.  The integer grid phi = 2*pi*m/N
  belongs to the odd-parity sector and is used only when assembling
  full spectra.

* Coupling sign: with ferromagnetic couplings (J > 0) the quadratic
  fermion form carries hopping and pairing amplitudes -J_r, so the
  block amplitudes are a = -sum_r J_r cos(phi r) and
  b = -gamma * sum_r J_r sin(phi r).  This is what places the critical
  fields at h_c = -1 + 2**(1-alpha) and h_c2 = +1; the opposite sign
  would put them at (1 - 2**(1-alpha), -1) and fail the dense check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundStateError
from .model import ModelParams, coupling_profile

# Gap below which the even-sector doublet counts as exactly degenerate.
DEGENERACY_TOL = 1e-14


@dataclass(frozen=True)
class MomentumMode:
    """One (p, -p) block, identified by its index and angle phi."""

    index: int
    phi: float

    def __post_init__(self):
        if not 0.0 < self.phi <= np.pi:
            raise ValueError(f"phi must lie in (0, pi], got {self.phi}")


def mode_angles(N: int, sector: str = "antiperiodic") -> np.ndarray:
    """Angles of the paired momentum blocks for one parity sector.

    "antiperiodic" (even parity, the dynamical sector): N/2 angles
    pi*(2m-1)/N in (0, pi).  "periodic" (odd parity): the N/2 - 1
    paired angles 2*pi*m/N in (0, pi); the unpaired modes at 0 and pi
    are handled separately by the spectrum assembly.
    """
    if N % 2 != 0 or N < 4:
        raise ValueError(f"N must be even and >= 4, got {N}")
    if sector == "antiperiodic":
        m = np.arange(1, N // 2 + 1, dtype=float)
        return np.pi * (2.0 * m - 1.0) / N
    if sector == "periodic":
        m = np.arange(1, N // 2, dtype=float)
        return 2.0 * np.pi * m / N
    raise ValueError(f"unknown sector {sector!r}")


def modes(params: ModelParams, sector: str = "antiperiodic") -> list[MomentumMode]:
    return [MomentumMode(i + 1, phi)
            for i, phi in enumerate(mode_angles(params.N, sector))]


def dispersion(params: ModelParams, phis: np.ndarray,
               alphas=None) -> tuple[np.ndarray, np.ndarray]:
    """Block amplitudes (a, b) at each angle in `phis`.

    a = -sum_r J_r cos(phi r), b = -gamma * sum_r J_r sin(phi r), with
    J_r the Kac-normalized couplings; see the module docstring for the
    sign convention.

    With `alphas`, a sequence of fall-off rates, a and b get one row per
    rate.  The cos/sin tables over (phi, r) depend only on N, so they
    are built once and each row is one matrix-vector product: row k is
    bit for bit dispersion(params.replace(alpha=alphas[k]), phis).
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    rates = [params.alpha] if alphas is None else list(alphas)
    r = np.arange(1, params.N // 2 + 1, dtype=float)
    phase = np.outer(phis, r)
    neg_cos, sin_t = -np.cos(phase), np.sin(phase)
    a = np.empty((len(rates), phis.size))
    b = np.empty((len(rates), phis.size))
    for k, alpha in enumerate(rates):
        j_r = coupling_profile(params.replace(alpha=float(alpha)))
        a[k] = neg_cos @ j_r
        b[k] = -params.gamma * (sin_t @ j_r)
    if alphas is None:
        return a[0], b[0]
    return a, b


@dataclass(frozen=True)
class BlockHamiltonian:
    """The 4x4 Hamiltonian of one momentum block.

    matrix = [[-h, ib, 0, 0], [-ib, 2a+h, 0, 0], [0, 0, a, 0],
    [0, 0, 0, a]]; the scalar -h offset is kept so that block energies
    sum to the full chain energy.
    """

    a: float
    b: float
    h: float

    @property
    def matrix(self) -> np.ndarray:
        a, b, h = self.a, self.b, self.h
        return np.array([
            [-h, 1j * b, 0, 0],
            [-1j * b, 2 * a + h, 0, 0],
            [0, 0, a, 0],
            [0, 0, 0, a],
        ], dtype=complex)

    @property
    def gap(self) -> float:
        """Splitting 2*Lambda of the even-sector doublet."""
        return 2.0 * np.hypot(self.a + self.h, self.b)


def build_block_hamiltonian(params: ModelParams, mode: MomentumMode) -> BlockHamiltonian:
    a, b = dispersion(params, np.array([mode.phi]))
    return BlockHamiltonian(a=float(a[0]), b=float(b[0]), h=params.h)


@dataclass(frozen=True)
class BlockOperators:
    """Momentum blocks of the nearest-neighbor two-site Pauli operators.

    `sz` carries the conventional sign in which the pair state reads
    +1; the magnetization operator with the physical orientation (the
    fermion vacuum is the fully polarized m_z = +1 state) is
    `magnetization_block`.
    """

    txx: np.ndarray
    tyy: np.ndarray
    txy: np.ndarray
    tyx: np.ndarray
    sz: np.ndarray


def build_block_operators(mode: MomentumMode) -> BlockOperators:
    s, c = np.sin(mode.phi), np.cos(mode.phi)
    txx = np.array([
        [0, 1j * s, 0, 0],
        [-1j * s, 2 * c, 0, 0],
        [0, 0, c, 0],
        [0, 0, 0, c],
    ], dtype=complex)
    tyy = np.array([
        [0, -1j * s, 0, 0],
        [1j * s, 2 * c, 0, 0],
        [0, 0, c, 0],
        [0, 0, 0, c],
    ], dtype=complex)
    txy = np.array([
        [0, -s, 0, 0],
        [-s, 0, 0, 0],
        [0, 0, s, 0],
        [0, 0, 0, -s],
    ], dtype=complex)
    tyx = np.array([
        [0, -s, 0, 0],
        [-s, 0, 0, 0],
        [0, 0, -s, 0],
        [0, 0, 0, s],
    ], dtype=complex)
    sz = np.diag([-1.0, 1.0, 0.0, 0.0]).astype(complex)
    return BlockOperators(txx=txx, tyy=tyy, txy=txy, tyx=tyx, sz=sz)


def magnetization_block() -> np.ndarray:
    """Block operator whose (2/N)-weighted trace sum gives m_z.

    diag(+1, -1, 0, 0): the sign is fixed by requiring m_z -> +1 for
    the fermion vacuum (h -> +infinity polarized limit), which the
    dense spin solver confirms.
    """
    return np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class BlockState:
    """4x4 density matrix of one momentum block (unit trace, PSD)."""

    rho: np.ndarray

    def validate(self, atol: float = 1e-10) -> None:
        rho = self.rho
        if rho.shape != (4, 4):
            raise ValueError("block state must be 4x4")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("block state must have unit trace")
        if not np.allclose(rho, rho.conj().T, atol=atol):
            raise ValueError("block state must be Hermitian")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("block state must be positive semidefinite")
        if np.max(np.abs(rho[:2, 2:])) > atol or np.max(np.abs(rho[2:, :2])) > atol:
            raise ValueError("even/single off-blocks must vanish")


def ground_bloch(a: float, b: float, h: float, strict: bool = False) -> tuple[float, float]:
    """Bloch vector (n_y, n_z) of the even-sector ground doublet.

    The even 2x2 block is a*I - b*sigma_y - (a+h)*sigma_z in the
    {|0>, |pair>} basis, so the ground state points along
    (0, b, a+h)/Lambda.  At an exact degeneracy (Lambda ~ 0) the state
    continuous with the h - eps limit is |pair>, i.e. (0, -1); strict
    mode raises instead.
    """
    u = a + h
    lam = np.hypot(u, b)
    if lam < DEGENERACY_TOL:
        if strict:
            raise DegenerateGroundStateError(
                f"even-sector gap {2 * lam:.3e} below tolerance")
        return 0.0, -1.0
    return b / lam, u / lam


def ground_block_state(params: ModelParams, mode: MomentumMode,
                       strict: bool = False) -> BlockState:
    """Pure ground state of one block; singles never populated."""
    hp = build_block_hamiltonian(params, mode)
    ny, nz = ground_bloch(hp.a, hp.b, hp.h, strict=strict)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1.0 + nz) / 2.0
    rho[1, 1] = (1.0 - nz) / 2.0
    rho[0, 1] = -1j * ny / 2.0
    rho[1, 0] = 1j * ny / 2.0
    return BlockState(rho=rho)


def ground_energy(params: ModelParams) -> float:
    """Ground energy of the even-parity sector: sum over blocks of a - Lambda."""
    phis = mode_angles(params.N)
    a, b = dispersion(params, phis)
    lam = np.hypot(a + params.h, b)
    return float(np.sum(a - lam))
