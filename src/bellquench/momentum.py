"""Momentum-space blocks of the chain: mode grid, dispersion, ground state.

After the fermion mapping the Hamiltonian splits into independent
blocks over (p, -p) mode pairs.  The even sector {|0>, c+_p c+_{-p} |0>}
of each block is the two-level problem a*I - b*sigma_y - u*sigma_z
with u = a + h, so a block state is a Bloch vector; the singly occupied
states never enter a quench.  Three conventions are fixed here once:

* Momentum grid: even-fermion-parity states of the periodic spin chain
  carry antiperiodic fermions, so the physical blocks sit at
  phi = pi*(2m - 1)/N, m = 1 .. N/2.  The integer grid phi = 2*pi*m/N
  belongs to the odd-parity sector and is used only when assembling
  full spectra.  Pinned against the dense solver by
  test_oracle.py::TestSpectrumEquivalence and
  test_momentum.py::TestGroundEnergy.

* Coupling sign: with ferromagnetic couplings (J_r > 0) the quadratic
  fermion form carries hopping and pairing amplitudes -J_r, so the
  block amplitudes are a = -sum_r J_r cos(phi r) and
  b = -gamma * sum_r J_r sin(phi r).  This is what places the critical
  fields at h_c = -1 + 2**(1-alpha) and h_c2 = +1; the opposite sign
  would put them at (1 - 2**(1-alpha), -1) and fail the dense check.
  Pinned by the dispersion tests of test_momentum.py and by
  test_dynamics.py::TestCorrelatorsAt::test_matches_oracle_n10.

* Ground state: ground_bloch, the one initial-state kernel of every
  engine, points along (0, b, u)/Lambda, with |pair> = (0, -1) at a
  degenerate doublet.  Pinned by test_momentum.py::TestGroundBloch and
  by the dense-oracle comparisons of test_dynamics.py and test_sweep.py.

* Degeneracy cutoffs: a block counts as degenerate when its gap
  Lambda = hypot(u, b) falls below a cutoff, and each engine treats
  that case in closed form instead of dividing by Lambda.
  DEGENERACY_TOL (1e-14, initial blocks, ground_bloch): the state is
  |pair>.  STEADY_DEGENERACY_TOL (1e-12, final blocks of the one
  steady kernel, dynamics.SteadyKernel, which steady_correlators and
  the sweeps share): the block does not dephase, so the whole initial
  vector survives; a gap that small precesses with a period beyond
  1e12.  TIMED_DEGENERACY_TOL (1e-30, final blocks of
  dynamics._timed_mode_sums): the block has no precession axis and
  the vector stays put; above it the exact rotation is taken, however
  slow.  Pinned on one block on each side
  of both cutoffs by test_dynamics.py::TestCutoffs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceCapError
from .model import ModelParams, coupling_profile

# Gaps below which a block counts as degenerate (module docstring):
# initial blocks, final blocks in the steady limit, final blocks in time.
DEGENERACY_TOL = 1e-14
STEADY_DEGENERACY_TOL = 1e-12
TIMED_DEGENERACY_TOL = 1e-30

# Largest estimated peak a run may hold; check_footprint refuses more.
MEMORY_CAP = 2 ** 30
# Peak bytes per (phi, r) entry of the dispersion tables, per (grid value,
# mode) entry of a kernel, per cell of the maps a sweep holds and per sample
# of an evolve time grid: traced at N = 512 on 601 x 601 as 24, 81, 28 and
# 124 B with tracemalloc, and rounded up.  A kernel entry holds its gap
# Lambda and six final-side factors (56 B), a coupling grid's also its
# dispersion rows (16 B); 81 B is a coupling sweep's peak less 32 B per
# cell charged (its maps and sweep.kernel_footprint's chunk cells).
TABLE_BYTES = 32
FACTOR_BYTES = 96
MAP_BYTES = 32
SAMPLE_BYTES = 256


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


def ground_bloch(u, b, lam=None, out=None):
    """(Lambda, n_y, n_z) of the ground state of each block's even doublet.

    u = a + h and b are arrays that broadcast together.  The even 2x2
    block is a*I - b*sigma_y - u*sigma_z in the {|0>, |pair>} basis, so
    its levels are a -+ Lambda with Lambda = hypot(u, b) and the ground
    state points along (0, b, u)/Lambda.  Below DEGENERACY_TOL the
    doublet counts as degenerate and the state is |pair>, (0, -1): the
    one continuous with the h - eps limit.

    `lam`, the gaps when already taken, and `out`, two arrays of lam's
    shape for n_y and n_z (they may be b and u), spare the fresh arrays:
    dynamics.SteadyKernel forms each row chunk so.
    """
    lam = np.hypot(u, b) if lam is None else lam
    n_y, n_z = (np.empty(np.shape(lam)), np.empty(np.shape(lam))) if out is None else out
    degen = lam < DEGENERACY_TOL
    np.divide(b, lam, out=n_y, where=~degen)
    np.divide(u, lam, out=n_z, where=~degen)
    n_y[degen], n_z[degen] = 0.0, -1.0
    return lam, n_y, n_z


def check_footprint(N: int, rows: int = 0, cells: int = 0,
                    samples: int = 0) -> int:
    """The one estimate of a run's peak bytes over the N/2 modes of a chain.

    Counts the (N/2)^2 dispersion tables, `rows` x N/2 factor arrays
    (grid values, or a chunk of times), `cells` map cells and `samples`
    time samples.  Raises ResourceCapError above MEMORY_CAP; it
    allocates nothing, so callers run it first.
    """
    modes = N // 2
    need = (TABLE_BYTES * modes * modes + FACTOR_BYTES * rows * modes
            + MAP_BYTES * cells + SAMPLE_BYTES * samples)
    if need > MEMORY_CAP:
        def shown(count):
            # a grid of finite but huge step count passes its own checks
            # and gives counts too large to convert to a float
            return f"{count:.3g}" if count < 1e300 else f"1e{math.log10(count):.0f}"
        raise ResourceCapError(
            f"estimated peak of {shown(need)} B (N = {N}, {shown(rows)} rows, "
            f"{shown(cells)} cells, {shown(samples)} samples) exceeds the cap "
            f"of {MEMORY_CAP} B")
    return need


def ground_energy(params: ModelParams) -> float:
    """Ground energy of the even-parity sector: sum over blocks of a - Lambda."""
    phis = mode_angles(params.N)
    a, b = dispersion(params, phis)
    lam, _, _ = ground_bloch(a + params.h, b)
    return float(np.sum(a - lam))
