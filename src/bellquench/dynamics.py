"""Quench dynamics: block evolution, correlators, steady-state values.

Each momentum block is a two-level problem in its even sector, so the
state is tracked as a Bloch vector n(t) precessing around the final
Hamiltonian's field d_f at frequency 2*Lambda_f.  Evolution is the
exact rotation (no time stepping), the t -> infinity limit is the
projection of n onto d_f (diagonal ensemble), and all nearest-neighbor
spin correlators are fixed-order mode sums of closed-form weights:

    C_xx = (2/N) sum_phi [cos(phi) (1 - n_z) - sin(phi) n_y]
    C_yy = (2/N) sum_phi [cos(phi) (1 - n_z) + sin(phi) n_y]
    C_xy = C_yx = +(2/N) sum_phi sin(phi) n_x
    m_z  = (2/N) sum_phi n_z

C_zz has no single-block operator; it follows from Wick's theorem on
the one-body functions G0 = <c+_j c_j>, G = <c+_j c_{j+1}> and
F = <c_j c_{j+1}>:

    C_zz = m_z**2 + 4 (|F|**2 - |G|**2).

Sign conventions, both arbitrated by the dense solver (the transient
n_x sector flips under complex conjugation, so only a full dynamical
cross-check can pin them): the evolution operator is the physical
exp(-i H_p t), and with the standard sigma_y the xy weight is
+sin(phi) n_x; the opposite sign belongs to the conjugate
fermionization convention (sigma_y -> -sigma_y).  The initial vectors
come from momentum.ground_bloch, the kernel the sweeps share.

Timed values come from one kernel, _timed_mode_sums: for a vector of
times it rotates the Bloch vectors and takes the four mode sums
sum n_z, sum cos(phi) n_z, sum sin(phi) n_y and sum sin(phi) n_x
(sum cos(phi) is the fifth, time-independent one).  It works through
the times TIME_CHUNK samples at a time, so its temporaries take
O(TIME_CHUNK x modes) memory whatever the length of the grid, and it
applies to each (time, mode) element the same operations in the same
order as a one-sample call: a sample's correlators do not depend on
the chunk it falls in.  correlators_at, one_body_correlations,
correlator_time_series and correlator_arrays (the array form evolve
writes) all call it; they refuse a NaN, infinite or negative time
with ValueError.  correlator_arrays checks momentum.check_footprint and
TimeGrid.times() refuses a grid above MAX_TIME_SAMPLES samples, both
with ResourceCapError before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .model import QuenchSpec
from .momentum import (MEMORY_CAP, SAMPLE_BYTES, STEADY_DEGENERACY_TOL,
                       TIMED_DEGENERACY_TOL, check_footprint, dispersion,
                       ground_bloch, mode_angles)

STEADY = "steady"

# Samples per chunk of the timed kernel: each of its temporaries holds
# TIME_CHUNK x N/2 doubles (0.5 MB at N = 512).
TIME_CHUNK = 256

# Largest time grid the timed path accepts.  `bellquench evolve` keeps
# at most SAMPLE_BYTES per sample at its peak (traced at N = 512: 3.4 MB
# for 12001 samples, 19.3 MB for 120001), while the chunks and the CSV
# blocks are of fixed size.
MAX_TIME_SAMPLES = MEMORY_CAP // SAMPLE_BYTES


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid t = 0, dt, ..., t_max."""

    t_max: float
    dt: float

    def __post_init__(self):
        if not (self.t_max > 0 and self.dt > 0):
            raise ValueError("t_max and dt must be positive")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError("t_max and dt must give a finite number of steps")

    @property
    def count(self) -> int:
        return int(round(self.t_max / self.dt)) + 1

    def times(self) -> np.ndarray:
        """The sample times; ResourceCapError above MAX_TIME_SAMPLES."""
        if self.count > MAX_TIME_SAMPLES:
            raise ResourceCapError(
                f"time grid of {self.count} samples exceeds the cap of "
                f"{MAX_TIME_SAMPLES}")
        return self.dt * np.arange(self.count)


@dataclass(frozen=True)
class CorrelatorSet:
    """Magnetization and the five nonzero nearest-neighbor correlators.

    `t` is the sample time or the string "steady" for the dephased
    long-time limit.  All other two-point correlators vanish by the
    X-state structure of the reduced pair state.
    """

    mz: float
    cxx: float
    cyy: float
    czz: float
    cxy: float
    cyx: float
    t: float | str = 0.0


@dataclass(frozen=True)
class OneBodyCorrelations:
    """Wick inputs at separations 0 and 1 (site-independent by PBC)."""

    G0: float
    G: complex
    F: complex


# ---------------------------------------------------------------------------
# Bloch-vector engine (arrays over modes, optionally broadcast over time)

def _quench_blocks(quench: QuenchSpec):
    """Per-mode data: phis, initial Bloch (gy, gz), final field (b_f, u_f)."""
    phis = mode_angles(quench.initial.N)
    a_i, b_i = dispersion(quench.initial, phis)
    a_f, b_f = dispersion(quench.final, phis)
    _, gy, gz = ground_bloch(a_i + quench.initial.h, b_i)
    return phis, gy, gz, b_f, a_f + quench.final.h


def _steady_bloch(gy, gz, b_f, u_f):
    """Diagonal-ensemble Bloch vector: n projected on the final axis.

    Degenerate final blocks (Lambda_f ~ 0) do not dephase at all, so
    the full initial vector survives there.
    """
    lam_f = np.hypot(u_f, b_f)
    degen = lam_f < STEADY_DEGENERACY_TOL
    safe = np.where(degen, 1.0, lam_f)
    dy = -b_f / safe
    dz = -u_f / safe
    kappa = gy * dy + gz * dz
    ny = np.where(degen, gy, kappa * dy)
    nz = np.where(degen, gz, kappa * dz)
    return ny, nz, int(np.count_nonzero(degen))


def _timed_mode_sums(phis, gy, gz, b_f, u_f, times):
    """Mode sums of the rotated Bloch vectors at each time, shape (4, T).

    Rows: sum n_z, sum cos(phi) n_z, sum sin(phi) n_y, sum sin(phi) n_x.
    The rotation is evaluated TIME_CHUNK samples at a time.
    """
    lam_f = np.hypot(u_f, b_f)
    degen = lam_f < TIMED_DEGENERACY_TOL
    safe = np.where(degen, 1.0, lam_f)
    dy = np.where(degen, 0.0, -b_f / safe)
    dz = np.where(degen, 0.0, -u_f / safe)
    kappa = gy * dy + gz * dz
    cross_x = dy * gz - dz * gy
    para_y, para_z = kappa * dy, kappa * dz
    swing_y, swing_z = gy - para_y, gz - para_z
    two_lam = 2.0 * lam_f
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    sums = np.empty((4, times.size))
    for start in range(0, times.size, TIME_CHUNK):
        part = slice(start, start + TIME_CHUNK)
        theta = np.multiply.outer(times[part], two_lam)
        cos_t = np.cos(theta)
        nx = np.sin(theta, out=theta)
        nx *= cross_x
        ny = cos_t * swing_y
        ny += para_y
        nz = np.multiply(cos_t, swing_z, out=cos_t)
        nz += para_z
        sums[0, part] = np.sum(nz, axis=-1)
        sums[1, part] = np.sum(cos_p * nz, axis=-1)
        sums[2, part] = np.sum(np.multiply(sin_p, ny, out=ny), axis=-1)
        sums[3, part] = np.sum(np.multiply(sin_p, nx, out=nx), axis=-1)
    return sums


def _correlators_from_sums(phis, sums, N):
    """(sum n_z, sum cos n_z, sum sin n_y, sum sin n_x) ->
    (mz, cxx, cyy, czz, cxy); elementwise over arrays of sums."""
    s_z, m_cos, m_sin, m_x = sums
    two_n = 2.0 / N
    mz = two_n * s_z
    sum_cos = float(np.sum(np.cos(phis)))
    cxx = two_n * (sum_cos - m_cos - m_sin)
    cyy = two_n * (sum_cos - m_cos + m_sin)
    cxy = two_n * m_x
    g1 = (sum_cos - m_cos) / N
    f_re = m_sin / N
    f_im = -m_x / N
    czz = mz * mz + 4.0 * (f_re * f_re + f_im * f_im - g1 * g1)
    return mz, cxx, cyy, czz, cxy


def _timed_correlators(quench: QuenchSpec, times: np.ndarray):
    """(mz, cxx, cyy, czz, cxy) arrays, one entry per time."""
    phis, gy, gz, b_f, u_f = _quench_blocks(quench)
    sums = _timed_mode_sums(phis, gy, gz, b_f, u_f, times)
    return _correlators_from_sums(phis, sums, quench.initial.N)


# ---------------------------------------------------------------------------
# Public operations

def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")


def correlators_at(quench: QuenchSpec, t: float) -> CorrelatorSet:
    """Correlators of the evolved state at one instant."""
    _check_time(t)
    mz, cxx, cyy, czz, cxy = (float(v[0]) for v in
                              _timed_correlators(quench, np.array([t], dtype=float)))
    return CorrelatorSet(mz=mz, cxx=cxx, cyy=cyy, czz=czz, cxy=cxy, cyx=cxy, t=t)


def one_body_correlations(quench: QuenchSpec, t: float) -> OneBodyCorrelations:
    """Fermionic one-body functions of the evolved state."""
    _check_time(t)
    phis, gy, gz, b_f, u_f = _quench_blocks(quench)
    s_z, m_cos, m_sin, m_x = (float(v[0]) for v in _timed_mode_sums(
        phis, gy, gz, b_f, u_f, np.array([t], dtype=float)))
    N = quench.initial.N
    sum_cos = float(np.sum(np.cos(phis)))
    return OneBodyCorrelations(G0=(phis.size - s_z) / N,
                               G=complex(sum_cos - m_cos) / N,
                               F=complex(m_sin, -m_x) / N)


def steady_correlators(quench: QuenchSpec) -> CorrelatorSet:
    """Dephased (diagonal-ensemble) correlators; the t -> infinity limit.

    Every block keeps only the component of its Bloch vector along the
    final field axis, killing the oscillatory terms in closed form.
    The transverse n_x component dies entirely, so the steady state has
    C_xy = C_yx = 0.
    """
    phis, gy, gz, b_f, u_f = _quench_blocks(quench)
    ny, nz, _ = _steady_bloch(gy, gz, b_f, u_f)
    sums = (np.sum(nz), np.sum(np.cos(phis) * nz), np.sum(np.sin(phis) * ny), 0.0)
    mz, cxx, cyy, czz, cxy = _correlators_from_sums(phis, sums, quench.initial.N)
    return CorrelatorSet(mz=float(mz), cxx=float(cxx), cyy=float(cyy),
                         czz=float(czz), cxy=float(cxy), cyx=float(cxy),
                         t=STEADY)


def correlator_arrays(quench: QuenchSpec, grid: TimeGrid):
    """Sample times and (mz, cxx, cyy, czz, cxy) on a uniform grid, as
    arrays (C_yx = C_xy).  Each sample is exact: no time stepping."""
    check_footprint(quench.initial.N, TIME_CHUNK, samples=grid.count)
    times = grid.times()
    return (times, *_timed_correlators(quench, times))


def correlator_time_series(quench: QuenchSpec, grid: TimeGrid) -> list[CorrelatorSet]:
    """correlator_arrays as one CorrelatorSet per sample."""
    return [CorrelatorSet(mz=mz, cxx=cxx, cyy=cyy, czz=czz, cxy=cxy, cyx=cxy, t=t)
            for t, mz, cxx, cyy, czz, cxy in
            zip(*(v.tolist() for v in correlator_arrays(quench, grid)))]
