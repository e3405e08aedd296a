"""Quench dynamics: the Bloch engine of the timed and the steady paths.

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

They are fixed by the correlators above: G0 = (1 - m_z)/2,
G = (C_xx + C_yy)/4 and F = ((C_yy - C_xx) - 2i C_xy)/4.
_correlators_from_sums turns the mode sums into all five correlators;
the timed kernel and the steady kernel (whose sums have no n_x) call
it.

Sign conventions, both arbitrated by the dense solver (the transient
n_x sector flips under complex conjugation, so only a full dynamical
cross-check can pin them): the evolution operator is the physical
exp(-i H_p t), and with the standard sigma_y the xy weight is
+sin(phi) n_x; the opposite sign belongs to the conjugate
fermionization convention (sigma_y -> -sigma_y).  The initial vectors
come from momentum.ground_bloch.

A quench grid is a set of values q of the quenched parameter
(model.QUENCHED: h for field quenches, alpha for coupling quenches)
at fixed other parameters.  _axes builds its per-mode inputs, one row
of (b, u = a + h) per value, and one quench is the two-value grid
[q_i, q_f] (_quench_axis): row 0 is the initial Hamiltonian, row 1
the final one.  Both paths start there.

Steady values come from one kernel, _steady_maps.  The
diagonal-ensemble Bloch vector of each mode is bilinear in
initial-side and final-side factors,

    n_y = gy_i * (b_f^2/L_f^2)   + gz_i * (u_f b_f/L_f^2)
    n_z = gy_i * (u_f b_f/L_f^2) + gz_i * (u_f^2/L_f^2),

so every mode sum needed by the correlators factorizes into a few
(grid x modes) @ (modes x grid) matrix products, over any (rows, cols)
block of the grid.  The sweeps run it over whole grids and
cross-phase blocks; steady_correlators is its (row 0, col 1) cell of
the quench's two-value grid.  The products run over ROW_CHUNK rows of
the initial axis at a time.  The fixed chunk shape pins the bits of
the maps: one product per block gives other last digits.

Timed values come from one kernel, _timed_mode_sums: for a vector of
times it rotates the Bloch vectors and takes the four mode sums
sum n_z, sum cos(phi) n_z, sum sin(phi) n_y and sum sin(phi) n_x
(sum cos(phi) is the fifth, time-independent one).  It works through
the times TIME_CHUNK samples at a time, so its temporaries take
O(TIME_CHUNK x modes) memory whatever the length of the grid, and it
applies to each (time, mode) element the same operations in the same
order as a one-sample call: a sample's correlators do not depend on
the chunk it falls in.  correlators_at, correlator_time_series and
correlator_arrays (the array form evolve writes) all call it; they
refuse a NaN, infinite or negative time with ValueError.
correlator_arrays checks momentum.check_footprint and TimeGrid.times()
refuses a grid above MAX_TIME_SAMPLES samples, both with
ResourceCapError before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .model import QUENCHED, ModelParams, QuenchKind, QuenchSpec
from .momentum import (MEMORY_CAP, SAMPLE_BYTES, STEADY_DEGENERACY_TOL,
                       TIMED_DEGENERACY_TOL, check_footprint, dispersion,
                       ground_bloch, mode_angles)

STEADY = "steady"

# Rows per matrix product of _steady_maps.  Every BLAS call shape, and
# so every bit of the maps, follows from it: one product per block
# changes the last digits of the sweep maps.
ROW_CHUNK = 64

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


# ---------------------------------------------------------------------------
# Bloch-vector engine (arrays over modes, optionally broadcast over time)

def _axes(kind: QuenchKind, base: ModelParams, qs: np.ndarray):
    """A function fixed -> (phis, b, u): the inputs of both kernels, with
    one row of b and of u = a + h per grid value.

    fixed may differ from base only in the parameter the kind holds
    fixed.  A field grid's dispersion depends on fixed.alpha, so each
    call computes it.  A coupling grid's runs over the alpha axis and
    does not depend on h, so it is computed here, once, and each call
    adds its own h.
    """
    phis = mode_angles(base.N)
    if kind is QuenchKind.FIELD:
        def axes(fixed):
            a, b = dispersion(fixed, phis)
            return phis, np.broadcast_to(b, (qs.size, phis.size)), a + qs[:, None]
        return axes
    a, b = dispersion(base, phis, alphas=qs)
    return lambda fixed: (phis, b, a + fixed.h)


def _quench_axis(quench: QuenchSpec):
    """(phis, b, u) of the two-value grid [q_i, q_f] of one quench: row 0
    is the initial Hamiltonian, row 1 the final one."""
    name = QUENCHED[quench.kind]
    qs = np.array([getattr(quench.initial, name), getattr(quench.final, name)])
    return _axes(quench.kind, quench.initial, qs)(quench.initial)


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


def _steady_maps(N: int, phis, b, u, blocks=((None, None),)):
    """Steady mz, cxx, cyy, czz over each (rows, cols) block of the grid.

    b and u come from _axes.  rows and cols select initial and
    final grid values by index array or slice (None: the whole axis).
    Yields one (mz, cxx, cyy, czz) per block; the per-value mode
    factors are computed once and shared by every block.
    """
    lam, gy, gz = ground_bloch(u, b)
    lam2 = lam * lam
    degen_f = lam < STEADY_DEGENERACY_TOL
    safe2 = np.where(degen_f, 1.0, lam2)
    ayy = np.where(degen_f, 1.0, b * b / safe2)
    ayz = np.where(degen_f, 0.0, u * b / safe2)
    azz = np.where(degen_f, 1.0, u * u / safe2)

    cos_p, sin_p = np.cos(phis), np.sin(phis)
    # j-side factors, pre-weighted by the mode weights, one row per value
    final = (ayz, azz,                       # for sum nz
             cos_p * ayz, cos_p * azz,       # for sum cos*nz
             sin_p * ayy, sin_p * ayz)       # for sum sin*ny

    for rows, cols in blocks:
        gy_b, gz_b = (gy, gz) if rows is None else (gy[rows], gz[rows])
        f_m_y, f_m_z, f_z_y, f_z_z, f_y_y, f_y_z = (
            (f if cols is None else f[cols]).T for f in final)
        n_rows, n_cols = gy_b.shape[0], f_m_y.shape[1]
        s_z = np.empty((n_rows, n_cols))
        m_cos = np.empty((n_rows, n_cols))
        m_sin = np.empty((n_rows, n_cols))
        for start in range(0, n_rows, ROW_CHUNK):
            chunk = slice(start, start + ROW_CHUNK)
            gy_c, gz_c = gy_b[chunk], gz_b[chunk]
            s_z[chunk] = gy_c @ f_m_y + gz_c @ f_m_z
            m_cos[chunk] = gy_c @ f_z_y + gz_c @ f_z_z
            m_sin[chunk] = gy_c @ f_y_y + gz_c @ f_y_z

        # the steady state has no n_x, so its mode sum is 0
        yield _correlators_from_sums(phis, (s_z, m_cos, m_sin, 0.0), N)[:4]


def _timed_correlators(quench: QuenchSpec, times: np.ndarray):
    """(mz, cxx, cyy, czz, cxy) arrays, one entry per time."""
    phis, b, u = _quench_axis(quench)
    _, gy, gz = ground_bloch(u[0], b[0])
    sums = _timed_mode_sums(phis, gy, gz, b[1], u[1], times)
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


def steady_correlators(quench: QuenchSpec) -> CorrelatorSet:
    """Dephased (diagonal-ensemble) correlators; the t -> infinity limit.

    Every block keeps only the component of its Bloch vector along the
    final field axis, killing the oscillatory terms in closed form.
    The transverse n_x component dies entirely, so the steady state has
    C_xy = C_yx = 0.  The values are the (q_i, q_f) cell of the sweep
    kernel _steady_maps on the quench's two-value grid.
    """
    (mz, cxx, cyy, czz), = _steady_maps(quench.initial.N, *_quench_axis(quench),
                                        ((slice(0, 1), slice(1, 2)),))
    return CorrelatorSet(mz=float(mz[0, 0]), cxx=float(cxx[0, 0]),
                         cyy=float(cyy[0, 0]), czz=float(czz[0, 0]),
                         cxy=0.0, cyx=0.0, t=STEADY)


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
