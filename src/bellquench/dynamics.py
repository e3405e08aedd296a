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

Sign conventions, both arbitrated by the dense solver (the transient
n_x sector flips under complex conjugation, so only a full dynamical
cross-check can pin them): the evolution operator is the physical
exp(-i H_p t), and with the standard sigma_y the xy weight is
+sin(phi) n_x; the opposite sign belongs to the conjugate
fermionization convention (sigma_y -> -sigma_y).  The initial vectors
come from momentum.ground_bloch.

Steady values come from one kernel, SteadyKernel.  The
diagonal-ensemble Bloch vector of each mode is bilinear in
initial-side and final-side factors,

    n_y = gy_i * (b_f^2/L_f^2)   + gz_i * (u_f b_f/L_f^2)
    n_z = gy_i * (u_f b_f/L_f^2) + gz_i * (u_f^2/L_f^2),

so every mode sum needed by the correlators factorizes into a few
(grid x modes) @ (modes x grid) matrix products, over any block of
contiguous kernel rows and columns.  The kernel holds only L and the
final-side factors per grid value; a row chunk's gy_i, gz_i =
(b, u)/L are formed when its products run, from rows of b and u that
_axes forms on demand.  Timed values come from one
kernel, _timed_mode_sums.  Its entries refuse a NaN, infinite or
negative time and an overflowing angle (_check_angles) with ValueError,
and correlator_arrays an oversized run with ResourceCapError, before
anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .model import QUENCHED, QuenchKind, QuenchSpec
from .momentum import (MEMORY_CAP, SAMPLE_BYTES, STEADY_DEGENERACY_TOL,
                       TIMED_DEGENERACY_TOL, check_footprint, dispersion,
                       ground_bloch, mode_angles)

STEADY = "steady"

# Rows per chunk of SteadyKernel: its temporaries hold ROW_CHUNK rows.
# Every BLAS call shape, and so every bit of the maps, follows from it
# (each chunk of a block against all of the block's columns): one
# product per block changes the last digits of the sweep maps.
ROW_CHUNK = 64


# Samples per chunk of the timed kernel: its table of offsets holds
# TIME_CHUNK x N doubles (1 MB at N = 512).
TIME_CHUNK = 256

# Largest time grid the timed path accepts: `bellquench evolve` keeps at
# most SAMPLE_BYTES per sample at its peak.
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

class _Rows:
    """One kernel input over n grid values, formed row by row on
    demand: row r is base[r] + shift[r], base an (n, modes) array or one
    (modes,) row that every value shares, shift an (n, 1) column or
    None.  Indexed by grid indices, it gives those rows as an array, as
    an (n, modes) array would."""

    def __init__(self, base, n, shift=None):
        self.base, self.shift, self.shape = base, shift, (n, base.shape[-1])

    def rows(self, take, out):
        """Rows `take`, an index array: a shared row without a shift as
        it is, else in `out`, of shape (len(take), modes)."""
        rows = self.base
        if rows.ndim == 2:  # "clip": under "raise" numpy buffers `out`
            rows = np.take(rows, take, axis=0, out=out, mode="clip")
        return rows if self.shift is None else np.add(rows, self.shift[take], out=out)

    def __getitem__(self, take):
        shape = (len(take), self.shape[1])
        return np.broadcast_to(self.rows(take, np.empty(shape)), shape)


def _axes(kind: QuenchKind, qs: np.ndarray, params):
    """(phis, axis): the mode angles and axis(k), the inputs (b, u) of
    both kernels for params[k] as _Rows, one row of b and of u = a + h
    per grid value.  The params differ only in the parameter the kind
    holds fixed, and one dispersion call serves them all: a field
    grid's over the params' alphas, whose b row every grid value
    shares, a coupling grid's over its alpha axis qs, to which each
    entry adds its own h.  No point holds a (grid x modes) array of its
    own.
    """
    phis, n = mode_angles(params[0].N), qs.size
    if kind is QuenchKind.FIELD:
        a, b = dispersion(params[0], phis, alphas=[p.alpha for p in params])
        return phis, lambda k: (_Rows(b[k], n), _Rows(a[k], n, qs[:, None]))
    a, b = dispersion(params[0], phis, alphas=qs)
    return phis, lambda k: (_Rows(b, n), _Rows(a, n, np.full((n, 1), params[k].h)))


def _quench_axis(quench: QuenchSpec):
    """(phis, b, u) of the two-value grid [q_i, q_f] of one quench: row 0
    is the initial Hamiltonian, row 1 the final one."""
    name = QUENCHED[quench.kind]
    qs = np.array([getattr(quench.initial, name), getattr(quench.final, name)])
    phis, axis = _axes(quench.kind, qs, [quench.initial])
    return (phis, *(x[[0, 1]] for x in axis(0)))


def _timed_mode_sums(phis, gy, gz, b_f, u_f, starts, offsets=(0.0,)):
    """Mode sums of the rotated Bloch vectors, shape (4, A * R): column
    a * R + r is the time starts[a] + offsets[r], for the A starts and
    R offsets.

    Rows: sum n_z, sum cos(phi) n_z, sum sin(phi) n_y, sum sin(phi) n_x.
    With theta = 2 Lambda_f t, n_y and n_z are para + swing cos(theta)
    and n_x is cross_x sin(theta): each row is a constant (the para
    terms) plus sum_k w_k cos(A_k + B_k), or sum_k v_k sin(A_k + B_k)
    for n_x, with A = 2 Lambda_f start and B = 2 Lambda_f offset.  By
    angle addition the R columns of one start are

        [cos B | sin B] @ [[w cos A, v sin A], [-w sin A, v cos A]],

    an (R x 2 modes) table built once per call times a (2 modes x 4)
    matrix built from one row of trig per start.  Every start runs the
    whole product, so a column's bits depend on its start, its offset
    and the offsets, not on the number of starts.
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
    para = np.array([np.sum(para_z), np.sum(cos_p * para_z),
                     np.sum(sin_p * para_y), 0.0])
    w = np.stack([swing_z, cos_p * swing_z, sin_p * swing_y], axis=1)
    v = sin_p * cross_x
    modes = phis.size
    table = np.empty((len(offsets), 2 * modes))
    # the offset 0 of one time (correlators_at) times an infinite 2 Lambda_f
    # is NaN; correlator_arrays refuses such gaps first (_check_angles)
    with np.errstate(invalid="ignore"):
        offset_angle = np.multiply.outer(np.asarray(offsets, dtype=float), two_lam)
        np.cos(offset_angle, out=table[:, :modes])
        np.sin(offset_angle, out=table[:, modes:])
    mat = np.empty((2 * modes, 4))
    sums = np.empty((len(starts), len(offsets), 4))
    for a, start in enumerate(starts):
        angle = start * two_lam
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        np.multiply(w, cos_a[:, None], out=mat[:modes, :3])
        np.multiply(w, -sin_a[:, None], out=mat[modes:, :3])
        np.multiply(v, sin_a, out=mat[:modes, 3])
        np.multiply(v, cos_a, out=mat[modes:, 3])
        np.matmul(table, mat, out=sums[a])
    sums += para
    return sums.reshape(-1, 4).T


def _correlators_from_sums(sum_cos, sums, N, out):
    """(sum n_z, sum cos n_z, sum sin n_y, sum sin n_x) ->
    (mz, cxx, cyy, czz, cxy), elementwise; sum_cos = sum cos(phi).  cxx
    and cyy go to `out`; mz, scratch and czz over the first three sums."""
    (s_z, m_cos, m_sin, m_x), (cxx, cyy) = sums, out
    two_n = 2.0 / N
    g1 = np.subtract(sum_cos, m_cos, out=m_cos)  # N g1, taken once
    np.multiply(two_n, np.subtract(g1, m_sin, out=cxx), out=cxx)
    np.multiply(two_n, np.add(g1, m_sin, out=cyy), out=cyy)
    mz = np.multiply(two_n, s_z, out=s_z)
    g1 /= N
    # czz = mz**2 + 4 (f_re**2 + f_im**2 - g1**2), f_im = -m_x / N
    czz = np.square(np.divide(m_sin, N, out=m_sin), out=m_sin)
    f_im = -m_x / N
    czz += f_im * f_im
    czz -= np.square(g1, out=g1)
    czz *= 4.0
    czz += np.square(mz, out=g1)
    return mz, cxx, cyy, czz, two_n * m_x


class SteadyKernel:
    """Steady mz, cxx, cyy, czz over slice blocks of a grid of n values.

    It owns the per-value arrays of the grid (the gaps Lambda and six
    final-side factors), two row buffers and eight chunk buffers, so a
    threshold curve allocates them once for all of its points, and
    builds each chunk's correlators in place by the operations of a
    fresh-array evaluation, in its order.  The initial-side gy, gz of a
    row chunk are formed in the row buffers when its turn comes.  One
    maps pass runs at a time.
    """

    def __init__(self, N: int, phis, n: int):
        self.N, self.cos_p, self.sin_p = N, np.cos(phis), np.sin(phis)
        self.sum_cos = float(np.sum(self.cos_p))
        self.lam = np.empty((n, phis.size))
        self.final = np.empty((6, n, phis.size))
        # per row chunk: the b and u rows, then gy and gz over them
        self.rows = np.empty((2, ROW_CHUNK, phis.size))
        # per chunk: mz, czz, cxx, cyy, and four spares, the first for sum cos n_z
        self.chunk = np.empty((8, ROW_CHUNK * n))

    def _buffers(self, shape):
        return self.chunk[:, :math.prod(shape)].reshape(8, *shape)

    def spare(self, shape):
        """Four chunk buffers that no yielded array uses, until the next."""
        return self._buffers(shape)[4:]

    def _take(self, b, u, take):
        """Rows `take` of b and u in the row buffers (a shared b row as it is)."""
        b_out, u_out = self.rows[:, :len(take)]
        return b.rows(take, b_out), u.rows(take, u_out)

    def _fill(self, b, u, order):
        """The per-value arrays of b and u, row r from grid value order[r]."""
        for start in range(0, self.lam.shape[0], ROW_CHUNK):
            part = slice(start, start + ROW_CHUNK)
            b_c, u_c = self._take(b, u, order[part])
            lam = np.hypot(u_c, b_c, out=self.lam[part])
            degen_f = lam < STEADY_DEGENERACY_TOL
            # j-side factors ub, u^2 and b^2 over L^2 (0, 1, 1 for a block that
            # does not dephase), weighted for sum nz, sum cos*nz, sum sin*ny;
            # L^2 is held in f[5] until its own factor is written
            f = self.final[:, part]
            safe2 = np.square(lam, out=f[5])
            safe2[degen_f] = 1.0
            for k, x, y, held in ((0, u_c, b_c, 0.0), (1, u_c, u_c, 1.0),
                                  (4, b_c, b_c, 1.0)):
                np.divide(np.multiply(x, y, out=f[k]), safe2, out=f[k])
                f[k][degen_f] = held
            np.multiply(self.cos_p, f[:2], out=f[2:4])
            np.multiply(self.sin_p, f[0], out=f[5])
            np.multiply(self.sin_p, f[4], out=f[4])

    def maps(self, b, u, blocks=((slice(None), slice(None)),), order=None):
        """Yields (rows, mz, cxx, cyy, czz) per ROW_CHUNK rows of each
        (rows, cols) block, a pair of slices of the kernel's rows: row r
        holds grid value order[r], or r when order is None.  b and u are
        _Rows (from _axes) or (n, modes) arrays.  The yielded arrays are
        chunk buffers, which the next chunk overwrites."""
        n = self.lam.shape[0]
        b, u = (x if isinstance(x, _Rows) else _Rows(x, n) for x in (b, u))
        order = np.arange(n) if order is None else order
        self._fill(b, u, order)
        for rows, cols in blocks:
            final = [f.T for f in self.final[:, cols]]
            start, stop, _ = rows.indices(n)
            for lo in range(start, stop, ROW_CHUNK):
                part = slice(lo, min(lo + ROW_CHUNK, stop))
                b_c, u_c = self._take(b, u, order[part])
                _, gy_c, gz_c = ground_bloch(u_c, b_c, self.lam[part],
                                             self.rows[:, :u_c.shape[0]])
                s_z, m_sin, cxx, cyy, m_cos, *_ = self._buffers(
                    (gy_c.shape[0], final[0].shape[1]))
                # cxx holds each mode sum's second product until the correlators
                for out, f_y, f_z in zip((s_z, m_cos, m_sin), final[::2], final[1::2]):
                    np.add(np.matmul(gy_c, f_y, out=out),
                           np.matmul(gz_c, f_z, out=cxx), out=out)
                # the steady state has no n_x, so its mode sum is 0
                yield (part, *_correlators_from_sums(
                    self.sum_cos, (s_z, m_cos, m_sin, 0.0), self.N, (cxx, cyy))[:4])


def _timed_correlators(quench: QuenchSpec, starts, offsets=(0.0,)):
    """(mz, cxx, cyy, czz, cxy) arrays, one entry per time of
    _timed_mode_sums."""
    phis, b, u = _quench_axis(quench)
    _, gy, gz = ground_bloch(u[0], b[0])
    sums = _timed_mode_sums(phis, gy, gz, b[1], u[1], starts, offsets)
    mz, cxx, cyy, czz, cxy = _correlators_from_sums(
        np.cos(phis).sum(), sums, quench.initial.N, np.empty((2, sums.shape[1])))
    return mz.copy(), cxx, cyy, czz.copy(), cxy  # copies free the sums


# ---------------------------------------------------------------------------
# Public operations

def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")


def _check_angles(h_f: float, t_end: float) -> None:
    """ValueError unless 2 (|h_f| + 2) t_end <= DBL_MAX (about 1.8e308),
    a bound on every angle 2 Lambda_f t of the timed kernel up to t_end:
    the final gaps are Lambda_f = |a + h_f + i b| <= |h_f| + 2, as
    |a| <= 1 and |b| <= gamma <= 1.  correlator_arrays takes t_end at
    the end of its padded chunks, whose offsets run past the grid."""
    if not math.isfinite(2.0 * (abs(h_f) + 2.0) * t_end):
        raise ValueError(f"final field h = {h_f:.6g} over times up to "
                         f"{t_end:.6g} would overflow the angle 2 Lambda_f t")


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
    kernel on the quench's two-value grid.
    """
    phis, b, u = _quench_axis(quench)
    (_, mz, cxx, cyy, czz), = SteadyKernel(quench.initial.N, phis, 2).maps(
        b, u, ((slice(0, 1), slice(1, 2)),))
    return CorrelatorSet(mz=float(mz[0, 0]), cxx=float(cxx[0, 0]),
                         cyy=float(cyy[0, 0]), czz=float(czz[0, 0]),
                         cxy=0.0, cyx=0.0, t=STEADY)


def correlator_arrays(quench: QuenchSpec, grid: TimeGrid):
    """Sample times and (mz, cxx, cyy, czz, cxy) on a uniform grid, as
    arrays (C_yx = C_xy).  Each sample is exact: no time stepping."""
    check_footprint(quench.initial.N, TIME_CHUNK, samples=grid.count)
    times = grid.times()
    # sample n = a * TIME_CHUNK + r is start times[a * TIME_CHUNK] plus
    # offset r * dt; the last chunk runs whole and is trimmed, so a
    # sample's bits do not depend on the grid's length
    starts = times[::TIME_CHUNK]
    _check_angles(quench.final.h, float(starts[-1]) + (TIME_CHUNK - 1) * grid.dt)
    values = _timed_correlators(quench, starts, grid.dt * np.arange(TIME_CHUNK))
    return (times, *(v[:times.size] for v in values))


def correlator_time_series(quench: QuenchSpec, grid: TimeGrid) -> list[CorrelatorSet]:
    """correlator_arrays as one CorrelatorSet per sample."""
    return [CorrelatorSet(mz=mz, cxx=cxx, cyy=cyy, czz=czz, cxy=cxy, cyx=cxy, t=t)
            for t, mz, cxx, cyy, czz, cxy in
            zip(*(v.tolist() for v in correlator_arrays(quench, grid)))]
