"""Quench-grid sweeps, benchmarking thresholds and efficiencies.

A steady-state phase diagram evaluates the dephased correlators for
every (q_i, q_f) pair on a grid.  The diagonal-ensemble Bloch vector
of each mode is bilinear in initial-side and final-side factors,

    n_y = gy_i * (b_f^2/L_f^2)   + gz_i * (u_f b_f/L_f^2)
    n_z = gy_i * (u_f b_f/L_f^2) + gz_i * (u_f^2/L_f^2),

so every mode sum needed by the correlators factorizes into a few
(grid x modes) @ (modes x grid) matrix products.  One kernel,
_steady_maps, evaluates them over any (rows, cols) block of the grid.
sweep_all runs it over the whole grid and builds the three quantifier
maps and the phase masks; sweep is one of its diagrams.  Worker
parallelism splits the initial-axis rows into fixed-size chunks whose
results are written into preallocated slots, so outputs are bitwise
identical for every worker count.

Both quench kinds run one protocol.  KIND_DEFAULTS holds what differs
between them: the default grid, the default threshold policy
(boundary, cross_lines) and the parameter a diagram holds fixed.

The threshold B_c is the Bell maximum over the cross-phase cells.
Under every boundary and cross-line policy those cells form at most
three rectangles of the grid (_cross_blocks, from model.phase_codes),
and `critical_threshold` reduces a diagram over exactly those.
`threshold_curve` evaluates the kernel on the rectangles alone and
never builds a diagram: about 44 % of the cells of a 601 x 601 field
grid.  A coupling curve computes the dispersion over its alpha axis
once and shares it across every h, since only u = a + h depends on h
(_axes).  The curve values agree with critical_threshold(sweep(...))
to rounding (the block products have other shapes than the full-grid
ones).  Each curve point is computed on its own, so curves too are
identical for every worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bell import xstate_log_negativity
from .dynamics import _correlators_from_sums
from .errors import ThresholdUndefinedError
from .model import (ModelParams, QuenchKind, check_lines, coupling_quench,
                    field_quench, phase_codes, same_phase_area)
from .momentum import (STEADY_DEGENERACY_TOL, check_footprint, dispersion,
                       ground_bloch, mode_angles)

# Rows per work item; fixed so that chunking (and hence every BLAS call
# shape) does not depend on the worker count.
ROW_CHUNK = 64


class Quantifier(enum.Enum):
    BELL = "bell"
    ENTANGLEMENT = "entanglement"
    CZZ = "czz"


@dataclass(frozen=True)
class GridSpec:
    """Uniform closed grid q_min, q_min + step, ..., q_max."""

    q_min: float
    q_max: float
    step: float

    def __post_init__(self):
        for name in ("q_min", "q_max", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.q_min >= self.q_max:
            raise ValueError("q_min must be below q_max")
        n = (self.q_max - self.q_min) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError("grid span must be an integer number of steps")

    @property
    def count(self) -> int:
        return int(round((self.q_max - self.q_min) / self.step)) + 1

    def values(self) -> np.ndarray:
        return self.q_min + self.step * np.arange(self.count)


FIELD_GRID = GridSpec(-3.0, 3.0, 0.01)
COUPLING_GRID = GridSpec(0.5, 3.0, 0.01)


@dataclass(frozen=True)
class KindDefaults:
    """The per-kind settings of a quench grid.

    grid, boundary and cross_lines are the defaults of threshold_curve
    and of the CLI's sweep and threshold-curve.  fixed names the
    ModelParams field a diagram or a quench holds fixed, the one a
    curve steps through.
    """

    grid: GridSpec
    boundary: str
    cross_lines: str
    fixed: str


# The benchmark-threshold construction: field thresholds against the
# short-range lines h = +-1 with critical cells counted as cross,
# coupling thresholds against the model line with critical cells left out.
KIND_DEFAULTS = {
    QuenchKind.FIELD: KindDefaults(FIELD_GRID, "cross", "nn_limit", "alpha"),
    QuenchKind.COUPLING: KindDefaults(COUPLING_GRID, "exclude", "model", "h"),
}


@dataclass(frozen=True)
class PhaseDiagram:
    """Steady-state quantifier over a quench grid plus phase masks.

    values[i, j] belongs to the quench q_i = grid[i] -> q_f = grid[j].
    same_phase_mask marks strictly same-phase pairs; boundary_mask
    marks pairs with either endpoint on a critical line (counted as
    cross-phase by the conservative convention, but kept separately so
    threshold policies can be compared).
    """

    kind: QuenchKind
    fixed: ModelParams
    grid: GridSpec
    quantifier: Quantifier
    values: np.ndarray
    same_phase_mask: np.ndarray
    boundary_mask: np.ndarray

    @property
    def cross_phase_mask(self) -> np.ndarray:
        return ~self.same_phase_mask


@dataclass(frozen=True)
class ThresholdReport:
    q_c: float
    eta: float
    area_detected: float
    area_same: float
    n_cross_cells: int
    n_same_cells: int
    n_detected_cells: int


# ---------------------------------------------------------------------------
# Steady-state engine

def _axes(kind: QuenchKind, base: ModelParams, qs: np.ndarray):
    """A function fixed -> (phis, b, u): the _steady_maps inputs, with
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


def _steady_maps(N: int, phis, b, u, blocks=((None, None),),
                 workers: int = 1):
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

        def run_chunk(start):
            stop = min(start + ROW_CHUNK, n_rows)
            gy_c, gz_c = gy_b[start:stop], gz_b[start:stop]
            s_z[start:stop] = gy_c @ f_m_y + gz_c @ f_m_z
            m_cos[start:stop] = gy_c @ f_z_y + gz_c @ f_z_z
            m_sin[start:stop] = gy_c @ f_y_y + gz_c @ f_y_z

        starts = range(0, n_rows, ROW_CHUNK)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, starts))
        else:
            for start in starts:
                run_chunk(start)

        # the steady state has no n_x, so its mode sum is 0
        yield _correlators_from_sums(phis, (s_z, m_cos, m_sin, 0.0), N)[:4]


def _bell_map(cxx, cyy, czz):
    """bell.chsh_arrays(cxx, cyy, czz, 0, 0)[3]: the C_xy = C_yx = 0 form
    (always true in steady state), with the largest squares taken
    directly instead of through lambda_pm.

    Kept apart for the bits of values_bell.csv: on the N = 512
    field map (gamma 0.8, alpha 3.5, 601 x 601) chsh_arrays differs
    in 8 337 of 361 201 cells, by up to 4.4e-16.
    """
    xx2, yy2, zz2 = cxx * cxx, cyy * cyy, czz * czz
    lam_plus = np.maximum(xx2, yy2)
    second = np.maximum(np.minimum(xx2, yy2), zz2)
    return 2.0 * np.sqrt(lam_plus + second)


def check_policy(kind: QuenchKind, boundary: str, cross_lines: str) -> None:
    """ValueError unless (boundary, cross_lines) is a threshold policy of
    the quench kind.  _cross_blocks, threshold_curve and the CLI run it
    first, so a refused policy costs no map."""
    if boundary not in ("cross", "exclude"):
        raise ValueError(f"unknown boundary policy {boundary!r}")
    check_lines(kind, cross_lines)


def _cross_blocks(kind: QuenchKind, fixed: ModelParams, qs: np.ndarray,
                  boundary: str, cross_lines: str):
    """The cross-phase cells of a quench grid as (rows, cols) blocks.

    Each policy splits the grid values into two phase classes plus the
    values on a critical line (model.phase_codes).  Cross cells pair one
    class with the other; with boundary="cross" every pair with an
    endpoint on a line joins them, with "exclude" none does.  So the
    cross set is the union of at most three rectangles: first class x
    (second class + lines), second class x (first class + lines), lines
    x everything.  rows and cols are index arrays, or slices where the
    indices are consecutive.  Raises ThresholdUndefinedError when the
    set is empty.
    """
    check_policy(kind, boundary, cross_lines)
    code, line = phase_codes(kind, fixed, qs, cross_lines)
    first = np.flatnonzero((code == 0) & ~line)
    second = np.flatnonzero((code == 1) & ~line)
    if boundary == "exclude":
        blocks = [(first, second), (second, first)]
    else:
        on = np.flatnonzero(line)
        blocks = [(first, np.union1d(second, on)),
                  (second, np.union1d(first, on)),
                  (on, np.arange(qs.size))]
    blocks = [(_span(rows), _span(cols)) for rows, cols in blocks
              if rows.size and cols.size]
    if not blocks:
        raise ThresholdUndefinedError("phase diagram has no cross-phase cells")
    return blocks


def _span(idx: np.ndarray):
    """A run of consecutive indices as a slice: indexing it takes a view."""
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _cross_max(kind: QuenchKind, fixed: ModelParams, qs: np.ndarray, axis,
               boundary: str, cross_lines: str) -> float:
    """Bell maximum over the cross-phase cells, block by block.

    The threshold path: the same value as critical_threshold on the
    Bell diagram, without evaluating the same-phase cells.  `axis` is
    _axes(kind, ..., qs)(fixed).
    """
    blocks = _cross_blocks(kind, fixed, qs, boundary, cross_lines)
    return float(np.max([np.max(_bell_map(cxx, cyy, czz)) for _, cxx, cyy, czz
                         in _steady_maps(fixed.N, *axis, blocks)]))


def cross_cell_count(kind: QuenchKind, fixed: ModelParams, grid: GridSpec,
                     boundary: str = "cross", cross_lines: str = "model") -> int:
    """Cells in the cross set of a policy, the cells critical_threshold
    takes its maximum over; ThresholdUndefinedError when there are none,
    ValueError for a policy check_policy refuses.  Needs no map."""
    axis = np.arange(grid.count)
    return sum(axis[rows].size * axis[cols].size for rows, cols in
               _cross_blocks(kind, fixed, grid.values(), boundary, cross_lines))


def sweep(kind: QuenchKind, fixed: ModelParams, grid: GridSpec,
          quantifier: Quantifier, workers: int = 1) -> PhaseDiagram:
    """Steady-state phase diagram of one quantifier over a quench grid."""
    return sweep_all(kind, fixed, grid, workers)[quantifier]


def sweep_all(kind: QuenchKind, fixed: ModelParams, grid: GridSpec,
              workers: int = 1) -> dict[Quantifier, PhaseDiagram]:
    """All three quantifiers from one pass over the correlator maps."""
    check_footprint(fixed.N, grid.count, grid.count ** 2)
    qs = grid.values()
    (mz, cxx, cyy, czz), = _steady_maps(fixed.N, *_axes(kind, fixed, qs)(fixed),
                                        workers=workers)
    code, boundary = phase_codes(kind, fixed, qs)
    pair_boundary = boundary[:, None] | boundary[None, :]
    same = (code[:, None] == code[None, :]) & ~pair_boundary
    out = {}
    for quantifier, values in ((Quantifier.BELL, _bell_map(cxx, cyy, czz)),
                               (Quantifier.ENTANGLEMENT,
                                xstate_log_negativity(mz, cxx, cyy, czz, 0.0)),
                               (Quantifier.CZZ, czz)):
        out[quantifier] = PhaseDiagram(kind=kind, fixed=fixed, grid=grid,
                                       quantifier=quantifier, values=values,
                                       same_phase_mask=same,
                                       boundary_mask=pair_boundary)
    return out


def critical_threshold(diagram: PhaseDiagram, boundary: str = "cross",
                       cross_lines: str = "model",
                       absolute: bool = False) -> float:
    """Smallest sound threshold: the quantifier maximum over cross cells.

    `boundary` selects how exactly-critical cells enter: "cross" (the
    conservative default) includes them in the maximum, "exclude"
    drops them from both cell classes.

    `cross_lines` selects the critical lines that define the cross
    set.  "model" uses the fall-off-dependent boundary; "nn_limit"
    (field diagrams only) classifies against the fixed lines h = +-1
    of the short-range limit.  The benchmark field-quench thresholds
    track the nn_limit construction; areas and efficiencies always use
    the model topology.
    """
    blocks = _cross_blocks(diagram.kind, diagram.fixed, diagram.grid.values(),
                           boundary, cross_lines)
    values = np.abs(diagram.values) if absolute else diagram.values
    return float(np.max([np.max(values[rows][:, cols]) for rows, cols in blocks]))


def efficiency(diagram: PhaseDiagram, q_c: float, absolute: bool = False,
               boundary: str = "cross",
               cross_lines: str = "model") -> ThresholdReport:
    """Fraction of the same-phase area certified by the threshold q_c.

    Detection is inclusive (value >= q_c); the denominator is the
    analytic same-phase area, not the discretized cell count.
    n_cross_cells counts the cross set of the policy (boundary,
    cross_lines), the cells critical_threshold takes its maximum over;
    like critical_threshold, raises ThresholdUndefinedError when that
    set is empty.
    """
    values = np.abs(diagram.values) if absolute else diagram.values
    same = diagram.same_phase_mask
    detected = same & (values >= q_c)
    n_same = int(np.count_nonzero(same))
    n_detected = int(np.count_nonzero(detected))
    step = diagram.grid.step
    area_detected = n_detected * step * step
    area_same = same_phase_area(diagram.kind, getattr(
        diagram.fixed, KIND_DEFAULTS[diagram.kind].fixed))
    n_cross = cross_cell_count(diagram.kind, diagram.fixed, diagram.grid,
                               boundary, cross_lines)
    return ThresholdReport(q_c=q_c, eta=area_detected / area_same,
                           area_detected=area_detected, area_same=area_same,
                           n_cross_cells=n_cross,
                           n_same_cells=n_same, n_detected_cells=n_detected)


def threshold_curve(kind: QuenchKind, gamma: float, points,
                    grid: GridSpec | None = None, N: int = 512, J: float = 1.0,
                    workers: int = 1, boundary: str | None = None,
                    cross_lines: str | None = None) -> list[tuple[float, float]]:
    """Threshold B_c at each point: fall-off rates for field quenches,
    fields inside the coupling window for coupling quenches.

    grid, boundary and cross_lines default to KIND_DEFAULTS[kind], the
    benchmark-threshold construction; pass cross_lines="model" for the
    fall-off-dependent topology of a field curve.
    """
    defaults = KIND_DEFAULTS[kind]
    grid = defaults.grid if grid is None else grid
    boundary = defaults.boundary if boundary is None else boundary
    cross_lines = defaults.cross_lines if cross_lines is None else cross_lines
    check_policy(kind, boundary, cross_lines)
    base = ModelParams(N=N, gamma=gamma, alpha=1.0, h=0.0, J=J)
    params = [base.replace(**{defaults.fixed: float(q)}) for q in points]
    if not params:
        raise ValueError("points must be nonempty")
    for fixed in params:
        same_phase_area(kind, getattr(fixed, defaults.fixed))  # coupling window
    at_once = max(1, workers)  # points evaluated at the same time
    check_footprint(N, at_once * grid.count, at_once * grid.count ** 2)
    qs = grid.values()
    axes = _axes(kind, base, qs)

    def one(fixed):
        return getattr(fixed, defaults.fixed), _cross_max(
            kind, fixed, qs, axes(fixed), boundary, cross_lines)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, params))
    return [one(fixed) for fixed in params]


def steady_cell(kind: QuenchKind, fixed: ModelParams, q_i: float, q_f: float):
    """The quench q_i -> q_f at fixed parameters: one cell of a quench
    grid, for scalar cross-checks of the engine and for evolve."""
    if kind is QuenchKind.FIELD:
        return field_quench(fixed, q_i, q_f)
    return coupling_quench(fixed, q_i, q_f)
