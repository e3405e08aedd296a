"""Quench-grid sweeps, benchmarking thresholds and efficiencies.

A steady-state phase diagram evaluates the dephased correlators for
every (q_i, q_f) pair on a grid, through the steady kernel of
dynamics (_axes, SteadyKernel).  sweep_all runs it over the whole
grid, evaluates the three quantifiers on each row chunk of
correlators it yields (Bell through bell.chsh_arrays, as evolve takes
it) and builds the phase mask; sweep is one of its diagrams.

Both quench kinds run one protocol.  model holds the phase geometry
(WINDOW, phase_interval) and model.HELD names the parameter a diagram
holds fixed; KIND_DEFAULTS holds the default grid, over the window, and
the default threshold policy (boundary, cross_lines).

The threshold B_c is the Bell maximum over the cross-phase cells, at
most three rectangles of the phase-ordered grid (_cross_blocks).
critical_threshold reduces a diagram over them; threshold_curve
evaluates only them (_cross_max), on one kernel reused by every point,
and never builds a diagram.  The curve values agree with
critical_threshold(sweep(...)) to rounding (the block products have
other shapes than the full-grid ones).

Every map and curve runs the steady kernel's products in the same
fixed shapes (dynamics.ROW_CHUNK), so repeated runs write identical
bytes at a given BLAS thread count; a curve runs them on one pinned
OpenBLAS thread (threshold_curve).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bell import _chsh_terms, chsh_arrays, xstate_log_negativity
from .dynamics import ROW_CHUNK, SteadyKernel, _axes
from .errors import ThresholdUndefinedError
from .model import (HELD, WINDOW, ModelParams, QuenchKind, check_lines,
                    make_quench, phase_codes, same_phase_area)
from .momentum import MEMORY_CAP, check_footprint
from .output import forked, one_blas_thread, openblas, writer_cpus


class Quantifier(enum.Enum):
    BELL = "bell"
    ENTANGLEMENT = "entanglement"
    CZZ = "czz"


@dataclass(frozen=True)
class GridSpec:
    """Uniform closed grid q_min, q_min + step, ..., q_max; |q| <= 2^511."""

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
        if not math.isfinite(n):
            raise ValueError("grid bounds and step must give a finite number of steps")
        if abs(n - round(n)) > 1e-9:
            raise ValueError("grid span must be an integer number of steps")
        if round(n) < 1:
            raise ValueError("grid span must be at least one step")
        if max(-self.q_min, self.q_max) > MAX_GRID_VALUE:
            raise ValueError("grid values above 2^511 overflow the steady squares")

    @property
    def count(self) -> int:
        return int(round((self.q_max - self.q_min) / self.step)) + 1

    def values(self) -> np.ndarray:
        return self.q_min + self.step * np.arange(self.count)


# Largest |q| of a grid: as |a| <= 1 and |b| <= gamma <= 1, a field grid's
# u = a + h and Lambda stay below sqrt(DBL_MAX) ~ 1.34e154, their squares finite.
MAX_GRID_VALUE = 2.0 ** 511
FIELD_GRID = GridSpec(*WINDOW[QuenchKind.FIELD], 0.01)
COUPLING_GRID = GridSpec(*WINDOW[QuenchKind.COUPLING], 0.01)


@dataclass(frozen=True)
class KindDefaults:
    """A kind's default grid, over its model.WINDOW, and threshold
    policy (boundary, cross_lines; check_policy)."""

    grid: GridSpec
    boundary: str
    cross_lines: str


# The benchmark-threshold construction: field thresholds against the
# short-range lines h = +-1 with critical cells counted as cross,
# coupling thresholds against the model line with critical cells left out.
KIND_DEFAULTS = {
    QuenchKind.FIELD: KindDefaults(FIELD_GRID, "cross", "nn_limit"),
    QuenchKind.COUPLING: KindDefaults(COUPLING_GRID, "exclude", "model"),
}


@dataclass(frozen=True)
class PhaseDiagram:
    """Steady-state quantifier over a quench grid plus its phase mask.

    values[i, j] belongs to the quench q_i = grid[i] -> q_f = grid[j].
    same_phase_mask marks strictly same-phase pairs: a pair with either
    endpoint on a critical line is not one.
    """

    kind: QuenchKind
    fixed: ModelParams
    grid: GridSpec
    quantifier: Quantifier
    values: np.ndarray
    same_phase_mask: np.ndarray


@dataclass(frozen=True)
class ThresholdReport:
    q_c: float
    eta: float
    area_detected: float
    area_same: float
    n_cross_cells: int
    n_same_cells: int
    n_detected_cells: int


def check_policy(kind: QuenchKind, boundary: str | None = None,
                 cross_lines: str | None = None) -> tuple[str, str]:
    """(boundary, cross_lines), a None taken from KIND_DEFAULTS[kind];
    ValueError unless the kind defines that policy.  _cross_blocks,
    threshold_curve and the CLI run it first, so a refusal costs no map."""
    defaults = KIND_DEFAULTS[kind]
    boundary = defaults.boundary if boundary is None else boundary
    cross_lines = defaults.cross_lines if cross_lines is None else cross_lines
    if boundary not in ("cross", "exclude"):
        raise ValueError(f"unknown boundary policy {boundary!r}")
    check_lines(kind, cross_lines)
    return boundary, cross_lines


def check_window(kind: QuenchKind, grid: GridSpec) -> None:
    """ValueError unless grid spans the kind's window (model.WINDOW), the
    one model.same_phase_area integrates over."""
    if (grid.q_min, grid.q_max) != WINDOW[kind]:
        raise ValueError(f"efficiency needs the {kind.value} window "
                         f"{list(WINDOW[kind])}")


def _cross_blocks(kind: QuenchKind, fixed: ModelParams, qs: np.ndarray,
                  boundary: str | None, cross_lines: str | None):
    """The cross-phase cells of a quench grid as (order, blocks).

    Each policy splits the grid values into two phase classes plus the
    values on a critical line (model.phase_codes).  order lists the grid
    indices in phase order: first class, lines, second class, each in
    ascending grid order.  Cross cells pair one class with the other;
    with boundary="cross" every pair with an endpoint on a line joins
    them, with "exclude" none does.  So in phase order the cross set is
    at most three rectangles, each a (rows, cols) pair of slices of
    order: first class x (lines + second class), second class x (first
    class + lines), lines x everything.  Raises ThresholdUndefinedError
    when the set is empty.
    """
    boundary, cross_lines = check_policy(kind, boundary, cross_lines)
    code, line = phase_codes(kind, fixed, qs, cross_lines)
    classes = [np.flatnonzero((code == 0) & ~line), np.flatnonzero(line),
               np.flatnonzero((code == 1) & ~line)]
    order = np.concatenate(classes)
    a, b, n = classes[0].size, classes[0].size + classes[1].size, qs.size
    first, lines, second = slice(0, a), slice(a, b), slice(b, n)
    if boundary == "exclude":
        blocks = [(first, second), (second, first)]
    else:
        blocks = [(first, slice(a, n)), (second, slice(0, b)),
                  (lines, slice(0, n))]
    blocks = [(rows, cols) for rows, cols in blocks
              if rows.start < rows.stop and cols.start < cols.stop]
    if not blocks:
        raise ThresholdUndefinedError("phase diagram has no cross-phase cells")
    return order, blocks


def _cross_max(kernel: SteadyKernel, axis, order, blocks) -> float:
    """Bell maximum over the cross-phase blocks of a point (order and
    blocks from _cross_blocks), chunk by chunk.

    The threshold path: the same value as critical_threshold on the
    Bell diagram, without evaluating the same-phase cells.  `axis` is
    the point's (b, u) from _axes.  A correctly rounded sqrt is
    monotone, so 2 sqrt of the largest radicand is the largest B.
    """
    return float(2.0 * np.sqrt(np.max([
        np.max(_chsh_terms(cxx, cyy, czz, 0.0, 0.0, kernel.spare(cxx.shape))[3])
        for _, _, cxx, cyy, czz in kernel.maps(*axis, blocks, order)])))


def cross_cell_count(kind: QuenchKind, fixed: ModelParams, grid: GridSpec,
                     boundary: str | None = None,
                     cross_lines: str | None = None) -> int:
    """Cells in the cross set of a policy, the cells critical_threshold
    takes its maximum over; ThresholdUndefinedError when there are none,
    ValueError for a policy check_policy refuses.  Needs no map."""
    _, blocks = _cross_blocks(kind, fixed, grid.values(), boundary, cross_lines)
    return sum((rows.stop - rows.start) * (cols.stop - cols.start)
               for rows, cols in blocks)


def kernel_footprint(N: int, grid: GridSpec, cells: int = 0) -> int:
    """check_footprint of a steady kernel on grid and `cells` map cells:
    its factor rows, and its 8 chunk buffers of ROW_CHUNK x grid doubles,
    charged as 2 MAP_BYTES cells a chunk cell.  With map cells (a sweep)
    it also charges the quantifier pass (sweep_all): at most 13 chunk
    arrays at once, the Bell chunk and xstate_log_negativity's 12,
    charged as 4 cells a chunk cell."""
    chunk = ROW_CHUNK * grid.count
    return check_footprint(N, grid.count, cells + (6 if cells else 2) * chunk)


def sweep(kind: QuenchKind, fixed: ModelParams, grid: GridSpec,
          quantifier: Quantifier) -> PhaseDiagram:
    """Steady-state phase diagram of one quantifier over a quench grid."""
    return sweep_all(kind, fixed, grid)[quantifier]


def sweep_all(kind: QuenchKind, fixed: ModelParams,
              grid: GridSpec) -> dict[Quantifier, PhaseDiagram]:
    """All three quantifier maps, each evaluated on every row chunk of
    the steady kernel's correlators; the correlator maps are never held
    whole.  A coupling field outside the window of model.same_phase_area
    is refused with ValueError before any map, as by threshold_curve."""
    same_phase_area(kind, getattr(fixed, HELD[kind]))
    kernel_footprint(fixed.N, grid, grid.count ** 2)
    qs = grid.values()
    phis, axis = _axes(kind, qs, [fixed])
    maps = np.empty((len(Quantifier), qs.size, qs.size))
    for rows, mz, cxx, cyy, czz in SteadyKernel(fixed.N, phis, qs.size).maps(*axis(0)):
        # in Quantifier order
        maps[:, rows] = (chsh_arrays(cxx, cyy, czz, 0.0, 0.0),
                         xstate_log_negativity(mz, cxx, cyy, czz, 0.0), czz)
    code, on = phase_codes(kind, fixed, qs)
    same = (code[:, None] == code[None, :]) & ~(on[:, None] | on[None, :])
    return {quantifier: PhaseDiagram(kind=kind, fixed=fixed, grid=grid,
                                     quantifier=quantifier, values=values,
                                     same_phase_mask=same)
            for quantifier, values in zip(Quantifier, maps)}


def critical_threshold(diagram: PhaseDiagram, boundary: str | None = None,
                       cross_lines: str | None = None) -> float:
    """Smallest sound threshold: the quantifier maximum over cross cells.

    `boundary` selects how exactly-critical cells enter: "cross"
    (conservative) includes them in the maximum, "exclude" drops them
    from both cell classes.  `cross_lines` selects the critical lines
    that define the cross set (model.check_lines); areas and
    efficiencies always use the model lines.  A setting left
    None is the kind's (KIND_DEFAULTS), so the default is the CLI's B_c.
    """
    order, blocks = _cross_blocks(diagram.kind, diagram.fixed,
                                  diagram.grid.values(), boundary, cross_lines)
    return float(np.max([np.max(diagram.values[order[rows]][:, order[cols]])
                         for rows, cols in blocks]))


def efficiency(diagram: PhaseDiagram, q_c: float, boundary: str | None = None,
               cross_lines: str | None = None) -> ThresholdReport:
    """Fraction of the same-phase area certified by the threshold q_c.

    Detection is inclusive (value >= q_c); the denominator is the
    analytic same-phase area of the kind's window, not the discretized
    cell count, so a grid over another window raises ValueError.
    n_cross_cells counts the cross set of the policy, as in
    critical_threshold (ThresholdUndefinedError when it is empty).
    """
    same = diagram.same_phase_mask
    detected = same & (diagram.values >= q_c)
    n_same = int(np.count_nonzero(same))
    n_detected = int(np.count_nonzero(detected))
    step = diagram.grid.step
    area_detected = n_detected * step * step
    area_same = same_phase_area(diagram.kind, getattr(
        diagram.fixed, HELD[diagram.kind]))
    n_cross = cross_cell_count(diagram.kind, diagram.fixed, diagram.grid,
                               boundary, cross_lines)
    check_window(diagram.kind, diagram.grid)
    return ThresholdReport(q_c=q_c, eta=area_detected / area_same,
                           area_detected=area_detected, area_same=area_same,
                           n_cross_cells=n_cross,
                           n_same_cells=n_same, n_detected_cells=n_detected)


# Fewest cell-sites (grid cells times chain length N, summed over its
# points) per curve worker: some 15 ms of points, against about 10 ms to
# fork and reap a worker.
CURVE_WORK = 2 ** 27


def curve_workers(count: int, grid: GridSpec, N: int) -> int:
    """Processes a threshold curve of `count` points on `grid` runs in:
    one per CPU (output.writer_cpus) and point, but none with under
    CURVE_WORK cell-sites, where the BLAS can be pinned to one thread
    (output.openblas); else 1.  Each process builds a kernel of its
    own, so its estimate for one process (kernel_footprint, no grid^2
    map), taken once per worker, stays within MEMORY_CAP."""
    share = MEMORY_CAP // kernel_footprint(N, grid)
    if openblas() is None:
        return 1
    return max(1, min(writer_cpus(), count, share,
                      count * grid.count ** 2 * N // CURVE_WORK))


class Curve(list):
    """threshold_curve's (point, B_c) pairs, with how they were computed:
    in `workers` processes, each product on `blas_threads` OpenBLAS
    threads (None where the BLAS could not be pinned)."""

    def __init__(self, pairs, workers: int, blas_threads: int | None):
        super().__init__(pairs)
        self.workers, self.blas_threads = workers, blas_threads


def threshold_curve(kind: QuenchKind, gamma: float, points,
                    grid: GridSpec | None = None, N: int = 512,
                    boundary: str | None = None,
                    cross_lines: str | None = None) -> Curve:
    """Threshold B_c at each point: fall-off rates for field quenches,
    fields inside the coupling window for coupling quenches, as a Curve
    of (point, B_c) pairs.

    grid, boundary and cross_lines default to KIND_DEFAULTS[kind], the
    benchmark-threshold construction; pass cross_lines="model" for the
    fall-off-dependent topology of a field curve.

    The points run in contiguous ranges, one per curve_workers: this
    process computes the first while forked children (output.forked)
    compute the others, each on a kernel of its own, and send their
    B_c back as float64 bytes in point order.  Every product runs on
    one OpenBLAS thread (output.one_blas_thread), forked or not, so
    a point's bits depend on neither the other points, the worker count
    nor OPENBLAS_NUM_THREADS.  Every refusal (policy, coupling window,
    footprint, a point without cross-phase cells) comes before the
    first fork.
    """
    grid = KIND_DEFAULTS[kind].grid if grid is None else grid
    boundary, cross_lines = check_policy(kind, boundary, cross_lines)
    base, held = ModelParams(N=N, gamma=gamma, alpha=1.0, h=0.0), HELD[kind]
    params = [base.replace(**{held: float(q)}) for q in points]
    if not params:
        raise ValueError("points must be nonempty")
    for fixed in params:
        same_phase_area(kind, getattr(fixed, held))  # coupling window
    workers = curve_workers(len(params), grid, N)
    qs = grid.values()

    def cross(k):  # built when point k's turn comes, never held for all
        return _cross_blocks(kind, params[k], qs, boundary, cross_lines)

    for k in range(len(params)):  # a point without cross cells, before any fork
        cross(k)
    with one_blas_thread() as blas_threads:
        phis, axis = _axes(kind, qs, params)  # one point's axis at a time

        def part(lo, hi):
            kernel = SteadyKernel(N, phis, qs.size)
            yield np.array([_cross_max(kernel, axis(k), *cross(k))
                            for k in range(lo, hi)]).tobytes()

        with forked(len(params), workers, part, "a curve worker process") as chunks:
            values = np.frombuffer(b"".join(chunks))
    return Curve([(getattr(fixed, held), float(b_c))
                  for fixed, b_c in zip(params, values)], workers, blas_threads)


def steady_cell(kind: QuenchKind, fixed: ModelParams, q_i: float, q_f: float):
    """The quench q_i -> q_f at fixed parameters: one cell of a quench
    grid, for scalar cross-checks of the engine."""
    return make_quench(kind, fixed, q_i, q_f)
