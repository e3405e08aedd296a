"""Quench-grid sweeps, benchmarking thresholds and efficiencies.

A steady-state phase diagram evaluates the dephased correlators for
every (q_i, q_f) pair on a grid, through the steady kernel of
dynamics (_axes, _steady_maps).  sweep_all runs it over the whole
grid and builds the three quantifier maps and the phase mask; sweep
is one of its diagrams.

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
ones).

Every map and curve runs the steady kernel's products in the same
fixed shapes (dynamics.ROW_CHUNK), so repeated runs write identical
bytes at a given BLAS thread count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bell import xstate_log_negativity
from .dynamics import _axes, _steady_maps
from .errors import ThresholdUndefinedError
from .model import (ModelParams, QuenchKind, check_lines, make_quench,
                    phase_codes, same_phase_area)
from .momentum import check_footprint


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
          quantifier: Quantifier) -> PhaseDiagram:
    """Steady-state phase diagram of one quantifier over a quench grid."""
    return sweep_all(kind, fixed, grid)[quantifier]


def sweep_all(kind: QuenchKind, fixed: ModelParams,
              grid: GridSpec) -> dict[Quantifier, PhaseDiagram]:
    """All three quantifiers from one pass over the correlator maps."""
    check_footprint(fixed.N, grid.count, grid.count ** 2)
    qs = grid.values()
    (mz, cxx, cyy, czz), = _steady_maps(fixed.N, *_axes(kind, fixed, qs)(fixed))
    code, on = phase_codes(kind, fixed, qs)
    same = (code[:, None] == code[None, :]) & ~(on[:, None] | on[None, :])
    out = {}
    for quantifier, values in ((Quantifier.BELL, _bell_map(cxx, cyy, czz)),
                               (Quantifier.ENTANGLEMENT,
                                xstate_log_negativity(mz, cxx, cyy, czz, 0.0)),
                               (Quantifier.CZZ, czz)):
        out[quantifier] = PhaseDiagram(kind=kind, fixed=fixed, grid=grid,
                                       quantifier=quantifier, values=values,
                                       same_phase_mask=same)
    return out


def critical_threshold(diagram: PhaseDiagram, boundary: str = "cross",
                       cross_lines: str = "model") -> float:
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
    return float(np.max([np.max(diagram.values[rows][:, cols])
                         for rows, cols in blocks]))


def efficiency(diagram: PhaseDiagram, q_c: float, boundary: str = "cross",
               cross_lines: str = "model") -> ThresholdReport:
    """Fraction of the same-phase area certified by the threshold q_c.

    Detection is inclusive (value >= q_c); the denominator is the
    analytic same-phase area, not the discretized cell count.
    n_cross_cells counts the cross set of the policy (boundary,
    cross_lines), the cells critical_threshold takes its maximum over;
    like critical_threshold, raises ThresholdUndefinedError when that
    set is empty.
    """
    same = diagram.same_phase_mask
    detected = same & (diagram.values >= q_c)
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
                    boundary: str | None = None,
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
    check_footprint(N, grid.count, grid.count ** 2)
    qs = grid.values()
    axes = _axes(kind, base, qs)
    return [(getattr(fixed, defaults.fixed),
             _cross_max(kind, fixed, qs, axes(fixed), boundary, cross_lines))
            for fixed in params]


def steady_cell(kind: QuenchKind, fixed: ModelParams, q_i: float, q_f: float):
    """The quench q_i -> q_f at fixed parameters: one cell of a quench
    grid, for scalar cross-checks of the engine."""
    return make_quench(kind, fixed, q_i, q_f)
