"""Model parameters, coupling profile and exact phase geometry.

The chain couples spins at distances r = 1 .. N/2 with strength
J / (kac * r**alpha), where the Kac factor keeps the total coupling per
site at J for every fall-off rate.  The equilibrium phase boundaries in
the (alpha, h) plane are known in closed form and everything downstream
(phase masks, same-phase areas, detection efficiencies) derives from
them, so they live here as exact expressions.  phase_codes is the one
classifier of quench-grid values; the sweep masks and the cross-phase
cells of every threshold are built from it.  QUENCHED names the
parameter each quench kind changes; QuenchSpec, make_quench and the
quench axis of the dynamics engine read it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

# Coordinates closer than this to a critical line count as on-boundary.
BOUNDARY_TOL = 1e-12

# Open window of fields for which the coupling-quench boundary
# alpha_c(h) falls inside the swept interval [0.5, 3.0].
COUPLING_H_MIN = 2.0 ** (-2.0) - 1.0          # -0.75
COUPLING_H_MAX = 2.0 ** 0.5 - 1.0             # 0.41421...


class QuenchKind(enum.Enum):
    FIELD = "field"
    COUPLING = "coupling"


# The ModelParams field a quench of each kind changes: a grid value q.
QUENCHED = {QuenchKind.FIELD: "h", QuenchKind.COUPLING: "alpha"}


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the long-range anisotropic chain.

    Attributes
    ----------
    N : int
        Number of spins; must be even and at least 4.
    J : float
        Overall coupling strength, > 0.  Fields are measured in units
        of J, so J = 1 is the standard choice.
    gamma : float
        Anisotropy in [0, 1]; gamma = 1 is the Ising limit.
    alpha : float
        Power-law fall-off rate of the couplings, > 0.
    h : float
        Dimensionless transverse field.

    Every float must be finite; ValueError otherwise.
    """

    N: int
    gamma: float
    alpha: float
    h: float
    J: float = 1.0

    def __post_init__(self):
        for name in ("J", "gamma", "alpha", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.N % 2 != 0 or self.N < 4:
            raise ValueError(f"N must be even and >= 4, got {self.N}")
        if self.J <= 0:
            raise ValueError(f"J must be positive, got {self.J}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class QuenchSpec:
    """A sudden quench: ground state of `initial`, evolution under `final`."""

    kind: QuenchKind
    initial: ModelParams
    final: ModelParams

    def __post_init__(self):
        name = QUENCHED[self.kind]
        if self.initial.replace(**{name: getattr(self.final, name)}) != self.final:
            raise ValueError(f"{self.kind.value} quench must change only {name}")


def make_quench(kind: QuenchKind, base: ModelParams, q_i: float,
                q_f: float) -> QuenchSpec:
    """The quench q_i -> q_f of the kind's parameter, the rest from base."""
    name = QUENCHED[kind]
    return QuenchSpec(kind, base.replace(**{name: q_i}), base.replace(**{name: q_f}))


def field_quench(base: ModelParams, h_initial: float, h_final: float) -> QuenchSpec:
    return make_quench(QuenchKind.FIELD, base, h_initial, h_final)


def kac_factor(alpha: float, N: int) -> float:
    """Normalization sum_{r=1}^{N/2} r**(-alpha); keeps energy extensive."""
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    r = np.arange(1, N // 2 + 1, dtype=float)
    return float(np.sum(r ** (-alpha)))


def coupling_profile(params: ModelParams) -> np.ndarray:
    """Couplings J_r = J / (kac * r**alpha) for r = 1 .. N/2."""
    r = np.arange(1, params.N // 2 + 1, dtype=float)
    return params.J * r ** (-params.alpha) / kac_factor(params.alpha, params.N)


def check_lines(kind: QuenchKind, lines: str) -> None:
    """ValueError unless `lines` names critical lines of the quench kind.

    "model" (both kinds) is the fall-off-dependent topology; "nn_limit"
    (field quenches only) is the short-range limit h = -1, h = 1.
    """
    if lines not in ("model", "nn_limit"):
        raise ValueError(f"unknown cross_lines policy {lines!r}")
    if lines == "nn_limit" and kind is not QuenchKind.FIELD:
        raise ValueError("nn_limit lines apply to field diagrams only")


def phase_codes(kind: QuenchKind, fixed: ModelParams, qs: np.ndarray,
                lines: str = "model"):
    """Phase index (0/1) and on-line flag of each grid value, vectorized.

    Field quenches (qs are fields at fixed.alpha): 0 between the lines
    h_c = -1 + 2**(1 - alpha) ("model", or -1 for "nn_limit") and 1,
    else 1; the two disordered lobes are one phase.  Coupling quenches
    (qs are fall-off rates at fixed.h): 0 below alpha_c = 1 - log2(1 + h),
    else 1; for h <= -1 there is no line and every value is 0.  A value
    within BOUNDARY_TOL of a line is flagged as on it.
    """
    check_lines(kind, lines)
    if kind is QuenchKind.FIELD:
        lower = -1.0 + 2.0 ** (1.0 - fixed.alpha) if lines == "model" else -1.0
        on_line = ((np.abs(qs - lower) <= BOUNDARY_TOL)
                   | (np.abs(qs - 1.0) <= BOUNDARY_TOL))
        return np.where((qs > lower) & (qs < 1.0), 0, 1), on_line
    if fixed.h <= -1.0:
        return np.zeros(qs.size, dtype=int), np.zeros(qs.size, dtype=bool)
    alpha_c = 1.0 - np.log2(1.0 + fixed.h)
    return np.where(qs < alpha_c, 0, 1), np.abs(qs - alpha_c) <= BOUNDARY_TOL


def same_phase_area(kind: QuenchKind, fixed: float) -> float:
    """Analytic area of the same-phase region of the quench plane.

    For field quenches over [-3, 3]^2 at fall-off rate `fixed` = alpha:
    20 + 2**(3-alpha) + 2**(3-2*alpha).  For coupling quenches over
    [0.5, 3.0]^2 at field `fixed` = h: 4.25 + 3*x + 2*x**2 with
    x = log2(1+h), valid only while alpha_c(h) stays inside the window.
    """
    if kind is QuenchKind.FIELD:
        alpha = fixed
        return 20.0 + 2.0 ** (3.0 - alpha) + 2.0 ** (3.0 - 2.0 * alpha)
    h = fixed
    if not COUPLING_H_MIN < h < COUPLING_H_MAX:
        raise ValueError(
            f"h={h} outside ({COUPLING_H_MIN}, {COUPLING_H_MAX:.6f}); "
            "the coupling boundary never enters the alpha window")
    x = math.log2(1.0 + h)
    return 4.25 + 3.0 * x + 2.0 * x * x
