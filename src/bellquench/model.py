"""Model parameters, coupling profile and exact phase geometry.

The chain couples spins at distances r = 1 .. N/2 with strength
J / (kac * r**alpha), where the Kac factor keeps the total coupling per
site at J for every fall-off rate.  The equilibrium phase boundaries in
the (alpha, h) plane are known in closed form and everything downstream
(phase masks, same-phase areas, detection efficiencies) derives from
them, so they live here as exact expressions.
"""

from __future__ import annotations

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


class PhaseLabel(enum.Enum):
    """Classification of a single parameter value or of a quench pair."""

    SAME = "same"
    CROSS = "cross"
    BOUNDARY = "boundary"


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
        fields = {"N": self.N, "gamma": self.gamma, "alpha": self.alpha,
                  "h": self.h, "J": self.J}
        fields.update(kwargs)
        return ModelParams(**fields)


@dataclass(frozen=True)
class QuenchSpec:
    """A sudden quench: ground state of `initial`, evolution under `final`."""

    kind: QuenchKind
    initial: ModelParams
    final: ModelParams

    def __post_init__(self):
        a, b = self.initial, self.final
        common = (a.N == b.N and a.J == b.J and a.gamma == b.gamma)
        if self.kind is QuenchKind.FIELD:
            if not (common and a.alpha == b.alpha):
                raise ValueError("field quench must change only h")
        else:
            if not (common and a.h == b.h):
                raise ValueError("coupling quench must change only alpha")


def field_quench(base: ModelParams, h_initial: float, h_final: float) -> QuenchSpec:
    return QuenchSpec(QuenchKind.FIELD,
                      base.replace(h=h_initial), base.replace(h=h_final))


def coupling_quench(base: ModelParams, alpha_initial: float,
                    alpha_final: float) -> QuenchSpec:
    return QuenchSpec(QuenchKind.COUPLING,
                      base.replace(alpha=alpha_initial),
                      base.replace(alpha=alpha_final))


@dataclass(frozen=True)
class PhaseGeometry:
    """Critical lines of the model at fixed alpha and h.

    h_c = -1 + 2**(1 - alpha) and h_c2 = 1 bound the ordered phase in
    the field direction; alpha_c = 1 - log2(1 + h) is the image of the
    h_c line in the coupling direction (absent for h <= -1).
    """

    h_c: float
    h_c2: float
    alpha_c: float | None


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


def phase_geometry(params: ModelParams) -> PhaseGeometry:
    """Exact critical points for the given parameters."""
    h_c = -1.0 + 2.0 ** (1.0 - params.alpha)
    alpha_c = 1.0 - math.log2(1.0 + params.h) if params.h > -1.0 else None
    return PhaseGeometry(h_c=h_c, h_c2=1.0, alpha_c=alpha_c)


def classify_field_value(h: float, alpha: float) -> PhaseLabel | int:
    """Phase of a single field value: 0 = ordered, 1 = disordered.

    Returns PhaseLabel.BOUNDARY when h sits on a critical line to
    within BOUNDARY_TOL.  The two disordered lobes h < h_c and h > 1
    belong to one phase.
    """
    h_c = -1.0 + 2.0 ** (1.0 - alpha)
    if abs(h - h_c) <= BOUNDARY_TOL or abs(h - 1.0) <= BOUNDARY_TOL:
        return PhaseLabel.BOUNDARY
    return 0 if h_c < h < 1.0 else 1


def classify_coupling_value(alpha: float, h: float) -> PhaseLabel | int:
    """Phase of a single fall-off rate at fixed field (0/1 or BOUNDARY)."""
    if h <= -1.0:
        return 0
    alpha_c = 1.0 - math.log2(1.0 + h)
    if abs(alpha - alpha_c) <= BOUNDARY_TOL:
        return PhaseLabel.BOUNDARY
    return 0 if alpha < alpha_c else 1


def classify_pair(quench: QuenchSpec) -> PhaseLabel:
    """SAME / CROSS / BOUNDARY classification of a quench pair."""
    if quench.kind is QuenchKind.FIELD:
        pi = classify_field_value(quench.initial.h, quench.initial.alpha)
        pf = classify_field_value(quench.final.h, quench.final.alpha)
    else:
        pi = classify_coupling_value(quench.initial.alpha, quench.initial.h)
        pf = classify_coupling_value(quench.final.alpha, quench.final.h)
    if PhaseLabel.BOUNDARY in (pi, pf):
        return PhaseLabel.BOUNDARY
    return PhaseLabel.SAME if pi == pf else PhaseLabel.CROSS


def same_phase(quench: QuenchSpec, on_boundary: str = "raise") -> bool:
    """True when initial and final parameters share an equilibrium phase.

    Exactly-critical inputs are ambiguous; `on_boundary` selects the
    behaviour: "raise" (default) raises ValueError, "cross" counts them
    as cross-phase (the conservative convention used by the sweeps).
    """
    label = classify_pair(quench)
    if label is PhaseLabel.BOUNDARY:
        if on_boundary == "cross":
            return False
        raise ValueError("quench endpoint lies on a critical line")
    return label is PhaseLabel.SAME


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
