"""Scalar phase classification of single values and quench pairs.

An independent reference for model.phase_codes and the cross-phase
blocks of the sweeps: one value or one quench at a time, written from
the closed-form critical lines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from bellquench.model import BOUNDARY_TOL, ModelParams, QuenchKind, QuenchSpec


class PhaseLabel(enum.Enum):
    """Classification of a single parameter value or of a quench pair."""

    SAME = "same"
    CROSS = "cross"
    BOUNDARY = "boundary"


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
