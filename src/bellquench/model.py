"""Model parameters, coupling profile and exact phase geometry.

The chain couples spins at distances r = 1 .. N/2 with strength
1 / (kac * r**alpha), where the Kac factor keeps the total coupling per
site at 1 for every fall-off rate: energies, fields and times are in
units of that Kac-normalized coupling.  The phase boundaries in the
(alpha, h) plane are known in closed form, and every phase mask, cross
set, same-phase area and efficiency derives from them through WINDOW and
phase_interval, the one place they are spelled.  QUENCHED names the
parameter each quench kind changes; QuenchSpec, make_quench and the
quench axis of the dynamics engine read it.  HELD names the one it
holds fixed, the one a threshold curve steps through.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

# Coordinates closer than this to a critical line count as on-boundary.
BOUNDARY_TOL = 1e-12


class QuenchKind(enum.Enum):
    FIELD = "field"
    COUPLING = "coupling"


# The ModelParams field a quench of each kind changes: a grid value q.
QUENCHED = {QuenchKind.FIELD: "h", QuenchKind.COUPLING: "alpha"}
HELD = {QuenchKind.FIELD: "alpha", QuenchKind.COUPLING: "h"}

# The quench window of each kind, (q_min, q_max): the span of its default
# grid and the square same_phase_area integrates over.
WINDOW = {QuenchKind.FIELD: (-3.0, 3.0), QuenchKind.COUPLING: (0.5, 3.0)}


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the long-range anisotropic chain.

    Attributes
    ----------
    N : int
        Number of spins; must be even and at least 4.
    gamma : float
        Anisotropy in [0, 1]; gamma = 1 is the Ising limit.
    alpha : float
        Power-law fall-off rate of the couplings, > 0.
    h : float
        Transverse field, in units of the Kac-normalized coupling.

    Every float must be finite; ValueError otherwise.
    """

    N: int
    gamma: float
    alpha: float
    h: float

    def __post_init__(self):
        for name in ("gamma", "alpha", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.N % 2 != 0 or self.N < 4:
            raise ValueError(f"N must be even and >= 4, got {self.N}")
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
    """Couplings J_r = 1 / (kac * r**alpha) for r = 1 .. N/2; they sum to 1."""
    r = np.arange(1, params.N // 2 + 1, dtype=float)
    return r ** (-params.alpha) / kac_factor(params.alpha, params.N)


def check_lines(kind: QuenchKind, lines: str) -> None:
    """ValueError unless `lines` names critical lines of the quench kind.

    "model" (both kinds) is the fall-off-dependent topology; "nn_limit"
    (field quenches only) is the short-range limit h = -1, h = 1.
    """
    if lines not in ("model", "nn_limit"):
        raise ValueError(f"unknown cross_lines policy {lines!r}")
    if lines == "nn_limit" and kind is not QuenchKind.FIELD:
        raise ValueError("nn_limit lines apply to field diagrams only")


def phase_interval(kind: QuenchKind, held: float, lines: str = "model"):
    """(lo, hi), the open interval of phase 0 on the kind's quench axis at
    the value `held` of its HELD parameter, under a line policy.

    Field (held = alpha): h_c = -1 + 2**(1 - alpha) ("model", or -1 for
    "nn_limit") to 1; the two disordered lobes outside are one phase.
    Coupling (held = h): below alpha_c = 1 - log2(1 + h), where h_c is h;
    the whole axis for h <= -1, which has no line.
    """
    check_lines(kind, lines)
    if kind is QuenchKind.FIELD:
        return (-1.0 + 2.0 ** (1.0 - held) if lines == "model" else -1.0), 1.0
    return -math.inf, (math.inf if held <= -1.0 else 1.0 - np.log2(1.0 + held))


# The open range of held values whose line crosses the window: any finite
# alpha; for coupling, the fields between the field lines at the window's ends.
HELD_WINDOW = {QuenchKind.FIELD: (-math.inf, math.inf),
               QuenchKind.COUPLING: tuple(phase_interval(QuenchKind.FIELD, a)[0]
                                          for a in WINDOW[QuenchKind.COUPLING][::-1])}


def phase_codes(kind: QuenchKind, fixed: ModelParams, qs: np.ndarray,
                lines: str = "model"):
    """Phase index (0/1) and on-line flag of each grid value, vectorized.

    A value is 0 inside phase_interval at the fixed parameters, else 1,
    and flagged as on a line within BOUNDARY_TOL of either end.
    """
    lo, hi = phase_interval(kind, getattr(fixed, HELD[kind]), lines)
    on_line = (np.abs(qs - lo) <= BOUNDARY_TOL) | (np.abs(qs - hi) <= BOUNDARY_TOL)
    return np.where((qs > lo) & (qs < hi), 0, 1), on_line


def same_phase_area(kind: QuenchKind, held: float) -> float:
    """Area of the same-phase region of the kind's window squared,
    L0**2 + (W - L0)**2 with W the window's width and L0 its part inside
    phase_interval, taken as 2 ((W/2)**2 + (L0 - W/2)**2), which rounds
    one square.  ValueError for a held value outside HELD_WINDOW."""
    low, high = HELD_WINDOW[kind]
    if not low < held < high:
        raise ValueError(
            f"{HELD[kind]}={held} outside ({low}, {high:.6f}); "
            f"the {kind.value} boundary never enters the {QUENCHED[kind]} window")
    q_min, q_max = WINDOW[kind]
    lo, hi = phase_interval(kind, held)
    half = (q_max - q_min) / 2.0
    off = min(hi, q_max) - max(lo, q_min) - half
    return float(2.0 * (half * half + off * off))
