"""Scalar steady-state correlators of one quench, mode by mode.

An independent reference for the steady kernel dynamics.SteadyKernel
(and so for dynamics.steady_correlators, one cell of it): each mode's
Bloch vector is projected on its final field axis one quench at a
time, with the initial and final dispersions computed apart, and the
mode sums are taken with np.sum instead of matrix products.
"""

from __future__ import annotations

import numpy as np

from bellquench.dynamics import STEADY, CorrelatorSet, _correlators_from_sums
from bellquench.model import QuenchSpec
from bellquench.momentum import (STEADY_DEGENERACY_TOL, dispersion,
                                 ground_bloch, mode_angles)


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


def steady_correlators(quench: QuenchSpec) -> CorrelatorSet:
    """Dephased (diagonal-ensemble) correlators; the t -> infinity limit."""
    phis, gy, gz, b_f, u_f = _quench_blocks(quench)
    ny, nz, _ = _steady_bloch(gy, gz, b_f, u_f)
    sums = np.array([[np.sum(nz)], [np.sum(np.cos(phis) * nz)],
                     [np.sum(np.sin(phis) * ny)], [0.0]])
    mz, cxx, cyy, czz, cxy = (float(v[0]) for v in _correlators_from_sums(
        np.cos(phis).sum(), sums, quench.initial.N, np.empty((2, 1))))
    return CorrelatorSet(mz=mz, cxx=cxx, cyy=cyy, czz=czz, cxy=cxy, cyx=cxy,
                         t=STEADY)
