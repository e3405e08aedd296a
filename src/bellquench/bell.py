"""Bell-CHSH value, two-qubit state reconstruction and entanglement.

The maximal CHSH expectation of a two-qubit state is 2*sqrt(l1 + l2)
with l1 >= l2 the two largest eigenvalues of M = T^T T, where T is the
3x3 correlation matrix.  For the X-shaped states produced by this
model T block-diagonalizes into an xy 2x2 block and the scalar C_zz,
so M has eigenvalues {lambda_plus, lambda_minus, C_zz**2} in closed
form and

    B = 2*sqrt(max(lambda_plus + lambda_minus,
                   lambda_plus + C_zz**2)).

This remains the Horodecki maximum even when C_zz**2 exceeds
lambda_plus, since the two largest eigenvalues are then C_zz**2 and
lambda_plus; the generic-eigensolver cross-check in the tests covers
all orderings.  chsh_arrays evaluates B elementwise over arrays.  It
is the one Bell kernel: bell_value, the evolve time series and the
steady maps call it, threshold curves its body _chsh_terms, which stops
at (B/2)**2, so that a maximum takes one square root.

The pair state is an X-state with equal local magnetizations:
diagonal r00, r33 = (1 +- 2 m_z + C_zz)/4, r11 = r22 = (1 - C_zz)/4,
coherences |rho_03| = |C_xx - C_yy - 2i C_xy|/4 and |rho_12| =
|C_xx + C_yy|/4 (C_yx = C_xy).  Its eigenvalues are (r00 + r33)/2 +-
sqrt(((r00 - r33)/2)^2 + |rho_03|^2) and r11 +- |rho_12|.  The partial
transpose swaps the two coherences, and xstate_log_negativity (for
evolve and the sweep maps) is log2 of the sum of the absolute values
of its eigenvalues.  A state eigenvalue below -PSD_TOL means a bug
upstream and raises InconsistentCorrelatorsError in both forms.
reconstruct_rho12 and log_negativity work on the 4 x 4 matrix; they
are the reference the tests compare with.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CorrelatorSet
from .errors import InconsistentCorrelatorsError

# Most negative eigenvalue a reconstructed pair state may have.
PSD_TOL = 1e-6


def chsh_arrays(cxx, cyy, czz, cxy, cyx):
    """Closed-form CHSH value B, elementwise: 2 sqrt of the radicand
    (B/2)**2 of _chsh_terms."""
    out = [np.empty(np.broadcast(cxx, cyy, czz, cxy, cyx).shape) for _ in range(4)]
    return 2.0 * np.sqrt(_chsh_terms(cxx, cyy, czz, cxy, cyx, out)[3])


def _chsh_terms(cxx, cyy, czz, cxy, cyx, out):
    """(lambda_plus, lambda_minus, C_zz**2, (B/2)**2), elementwise, in
    the four arrays of `out`.

    lambda_pm = (s +- root) / 2, s the squared norm of the xy block.
    root**2 = s**2 - 4 det**2 is taken as a product of two sums of
    squares: the difference cancels when lambda_plus ~ lambda_minus and
    can put B 3e-11 off there.  Squares are x * x (np.square), not
    x ** 2: float ** 2 calls libm pow, which may round otherwise, and
    floats and arrays must give the same bits.  Scalar 0 C_xy and C_yx
    (steady states) add no squares: each would add +0.0 to a value >= +0.
    """
    lam_plus, s, czz_sq, root = out
    # plus**2 (+ skew**2) in root, minus**2 (+ sym**2) in czz_sq
    np.add(np.square(cxx, out=s), np.square(cyy, out=lam_plus), out=s)
    np.square(np.add(cxx, cyy, out=root), out=root)
    np.square(np.subtract(cxx, cyy, out=czz_sq), out=czz_sq)
    if np.ndim(cxy) or np.ndim(cyx) or cxy or cyx:
        s += np.square(cxy, out=lam_plus)
        s += np.square(cyx, out=lam_plus)
        root += np.square(np.subtract(cxy, cyx, out=lam_plus), out=lam_plus)
        czz_sq += np.square(np.add(cxy, cyx, out=lam_plus), out=lam_plus)
    np.sqrt(np.multiply(root, czz_sq, out=root), out=root)
    np.multiply(np.add(s, root, out=lam_plus), 0.5, out=lam_plus)
    np.multiply(np.subtract(s, root, out=s), 0.5, out=s)
    lam_minus = np.maximum(s, 0.0, out=s)
    np.maximum(lam_minus, np.square(czz, out=czz_sq), out=root)
    return lam_plus, lam_minus, czz_sq, np.add(lam_plus, root, out=root)


def bell_value(c: CorrelatorSet) -> float:
    """CHSH value of one correlator set: chsh_arrays on scalars."""
    return float(chsh_arrays(c.cxx, c.cyy, c.czz, c.cxy, c.cyx))


def reconstruct_rho12(c: CorrelatorSet) -> np.ndarray:
    """Two-qubit X-state from the magnetization and correlators.

    Both local magnetizations equal m_z by translation invariance.
    Raises InconsistentCorrelatorsError if the result is not positive
    semidefinite (within -PSD_TOL), which signals an upstream bug
    rather than a physical state.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 + 2.0 * c.mz + c.czz
    rho[1, 1] = 1.0 - c.czz
    rho[2, 2] = 1.0 - c.czz
    rho[3, 3] = 1.0 - 2.0 * c.mz + c.czz
    rho[0, 3] = c.cxx - c.cyy - 1j * (c.cxy + c.cyx)
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = c.cxx + c.cyy + 1j * (c.cxy - c.cyx)
    rho[2, 1] = np.conj(rho[1, 2])
    rho *= 0.25
    if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
        raise InconsistentCorrelatorsError(
            "correlators give a non-positive two-qubit state")
    return rho


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit of a 4x4 state."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def log_negativity(rho: np.ndarray) -> float:
    """log2 of the trace norm of the partial transpose; 0 for PPT states."""
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    return float(np.log2(np.sum(np.abs(eigs))))


def xstate_log_negativity(mz, cxx, cyy, czz, cxy):
    """Log-negativity of the pair X-state, elementwise over arrays.

    Closed form of log_negativity(reconstruct_rho12(c)) with
    C_yx = C_xy; raises InconsistentCorrelatorsError where the state
    has an eigenvalue below -PSD_TOL.
    """
    r00 = (1.0 + 2.0 * mz + czz) / 4.0
    r33 = (1.0 - 2.0 * mz + czz) / 4.0
    half_sum = (r00 + r33) / 2.0
    half_diff_sq = (r00 - r33) / 2.0
    half_diff_sq *= half_diff_sq
    r11 = (1.0 - czz) / 4.0
    rho_12 = (cxx + cyy) / 4.0
    rho_03 = np.hypot(cxx - cyy, 2.0 * cxy) / 4.0
    lowest = np.minimum(half_sum - np.sqrt(half_diff_sq + rho_03 * rho_03),
                        r11 - np.abs(rho_12))
    if np.min(lowest) < -PSD_TOL:
        raise InconsistentCorrelatorsError(
            "correlators give a non-positive two-qubit state")
    rad = np.sqrt(half_diff_sq + rho_12 * rho_12)
    trace_norm = (np.abs(half_sum + rad) + np.abs(half_sum - rad)
                  + np.abs(r11 + rho_03) + np.abs(r11 - rho_03))
    return np.log2(trace_norm)
