"""The steady readout written out as it stood before it ran in place.

Every step allocates a fresh array, the degenerate-block selects run on
every chunk, the zero C_xy and n_x terms are added, and the Bell value
is taken cell by cell before the maximum.  The kernel, the threshold
path and the Bell kernel must give these bits exactly.
"""

from __future__ import annotations

import numpy as np

from bellquench.dynamics import ROW_CHUNK
from bellquench.momentum import STEADY_DEGENERACY_TOL, ground_bloch


def correlators(phis, sums, N):
    """(mz, cxx, cyy, czz, cxy) of the mode sums."""
    s_z, m_cos, m_sin, m_x = sums
    two_n = 2.0 / N
    mz = two_n * s_z
    sum_cos = float(np.sum(np.cos(phis)))
    cxx = two_n * (sum_cos - m_cos - m_sin)
    cyy = two_n * (sum_cos - m_cos + m_sin)
    cxy = two_n * m_x
    g1 = (sum_cos - m_cos) / N
    f_re = m_sin / N
    f_im = -m_x / N
    czz = mz * mz + 4.0 * (f_re * f_re + f_im * f_im - g1 * g1)
    return mz, cxx, cyy, czz, cxy


def bell(cxx, cyy, czz, cxy, cyx):
    """The CHSH value B."""
    s = cxx * cxx + cyy * cyy + cxy * cxy + cyx * cyx
    plus, minus = cxx + cyy, cxx - cyy
    skew, sym = cxy - cyx, cxy + cyx
    root = np.sqrt((plus * plus + skew * skew) * (minus * minus + sym * sym))
    lam_plus = 0.5 * (s + root)
    lam_minus = np.maximum(0.5 * (s - root), 0.0)
    return 2.0 * np.sqrt(lam_plus + np.maximum(lam_minus, czz * czz))


def steady_chunks(N, phis, b, u, blocks, order=None):
    """(rows, mz, cxx, cyy, czz) per chunk, in the chunks and the
    product shapes of dynamics.SteadyKernel.maps."""
    take = np.arange(b.shape[0]) if order is None else order
    b, u = b[take], u[take]
    lam, gy, gz = ground_bloch(u, b)
    degen = lam < STEADY_DEGENERACY_TOL
    safe2 = np.where(degen, 1.0, lam * lam)
    ayy = np.where(degen, 1.0, b * b / safe2)
    ayz = np.where(degen, 0.0, u * b / safe2)
    azz = np.where(degen, 1.0, u * u / safe2)
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    final = np.stack([ayz, azz, cos_p * ayz, cos_p * azz, sin_p * ayy,
                      sin_p * ayz])
    for rows, cols in blocks:
        f = [x.T for x in final[:, cols]]
        start, stop, _ = rows.indices(b.shape[0])
        for lo in range(start, stop, ROW_CHUNK):
            part = slice(lo, min(lo + ROW_CHUNK, stop))
            g_y, g_z = gy[part], gz[part]
            sums = (g_y @ f[0] + g_z @ f[1], g_y @ f[2] + g_z @ f[3],
                    g_y @ f[4] + g_z @ f[5], 0.0)
            yield (part, *correlators(phis, sums, N)[:4])
