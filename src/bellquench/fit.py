"""Nonlinear least-squares fits of the threshold curves.

Two fit families: a single Gaussian-in-alpha with offset,
A*exp(-B*alpha**2) + C, for field-quench thresholds, and a sum of
three Gaussians in h with signed amplitudes (a negative component
models a dip) and widths no smaller than the data spacing, for
coupling-quench thresholds.  Both use
derivative-free Nelder-Mead with deterministic multi-starts (data-
driven seeds plus seeded jitter); the best start wins, ties broken by
start index.  `minimize` is a NumPy port of SciPy's Nelder-Mead that
reproduces its iterates bit for bit, so the fits need only numpy.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import FitFailedError

N_STARTS = 5
MAX_FEV = 100_000
_PENALTY = 1e30


@dataclass(frozen=True)
class GaussianFit:
    """Parameters of y = A*exp(-B*x**2) + C."""

    A: float
    B: float
    C: float
    r_squared: float


@dataclass(frozen=True)
class GaussComponent:
    amplitude: float
    center: float
    width: float


@dataclass(frozen=True)
class TriGaussianFit:
    """Sum of three signed Gaussians, components sorted by center."""

    components: tuple[GaussComponent, GaussComponent, GaussComponent]
    r_squared: float
    low_confidence: bool = False


class _MaxFev(Exception):
    """The next objective evaluation would exceed maxfev."""


def _sorted(sim, fsim):
    ind = np.argsort(fsim)
    return sim[ind], fsim[ind]


def minimize(fun, x0, *, maxfev, xatol, fatol):
    """Unbounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965)).

    Takes the steps of SciPy's non-adaptive `_minimize_neldermead`, so
    x, fun and nfev have the same bits: x0 scaled by 1.05 per axis
    (0.00025 where it is 0) as the initial simplex; rho = 1, chi = 2,
    psi = sigma = 1/2, folded into the coefficients below; an argsort
    after every iteration; its convergence test; fun the nan-propagating
    minimum of the simplex values; and at maxfev the next evaluation is
    refused, even inside an iteration, and the simplex re-sorted as is.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(x.copy())

    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, 1.05 * x0, 0.00025))
    fsim = np.full(n + 1, np.inf)
    with suppress(_MaxFev):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    # sorted twice, as SciPy does: argsort need not be stable under ties
    sim, fsim = _sorted(*_sorted(sim, fsim))
    while nfev < maxfev:
        with suppress(_MaxFev):
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = (1.5 * xbar - 0.5 * sim[-1] if outside
                      else 0.5 * xbar + 0.5 * sim[-1])
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        sim, fsim = _sorted(sim, fsim)
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), nfev=nfev)


def _r_squared(y, residual_ss):
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if residual_ss < 1e-30 else 0.0
    return 1.0 - residual_ss / ss_tot


def _polish(objective, starts):
    """Run Nelder-Mead from every start; return (params, ss) of the best.

    Deterministic: starts are evaluated in order and a strictly lower
    objective is required to displace the incumbent.
    """
    best = None
    for x0 in starts:
        # a module global, looked up per call: a wrapper set on
        # bellquench.fit.minimize is the one called
        res = minimize(objective, x0, maxfev=MAX_FEV, xatol=1e-12,
                       fatol=1e-14)
        if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
            continue
        if best is None or res.fun < best[1]:
            best = (res.x, float(res.fun))
    if best is None or best[1] >= _PENALTY:
        raise FitFailedError("no start converged")
    return best


def _curve(points, minimum):
    """x, y sorted by x; a short, non-finite or repeated-x curve is
    refused here, before any start spends its evaluations."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[0] < minimum:
        raise ValueError(f"need at least {minimum} (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("curve points must be finite")
    pts = pts[np.argsort(pts[:, 0])]
    x, y = pts[:, 0], pts[:, 1]
    if (x[1:] == x[:-1]).any():  # sorted; np.unique would load numpy.ma
        raise ValueError("x values must be distinct")
    return x, y


def fit_gaussian(points, seed: int = 0) -> GaussianFit:
    """Least-squares A*exp(-B*x**2) + C through (x, y) points."""
    x, y = _curve(points, 4)

    def objective(p):
        a, b, c = p
        if b <= 0:
            return _PENALTY * (1.0 + abs(b))
        return float(((a * np.exp(-b * x * x) + c - y) ** 2).sum())

    # data-driven seeds: offset from the tail, amplitude from the head,
    # width from the half-decay point
    c0 = float(y[-1])
    a0 = float(y[0] - c0)
    b0 = 0.1
    if abs(a0) > 1e-12:
        decayed = np.nonzero(np.abs(y - c0) <= abs(a0) / 2.0)[0]
        if decayed.size and x[decayed[0]] > 0:
            b0 = float(np.log(2.0) / x[decayed[0]] ** 2)
    rng = np.random.default_rng(seed)
    starts = [np.array([a0, b0, c0]),
              np.array([a0, 5.0 * b0, c0]),
              np.array([a0, 0.2 * b0, c0])]
    while len(starts) < N_STARTS:
        jitter = rng.uniform(0.5, 1.5, size=3)
        starts.append(np.array([a0 * jitter[0], b0 * jitter[1],
                                c0 * (1.0 + 0.01 * (jitter[2] - 1.0))]))
    params, ss = _polish(objective, starts)
    return GaussianFit(A=float(params[0]), B=float(params[1]),
                       C=float(params[2]), r_squared=_r_squared(y, ss))


def _local_maxima(x, y):
    """Interior local maxima sorted by height (descending)."""
    idx = [i for i in range(1, len(y) - 1)
           if y[i] >= y[i - 1] and y[i] >= y[i + 1]
           and (y[i] > y[i - 1] or y[i] > y[i + 1])]
    idx.sort(key=lambda i: -y[i])
    # keep peaks separated by at least two samples
    kept = []
    for i in idx:
        if all(abs(i - j) > 2 for j in kept):
            kept.append(i)
    return kept


def fit_trigaussian(points, seed: int = 0) -> TriGaussianFit:
    """Least-squares sum of three Gaussians through (x, y) points.

    Amplitudes are signed, so a component can model a dip as well as
    a peak; centers are unconstrained.  Widths are bounded below by the
    smallest data spacing to rule out delta-spike fits.  Initial
    centers sit at the three largest resolvable local maxima; with
    fewer than three, centers fall back to equal spacing and the
    result is flagged low-confidence.
    """
    x, y = _curve(points, 10)
    sigma_min = float(np.min(np.diff(x)))
    span = float(x[-1] - x[0])

    def objective(p):
        amps, mus, sigmas = p[0:3], p[3:6], p[6:9]
        if np.any(sigmas < sigma_min):
            return _PENALTY
        model = np.zeros_like(y)
        for a, m, s in zip(amps, mus, sigmas):
            model = model + a * np.exp(-((x - m) ** 2) / (2.0 * s * s))
        return float(np.sum((model - y) ** 2))

    peaks = _local_maxima(x, y)[:3]
    low_confidence = len(peaks) < 3
    if low_confidence:
        centers = x[0] + span * np.array([0.25, 0.5, 0.75])
        amps = np.full(3, max(float(y.max()), 1e-6))
    else:
        centers = x[np.array(peaks)]
        amps = y[np.array(peaks)]
    base = np.concatenate([amps, centers,
                           np.full(3, max(span / 6.0, sigma_min * 2.0))])
    rng = np.random.default_rng(seed)
    starts = [base,
              np.concatenate([amps, centers,
                              np.full(3, max(span / 12.0, sigma_min * 1.5))]),
              np.concatenate([amps * 0.7, centers, np.full(3, span / 3.0)])]
    while len(starts) < N_STARTS:
        jitter = rng.uniform(0.8, 1.2, size=9)
        starts.append(base * jitter)
    params, ss = _polish(objective, starts)
    comps = sorted((GaussComponent(amplitude=float(params[k]),
                                   center=float(params[3 + k]),
                                   width=float(params[6 + k]))
                    for k in range(3)), key=lambda c: c.center)
    return TriGaussianFit(components=tuple(comps),
                          r_squared=_r_squared(y, ss),
                          low_confidence=low_confidence)
