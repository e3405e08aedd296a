import numpy as np
import pytest

from bellquench.fit import (GaussComponent, TriGaussianFit, fit_gaussian,
                            fit_trigaussian)


def gaussian_points(a, b, c, xs):
    return [(float(x), float(a * np.exp(-b * x * x) + c)) for x in xs]


def trigaussian_points(components, xs):
    ys = np.zeros(len(xs))
    for amp, mu, sigma in components:
        ys = ys + amp * np.exp(-((np.asarray(xs) - mu) ** 2) / (2 * sigma ** 2))
    return list(zip(map(float, xs), map(float, ys)))


class TestFitGaussian:
    def test_exact_recovery(self):
        points = gaussian_points(0.3, 0.05, 1.7, np.arange(0.5, 10.01, 0.25))
        fit = fit_gaussian(points)
        assert fit.A == pytest.approx(0.3, abs=1e-6)
        assert fit.B == pytest.approx(0.05, abs=1e-6)
        assert fit.C == pytest.approx(1.7, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_requires_points(self):
        with pytest.raises(ValueError):
            fit_gaussian(gaussian_points(1, 1, 0, [0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_gaussian([(0.0, 1.0), (0.0, 1.1), (1.0, 0.5), (2.0, 0.2)])

    def test_permutation_independent(self):
        rng = np.random.default_rng(0)
        xs = np.arange(0.5, 8.01, 0.25)
        points = gaussian_points(0.4, 0.1, 1.6, xs)
        noisy = [(x, y + 1e-3 * rng.standard_normal()) for x, y in points]
        fit_a = fit_gaussian(noisy)
        shuffled = list(noisy)
        rng.shuffle(shuffled)
        fit_b = fit_gaussian(shuffled)
        assert abs(fit_a.A - fit_b.A) < 1e-9
        assert abs(fit_a.B - fit_b.B) < 1e-9
        assert abs(fit_a.C - fit_b.C) < 1e-9

    def test_r_squared_recomputation(self):
        rng = np.random.default_rng(4)
        xs = np.arange(0.5, 8.01, 0.25)
        points = [(x, y + 0.01 * rng.standard_normal())
                  for x, y in gaussian_points(0.4, 0.1, 1.6, xs)]
        fit = fit_gaussian(points)
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        ss_res = np.sum((fit.predict(x) - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-10)

    def test_b_stays_positive(self):
        rng = np.random.default_rng(8)
        xs = np.arange(0.5, 6.01, 0.25)
        points = [(x, 1.7 + 0.05 * rng.standard_normal()) for x in xs]
        fit = fit_gaussian(points)
        assert fit.B > 0.0


class TestFitTriGaussian:
    COMPONENTS = [(0.8, -0.4, 0.08), (0.5, 0.0, 0.06), (0.9, 0.3, 0.07)]

    def test_exact_recovery(self):
        xs = np.arange(-0.74, 0.411, 0.005)
        fit = fit_trigaussian(trigaussian_points(self.COMPONENTS, xs))
        assert not fit.low_confidence
        for comp, (a, mu, s) in zip(fit.components, self.COMPONENTS):
            assert comp.amplitude == pytest.approx(a, abs=1e-5)
            assert comp.center == pytest.approx(mu, abs=1e-5)
            assert comp.width == pytest.approx(s, abs=1e-5)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_exact_recovery_negative_component(self):
        # a dip between two peaks needs a negative amplitude
        components = [(0.8, -0.4, 0.08), (-0.3, 0.0, 0.06), (0.9, 0.3, 0.07)]
        xs = np.arange(-0.74, 0.411, 0.005)
        fit = fit_trigaussian(trigaussian_points(components, xs))
        for comp, (a, mu, s) in zip(fit.components, components):
            assert comp.amplitude == pytest.approx(a, abs=1e-5)
            assert comp.center == pytest.approx(mu, abs=1e-5)
            assert comp.width == pytest.approx(s, abs=1e-5)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_components_sorted(self):
        xs = np.arange(-0.74, 0.411, 0.005)
        fit = fit_trigaussian(trigaussian_points(self.COMPONENTS, xs))
        centers = [c.center for c in fit.components]
        assert centers == sorted(centers)

    def test_width_floor(self):
        xs = np.arange(-0.5, 0.51, 0.05)
        fit = fit_trigaussian(trigaussian_points(self.COMPONENTS, xs))
        assert all(c.width >= 0.05 for c in fit.components)

    def test_monotone_fallback_flagged(self):
        xs = np.arange(-0.74, 0.411, 0.02)
        points = [(float(x), float(np.exp(x))) for x in xs]
        fit = fit_trigaussian(points)
        assert fit.low_confidence

    def test_needs_ten_points(self):
        with pytest.raises(ValueError):
            fit_trigaussian(trigaussian_points(self.COMPONENTS,
                                               np.linspace(-0.7, 0.4, 9)))

    def test_predict_matches_model(self):
        fit = TriGaussianFit(components=(GaussComponent(1.0, -0.5, 0.1),
                                         GaussComponent(0.5, 0.0, 0.2),
                                         GaussComponent(0.3, 0.4, 0.1)),
                             r_squared=1.0)
        x = np.array([-0.5, 0.0, 0.4])
        direct = sum(c.amplitude * np.exp(-((x - c.center) ** 2)
                                          / (2 * c.width ** 2))
                     for c in fit.components)
        assert np.allclose(fit.predict(x), direct)


def test_multistart_monotone_improvement():
    # the selected fit is never worse than the best single seed
    rng = np.random.default_rng(2)
    xs = np.arange(0.5, 10.01, 0.1)
    points = [(x, y + 0.01 * rng.standard_normal())
              for x, y in gaussian_points(0.3, 0.05, 1.7, xs)]
    fit = fit_gaussian(points)
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    ss_fit = np.sum((fit.predict(x) - y) ** 2)
    # seed 0 of the multistart is the plain data-driven estimate
    c0 = y[-1]
    a0 = y[0] - c0
    seed_model = a0 * np.exp(-0.05 * x * x) + c0
    assert ss_fit <= np.sum((seed_model - y) ** 2) + 1e-12


def test_fitted_centers_track_boundary_window():
    # shrinking the swept alpha window from below restricts the
    # detectable boundary to more negative fields, so the fitted bump
    # centers migrate left
    import bellquench.sweep as sw

    def centers(alpha_lo, h_hi):
        grid = sw.GridSpec(alpha_lo, 3.0, 0.05)
        hs = np.arange(-0.72, h_hi, 0.03)
        curve = sw.threshold_curve(sw.QuenchKind.COUPLING, 0.8, hs, grid, N=128)
        fit = fit_trigaussian(curve)
        return np.mean([c.center for c in fit.components])

    wide = centers(0.5, 0.40)       # boundary window h in (-0.75, 0.414)
    narrow = centers(1.5, -0.31)    # boundary window h in (-0.75, -0.293)
    assert narrow < wide
