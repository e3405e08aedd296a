import numpy as np
import pytest

import bellquench.fit as fit_module
from bellquench.fit import fit_gaussian, fit_trigaussian, minimize


def gaussian_points(a, b, c, xs):
    return [(float(x), float(a * np.exp(-b * x * x) + c)) for x in xs]


def trigaussian_points(components, xs):
    ys = np.zeros(len(xs))
    for amp, mu, sigma in components:
        ys = ys + amp * np.exp(-((np.asarray(xs) - mu) ** 2) / (2 * sigma ** 2))
    return list(zip(map(float, xs), map(float, ys)))


def gaussian_model(fit, x):
    """The fitted A*exp(-B*x**2) + C at the points x."""
    return fit.A * np.exp(-fit.B * x * x) + fit.C


def trigaussian_model(fit, x):
    """The fitted sum of three Gaussians at the points x."""
    return sum(c.amplitude * np.exp(-((x - c.center) ** 2) / (2.0 * c.width ** 2))
               for c in fit.components)


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
        # distinct means unequal as floats: 0.0 == -0.0, wherever they sort
        with pytest.raises(ValueError, match="distinct"):
            fit_gaussian([(1.0, 0.5), (-0.0, 1.0), (2.0, 0.2), (0.0, 1.1)])

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
        ss_res = np.sum((gaussian_model(fit, x) - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-10)

    def test_b_stays_positive(self):
        rng = np.random.default_rng(8)
        xs = np.arange(0.5, 6.01, 0.25)
        points = [(x, 1.7 + 0.05 * rng.standard_normal()) for x in xs]
        fit = fit_gaussian(points)
        assert fit.B > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_refused_before_any_start(self, monkeypatch, bad, column):
        monkeypatch.setattr(fit_module, "minimize", never_minimize)
        points = [list(p) for p in gaussian_points(0.3, 0.05, 1.7,
                                                   np.arange(0.5, 4.01, 0.5))]
        points[3][column] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_gaussian(points)


def never_minimize(*args, **kwargs):
    raise AssertionError("a start ran")


def test_no_finite_start_fails(tmp_path, monkeypatch):
    # every start ends non-finite: the library raises, the CLI exits 1
    # and writes nothing
    from types import SimpleNamespace
    from bellquench.cli import main
    from bellquench.errors import FitFailedError

    monkeypatch.setattr(fit_module, "minimize", lambda *args, **kwargs:
                        SimpleNamespace(x=np.full(3, np.nan), fun=np.nan))
    points = gaussian_points(0.3, 0.05, 1.7, np.arange(0.5, 4.01, 0.5))
    with pytest.raises(FitFailedError):
        fit_gaussian(points)
    curve = tmp_path / "curve.csv"
    curve.write_text("alpha,b_c\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
    out = tmp_path / "fit"
    assert main(["fit", "--curve", str(curve), "--out", str(out)]) == 1
    assert not out.exists()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_refused_before_any_start(self, monkeypatch, bad, column):
        monkeypatch.setattr(fit_module, "minimize", never_minimize)
        points = [list(p) for p in trigaussian_points(
            self.COMPONENTS, np.arange(-0.74, 0.411, 0.05))]
        points[7][column] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_trigaussian(points)

    def test_r_squared_recomputation(self):
        rng = np.random.default_rng(5)
        xs = np.arange(-0.74, 0.411, 0.01)
        points = [(x, y + 0.01 * rng.standard_normal())
                  for x, y in trigaussian_points(self.COMPONENTS, xs)]
        fit = fit_trigaussian(points)
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        ss_res = np.sum((trigaussian_model(fit, x) - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-10)


def test_multistart_monotone_improvement():
    # the selected fit is never worse than the best single seed
    rng = np.random.default_rng(2)
    xs = np.arange(0.5, 10.01, 0.1)
    points = [(x, y + 0.01 * rng.standard_normal())
              for x, y in gaussian_points(0.3, 0.05, 1.7, xs)]
    fit = fit_gaussian(points)
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    ss_fit = np.sum((gaussian_model(fit, x) - y) ** 2)
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


def noisy_gaussian_points():
    rng = np.random.default_rng(2)
    return [(x, y + 0.01 * rng.standard_normal()) for x, y in
            gaussian_points(0.3, 0.05, 1.7, np.arange(0.5, 10.01, 0.1))]


def noisy_trigaussian_points():
    rng = np.random.default_rng(5)
    return [(x, y + 0.02 * rng.standard_normal()) for x, y in
            trigaussian_points(TestFitTriGaussian.COMPONENTS,
                               np.arange(-0.74, 0.411, 0.02))]


FIT_CASES = {
    "gaussian": lambda: fit_gaussian(
        gaussian_points(0.3, 0.05, 1.7, np.arange(0.5, 10.01, 0.25))),
    "trigaussian": lambda: fit_trigaussian(trigaussian_points(
        TestFitTriGaussian.COMPONENTS, np.arange(-0.74, 0.411, 0.005))),
    "noisy_gaussian": lambda: fit_gaussian(noisy_gaussian_points(), seed=3),
    "noisy_trigaussian": lambda: fit_trigaussian(noisy_trigaussian_points()),
}


class TestMinimizeMatchesScipy:
    """`fit.minimize` is a port of scipy's Nelder-Mead: same x, fun, nfev bits."""

    @staticmethod
    def assert_same(objective, x0, **options):
        reference = pytest.importorskip("scipy.optimize").minimize(
            objective, x0, method="Nelder-Mead", options=options)
        port = minimize(objective, x0, **options)
        assert port.x.tobytes() == reference.x.tobytes()
        assert np.float64(port.fun).tobytes() == np.float64(reference.fun).tobytes()
        assert port.nfev == reference.nfev

    @pytest.mark.parametrize("case", sorted(FIT_CASES))
    def test_every_start_of_a_fit(self, monkeypatch, case):
        starts = []

        def compared(objective, x0, **options):
            self.assert_same(objective, x0, **options)
            starts.append(x0)
            return minimize(objective, x0, **options)

        monkeypatch.setattr(fit_module, "minimize", compared)
        FIT_CASES[case]()
        assert len(starts) == fit_module.N_STARTS

    def test_every_early_cut_of_a_fit(self, monkeypatch):
        # maxfev 1 to 60 on each start of the noisy fit: cuts inside the
        # initial simplex and at every step of the first iterations

        def compared(objective, x0, **options):
            for maxfev in range(1, 61):
                self.assert_same(objective, x0, **dict(options, maxfev=maxfev))
            return minimize(objective, x0, **options)

        monkeypatch.setattr(fit_module, "minimize", compared)
        fit_gaussian(noisy_gaussian_points())

    @pytest.mark.parametrize("maxfev", [36, 37, 38])
    def test_cut_inside_a_shrink(self, maxfev):
        # on a flat objective each iteration after the 4 initial
        # evaluations is a reflection, an inside contraction and a
        # 3-vertex shrink; maxfev 36, 37 and 38 refuse the 1st, 2nd and
        # 3rd evaluation of the seventh shrink, after its vertex moved
        self.assert_same(lambda p: 1.0, np.array([1.0, 0.0, -3.0]),
                         maxfev=maxfev, xatol=1e-12, fatol=1e-14)

    @pytest.mark.parametrize("maxfev", [4, 6, 1000])
    def test_nan_vertex(self, maxfev):
        # argsort sorts a nan value last, yet fun is the nan-propagating
        # np.min of the simplex values
        def objective(p):
            return np.nan if p[0] > 1.02 else float(np.sum(p * p))

        self.assert_same(objective, np.ones(3), maxfev=maxfev, xatol=1e-12,
                         fatol=1e-14)
