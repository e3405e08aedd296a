import math

import numpy as np
import pytest

from bellquench.model import (BOUNDARY_TOL, ModelParams, QuenchKind,
                              coupling_profile, field_quench, kac_factor,
                              make_quench, phase_codes, same_phase_area)
from phase_reference import (PhaseLabel, classify_coupling_value,
                             classify_field_value, classify_pair,
                             phase_geometry, same_phase)


def base(**kwargs):
    defaults = dict(N=512, gamma=1.0, alpha=10.0, h=0.0)
    defaults.update(kwargs)
    return ModelParams(**defaults)


class TestKacFactor:
    def test_alpha_zero(self):
        assert kac_factor(0.0, 4) == 2.0

    def test_nearest_neighbor_limit(self):
        assert abs(kac_factor(100.0, 512) - 1.0) < 1e-12

    def test_harmonic_partial_sum(self):
        assert kac_factor(1.0, 8) == pytest.approx(25.0 / 12.0, abs=1e-15)

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            kac_factor(1.0, 5)
        with pytest.raises(ValueError):
            kac_factor(1.0, 0)

    def test_monotone_decreasing_in_alpha(self):
        alphas = np.linspace(0.1, 8.0, 50)
        values = [kac_factor(a, 64) for a in alphas]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestCouplingProfile:
    def test_nearest_neighbor(self):
        j = coupling_profile(base(alpha=100.0))
        assert j[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(j[1:] < 1e-12)

    def test_uniform(self):
        j = coupling_profile(ModelParams(N=4, gamma=1.0, alpha=1e-12, h=0.0))
        assert np.allclose(j, [0.5, 0.5])

    def test_alpha_two_profile(self):
        j = coupling_profile(ModelParams(N=8, gamma=1.0, alpha=2.0, h=0.0))
        kac = 1.0 + 1.0 / 4 + 1.0 / 9 + 1.0 / 16
        assert np.allclose(j, np.array([1, 1 / 4, 1 / 9, 1 / 16]) / kac)
        assert kac_factor(2.0, 8) == pytest.approx(kac)

    def test_normalization_identity(self):
        # Kac normalization: the couplings of a site sum to 1
        assert np.sum(coupling_profile(base(alpha=1.7))) == pytest.approx(
            1.0, rel=1e-12)


class TestPhaseGeometry:
    def test_nn_limit(self):
        g = phase_geometry(base(alpha=10.0))
        assert g.h_c == pytest.approx(-0.998046875, abs=1e-9)
        assert g.h_c2 == 1.0

    def test_alpha_one(self):
        assert phase_geometry(base(alpha=1.0)).h_c == 0.0

    def test_alpha_c(self):
        assert phase_geometry(base(h=-0.5)).alpha_c == pytest.approx(2.0)
        assert phase_geometry(base(h=0.0)).alpha_c == pytest.approx(1.0)
        assert phase_geometry(base(h=-1.5)).alpha_c is None


class TestSamePhase:
    def test_para_to_para_across_is_same(self):
        # the two disordered lobes form one phase
        assert same_phase(field_quench(base(), -2.0, 2.0))

    def test_ferro_to_para_is_cross(self):
        assert not same_phase(field_quench(base(), 0.0, 2.0))

    def test_coupling_sides(self):
        p = base(h=-0.5, alpha=1.0)
        assert same_phase(make_quench(QuenchKind.COUPLING, p, 1.0, 1.5))
        assert not same_phase(make_quench(QuenchKind.COUPLING, p, 1.5, 2.5))

    def test_boundary_raises_or_classifies(self):
        q = field_quench(base(), 1.0, 2.0)
        with pytest.raises(ValueError):
            same_phase(q)
        assert same_phase(q, on_boundary="cross") is False
        assert classify_pair(q) is PhaseLabel.BOUNDARY

    def test_symmetric_and_reflexive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            hi, hf = rng.uniform(-3, 3, 2)
            a = classify_pair(field_quench(base(alpha=2.3), hi, hf))
            b = classify_pair(field_quench(base(alpha=2.3), hf, hi))
            assert a == b
            c = classify_pair(field_quench(base(alpha=2.3), hi, hi))
            assert c in (PhaseLabel.SAME, PhaseLabel.BOUNDARY)

    def test_quench_spec_validation(self):
        from bellquench.model import QuenchSpec
        with pytest.raises(ValueError, match="field quench must change only h"):
            QuenchSpec(QuenchKind.FIELD, base(alpha=1.0), base(alpha=2.0))
        with pytest.raises(ValueError,
                           match="coupling quench must change only alpha"):
            QuenchSpec(QuenchKind.COUPLING, base(h=0.1), base(h=0.2))
        with pytest.raises(ValueError, match="coupling quench must change only alpha"):
            QuenchSpec(QuenchKind.COUPLING, base(gamma=0.5), base(gamma=0.6))


class TestSamePhaseArea:
    def test_field_values(self):
        assert same_phase_area(QuenchKind.FIELD, 10.0) == pytest.approx(
            20.0 + 2.0 ** -7 + 2.0 ** -17)
        assert same_phase_area(QuenchKind.COUPLING, 0.0) == 4.25
        assert same_phase_area(QuenchKind.COUPLING, -0.5) == pytest.approx(3.25)

    def test_field_identity(self):
        # (L_para_left + L_para_right)^2 + L_ferro^2
        for alpha in np.linspace(0.3, 12.0, 200):
            h_c = -1.0 + 2.0 ** (1.0 - alpha)
            expected = (h_c + 3.0 + 2.0) ** 2 + (1.0 - h_c) ** 2
            assert same_phase_area(QuenchKind.FIELD, alpha) == pytest.approx(
                expected, rel=1e-12)

    def test_coupling_identity(self):
        for h in np.linspace(-0.74, 0.41, 200):
            alpha_c = 1.0 - math.log2(1.0 + h)
            expected = (alpha_c - 0.5) ** 2 + (3.0 - alpha_c) ** 2
            assert same_phase_area(QuenchKind.COUPLING, h) == pytest.approx(
                expected, rel=1e-12)

    def test_coupling_window(self):
        # the fields whose line alpha_c lies inside (0.5, 3): the edges
        # 2**-2 - 1 and 2**0.5 - 1 are refused, one ulp inward accepted
        low, high = 2.0 ** -2 - 1.0, 2.0 ** 0.5 - 1.0
        for h in (-0.76, 0.5, low, high):
            with pytest.raises(ValueError):
                same_phase_area(QuenchKind.COUPLING, h)
        for h in (math.nextafter(low, 0.0), math.nextafter(high, 0.0)):
            assert same_phase_area(QuenchKind.COUPLING, h) == pytest.approx(6.25)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(N=5, gamma=1.0, alpha=1.0, h=0.0)
    with pytest.raises(ValueError):
        ModelParams(N=8, gamma=1.5, alpha=1.0, h=0.0)
    with pytest.raises(ValueError):
        ModelParams(N=8, gamma=0.5, alpha=-1.0, h=0.0)


@pytest.mark.parametrize("field", ["h", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    kwargs = dict(N=8, gamma=0.5, alpha=1.0, h=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**kwargs)


def test_boundary_tolerance_is_tight():
    # values a hair away from the line classify normally
    q = field_quench(base(alpha=1.0), 2 * BOUNDARY_TOL, 0.5)
    assert same_phase(q)


class TestPhaseCodes:
    """model.phase_codes against the scalar reference, value by value."""

    @staticmethod
    def assert_matches(code, on_line, labels):
        for c, on, label in zip(code, on_line, labels):
            assert on == (label is PhaseLabel.BOUNDARY)
            if not on:
                assert c == label

    # h_c(alpha) = 0.0 (alpha = 1) and -0.5 (alpha = 2) fall on the grid
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0, 10.0])
    def test_field_model_lines(self, alpha):
        qs = np.round(np.arange(-3.0, 3.0001, 0.05), 12)
        code, on_line = phase_codes(QuenchKind.FIELD, base(alpha=alpha), qs)
        self.assert_matches(code, on_line,
                            [classify_field_value(float(q), alpha) for q in qs])

    def test_field_nn_limit_lines(self):
        # h = -1 and 1 are the model lines of the alpha -> infinity limit
        qs = np.round(np.arange(-3.0, 3.0001, 0.05), 12)
        code, on_line = phase_codes(QuenchKind.FIELD, base(alpha=1.5), qs,
                                    "nn_limit")
        self.assert_matches(code, on_line,
                            [classify_field_value(float(q), math.inf) for q in qs])

    # alpha_c(h) = 2.0 (h = -0.5) and 1.0 (h = 0) fall on the grid;
    # h = -1.5 and -1 have no line
    @pytest.mark.parametrize("h", [-1.5, -1.0, -0.5, 0.0, 0.3])
    def test_coupling_lines(self, h):
        qs = np.round(np.arange(0.5, 3.0001, 0.05), 12)
        code, on_line = phase_codes(QuenchKind.COUPLING, base(h=h), qs)
        self.assert_matches(code, on_line,
                            [classify_coupling_value(float(q), h) for q in qs])

    @pytest.mark.parametrize("kind,lines", [(QuenchKind.COUPLING, "nn_limit"),
                                            (QuenchKind.FIELD, "bogus")])
    def test_unknown_lines_rejected(self, kind, lines):
        with pytest.raises(ValueError):
            phase_codes(kind, base(), np.zeros(3), lines)
