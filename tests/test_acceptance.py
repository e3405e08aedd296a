"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (plus per-cell detail where the
criterion covers a table).  Shared heavy computations (the full-grid
phase diagrams at N = 512) are module-scoped fixtures.
"""

import os

import numpy as np
import pytest

import bellquench.sweep as sw
from bellquench.bell import bell_value
from bellquench.dynamics import TimeGrid, correlator_time_series, steady_correlators
from bellquench.fit import fit_gaussian, fit_trigaussian
from bellquench.model import (ModelParams, QuenchKind, field_quench,
                              same_phase_area)
from bellquench.momentum import ground_energy
from bellquench import oracle
from bellquench.cli import main as cli_main
from bellquench.output import sha256_file

REF_FIELD_THRESHOLDS = {
    (0.2, 0.9): 1.9997, (0.2, 1.5): 1.99843, (0.2, 3.5): 1.98482,
    (0.2, 10.0): 1.83393,
    (0.8, 0.9): 1.99501, (0.8, 1.5): 1.977, (0.8, 3.5): 1.86674,
    (0.8, 10.0): 1.71068,
    (1.0, 0.9): 1.99254, (1.0, 1.5): 1.96515, (1.0, 3.5): 1.83578,
    (1.0, 10.0): 1.71403,
}

REF_COUPLING_THRESHOLDS = {
    (0.2, -0.2): 1.72533, (0.2, -0.5): 1.6562, (0.2, -0.7): 1.75671,
    (0.8, -0.2): 1.89374, (0.8, -0.5): 1.71845, (0.8, -0.7): 1.72372,
    (1.0, -0.2): 1.90389, (1.0, -0.5): 1.74951, (1.0, -0.7): 1.72674,
}

# (eta_bell, eta_entanglement, eta_czz)
REF_FIELD_EFFICIENCIES = {
    (0.2, 0.9): (0.18, 0.0, 0.18), (0.2, 1.5): (0.20, 0.0, 0.23),
    (0.2, 3.5): (0.29, 0.0, 0.34), (0.2, 10.0): (0.75, 0.0, 0.75),
    (0.8, 0.9): (0.19, 0.0007, 0.18), (0.8, 1.5): (0.20, 0.005, 0.21),
    (0.8, 3.5): (0.30, 0.0, 0.29), (0.8, 10.0): (0.41, 0.034, 0.45),
    (1.0, 0.9): (0.18, 0.0004, 0.18), (1.0, 1.5): (0.20, 0.007, 0.22),
    (1.0, 3.5): (0.31, 0.0, 0.28), (1.0, 10.0): (0.41, 0.045, 0.38),
}

REF_COUPLING_EFFICIENCIES = {
    (0.2, -0.2): (0.85, 0.0, 0.16), (0.2, -0.5): (0.67, 0.0, 0.68),
    (0.2, -0.7): (0.93, 0.20, 0.94),
    (0.8, -0.2): (0.76, 0.0280, 0.15), (0.8, -0.5): (0.64, 0.0698, 0.55),
    (0.8, -0.7): (0.53, 0.13, 0.67),
    (1.0, -0.2): (0.74, 0.0244, 0.14), (1.0, -0.5): (0.58, 0.0772, 0.51),
    (1.0, -0.7): (0.47, 0.14, 0.64),
}


@pytest.fixture(scope="module")
def field_diagrams():
    out = {}
    for gamma, alpha in REF_FIELD_THRESHOLDS:
        fixed = ModelParams(N=512, gamma=gamma, alpha=alpha, h=0.0)
        out[(gamma, alpha)] = sw.sweep_all(QuenchKind.FIELD, fixed,
                                           sw.FIELD_GRID)
    return out


@pytest.fixture(scope="module")
def coupling_diagrams():
    out = {}
    for gamma, h in REF_COUPLING_THRESHOLDS:
        fixed = ModelParams(N=512, gamma=gamma, alpha=1.0, h=h)
        out[(gamma, h)] = sw.sweep_all(QuenchKind.COUPLING, fixed,
                                       sw.COUPLING_GRID)
    return out


def field_threshold(diagram):
    return sw.critical_threshold(diagram, boundary="cross",
                                 cross_lines="nn_limit")


def coupling_threshold(diagram):
    return sw.critical_threshold(diagram, boundary="exclude")


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status} {detail}".rstrip())


def test_criterion_1_field_thresholds(field_diagrams):
    failures = []
    for (gamma, alpha), ref in REF_FIELD_THRESHOLDS.items():
        b_c = field_threshold(field_diagrams[(gamma, alpha)][sw.Quantifier.BELL])
        dev = b_c - ref
        line = (f"  gamma={gamma} alpha={alpha}: B_c={b_c:.5f} "
                f"ref={ref} dev={dev:+.5f}")
        print(line + ("" if abs(dev) <= 0.005 else "  <-- outside 0.005"))
        if abs(dev) > 0.005:
            failures.append(line)
    fast_failures = []
    for (gamma, alpha) in ((0.2, 10.0), (1.0, 0.9), (1.0, 10.0)):
        fixed = ModelParams(N=512, gamma=gamma, alpha=alpha, h=0.0)
        diagram = sw.sweep(QuenchKind.FIELD, fixed, sw.GridSpec(-3, 3, 0.05),
                           sw.Quantifier.BELL)
        b_c = field_threshold(diagram)
        if abs(b_c - REF_FIELD_THRESHOLDS[(gamma, alpha)]) > 0.02:
            fast_failures.append(f"fast-mode gamma={gamma} alpha={alpha}: "
                                 f"{b_c:.5f}")
    ok = not failures and not fast_failures
    report(1, ok, f"({len(REF_FIELD_THRESHOLDS) - len(failures)}/{len(REF_FIELD_THRESHOLDS)} cells "
                  "within +-0.005; fast mode "
                  f"{'ok' if not fast_failures else 'failed'})")
    assert ok, ("field-threshold cells outside +-0.005 (reproduction floor "
                "set by readout-convention differences; see README, "
                "Acceptance status): " + "; ".join(failures + fast_failures))


def test_criterion_2_coupling_thresholds(coupling_diagrams):
    failures = []
    for (gamma, h), ref in REF_COUPLING_THRESHOLDS.items():
        b_c = coupling_threshold(coupling_diagrams[(gamma, h)][sw.Quantifier.BELL])
        dev = b_c - ref
        line = f"  gamma={gamma} h={h}: B_c={b_c:.5f} ref={ref} dev={dev:+.5f}"
        print(line + ("" if abs(dev) <= 0.01 else "  <-- outside 0.01"))
        if abs(dev) > 0.01:
            failures.append(line)
    ok = not failures
    report(2, ok, f"({len(REF_COUPLING_THRESHOLDS) - len(failures)}/{len(REF_COUPLING_THRESHOLDS)} cells "
                  "within +-0.01)")
    assert ok, ("coupling-threshold cells outside +-0.01 (reproduction floor "
                "set by readout-convention differences; see README, "
                "Acceptance status): " + "; ".join(failures))


def test_criterion_3_efficiencies(field_diagrams, coupling_diagrams):
    failures = []

    def check(label, diagrams, refs, threshold_fn):
        for key, (ref_b, ref_e, ref_c) in refs.items():
            etas = {}
            for quant, ref in ((sw.Quantifier.BELL, ref_b),
                               (sw.Quantifier.ENTANGLEMENT, ref_e),
                               (sw.Quantifier.CZZ, ref_c)):
                diagram = diagrams[key][quant]
                q_c = threshold_fn(diagram)
                eta = sw.efficiency(diagram, q_c).eta
                etas[quant.value] = (eta, ref)
                if abs(eta - ref) > 0.03:
                    failures.append(f"{label}{key} {quant.value}: "
                                    f"{eta:.3f} vs {ref}")
            print(f"  {label}{key}: " + "  ".join(
                f"{name}={eta:.3f}/{ref}" for name, (eta, ref) in etas.items()))

    check("field", field_diagrams, REF_FIELD_EFFICIENCIES, field_threshold)
    check("coupling", coupling_diagrams, REF_COUPLING_EFFICIENCIES, coupling_threshold)
    total = 3 * (len(REF_FIELD_EFFICIENCIES) + len(REF_COUPLING_EFFICIENCIES))
    ok = not failures
    report(3, ok, f"({total - len(failures)}/{total} efficiencies "
                  "within +-0.03)")
    assert ok, "efficiencies outside +-0.03: " + "; ".join(failures)


def test_criterion_4_monogamy_ceiling(field_diagrams):
    ceiling = 2.0 + 1e-9
    evaluations = 0
    worst = -np.inf
    for diagrams in field_diagrams.values():
        values = diagrams[sw.Quantifier.BELL].values
        evaluations += values.size
        worst = max(worst, float(values.max()))
    rng = np.random.default_rng(17)
    for _ in range(40):
        gamma = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.6, 8.0))
        h_i, h_f = (float(x) for x in rng.uniform(-3.0, 3.0, 2))
        q = field_quench(ModelParams(N=512, gamma=gamma, alpha=alpha, h=h_i),
                         h_i, h_f)
        series = correlator_time_series(q, TimeGrid(40.0, 0.05))
        values = np.array([bell_value(c) for c in series])
        evaluations += values.size
        worst = max(worst, float(values.max()))
    ok = evaluations >= 1_000_000 and worst <= ceiling
    report(4, ok, f"({evaluations} evaluations, max B = {worst:.12f})")
    assert evaluations >= 1_000_000
    assert worst <= ceiling


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(23)
    worst_corr = worst_bell = worst_energy = 0.0
    for trial in range(50):
        n = int(rng.choice([8, 10]))
        gamma = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.5, 8.0))
        h_i, h_f = (float(x) for x in rng.uniform(-2.5, 2.5, 2))
        t = float(rng.uniform(0.0, 4.0))
        params = ModelParams(N=n, gamma=gamma, alpha=alpha, h=h_i)
        q = field_quench(params, h_i, h_f)
        reference, _ = oracle.oracle_quench(q, t)
        computed = __import__("bellquench.dynamics", fromlist=["x"]) \
            .correlators_at(q, t)
        worst_corr = max(worst_corr, max(
            abs(getattr(computed, k) - getattr(reference, k))
            for k in ("mz", "cxx", "cyy", "czz", "cxy", "cyx")))
        worst_bell = max(worst_bell,
                         abs(bell_value(computed) - bell_value(reference)))
        e_dense, _ = oracle.ground_state_even(params)
        worst_energy = max(worst_energy, abs(e_dense - ground_energy(params)))
    spectrum_dev = max(
        oracle.spectrum_match(ModelParams(N=8, gamma=g, alpha=a, h=h))
        for g, a, h in ((1.0, 10.0, 0.5), (0.3, 0.9, -1.1), (0.7, 2.2, 1.4)))
    ok = (worst_corr <= 1e-6 and worst_bell <= 1e-6
          and worst_energy <= 1e-6 and spectrum_dev <= 1e-8)
    report(5, ok, f"(corr {worst_corr:.2e}, bell {worst_bell:.2e}, "
                  f"energy {worst_energy:.2e}, spectrum {spectrum_dev:.2e})")
    assert worst_corr <= 1e-6
    assert worst_bell <= 1e-6
    assert worst_energy <= 1e-6
    assert spectrum_dev <= 1e-8


def test_criterion_6_steady_state_consistency():
    # the [200, 400] window resolves block gaps down to ~1/200, so the
    # randomized finals keep 0.1 away from the critical lines where the
    # window average has provably not yet reached the t -> infinity
    # limit being validated
    rng = np.random.default_rng(31)
    worst = 0.0
    count = 0
    while count < 20:
        gamma = float(rng.uniform(0.1, 1.0))
        alpha = float(rng.uniform(0.6, 8.0))
        h_i, h_f = (float(x) for x in rng.uniform(-2.5, 2.5, 2))
        h_c = -1.0 + 2.0 ** (1.0 - alpha)
        if min(abs(h_f - h_c), abs(h_f - 1.0)) < 0.1:
            continue
        count += 1
        q = field_quench(ModelParams(N=512, gamma=gamma, alpha=alpha, h=h_i),
                         h_i, h_f)
        b_steady = bell_value(steady_correlators(q))
        series = correlator_time_series(q, TimeGrid(400.0, 0.1))
        window = np.array([bell_value(c) for c in series if c.t >= 200.0])
        worst = max(worst, abs(b_steady - float(window.mean())))
    ok = worst <= 1e-2
    report(6, ok, f"(max |B_s - <B>_[200,400]| = {worst:.2e} "
                  "over 20 gap-resolved quenches)")
    assert worst <= 1e-2


def test_criterion_7_intra_vs_inter_saturation():
    base = ModelParams(N=512, gamma=1.0, alpha=10.0, h=0.0)
    intra_pairs = [(1.5, 2.5), (-2.5, -1.5), (0.2, 0.8), (2.0, 2.8)]
    inter_pairs = [(0.5, 2.5), (-0.5, -2.5), (0.5, 1.5), (-2.0, 0.0)]

    def saturated(pairs):
        return [bell_value(steady_correlators(field_quench(base, hi, hf)))
                for hi, hf in pairs]

    intra = saturated(intra_pairs)
    inter = saturated(inter_pairs)
    ok = min(intra) > max(inter)
    report(7, ok, f"(min intra {min(intra):.4f} > max inter {max(inter):.4f})")
    assert ok, (intra, inter)


def test_criterion_8_fit_quality():
    failures = []
    alphas = np.round(np.arange(0.5, 10.0001, 0.1), 10)
    widths = {}
    for gamma in (0.2, 1.0):
        curve = sw.threshold_curve(QuenchKind.FIELD, gamma, alphas, N=512)
        fit = fit_gaussian(curve)
        widths[gamma] = fit.B
        print(f"  gaussian gamma={gamma}: r2={fit.r_squared:.5f} "
              f"A={fit.A:.4f} B={fit.B:.5f} C={fit.C:.4f}")
        if fit.r_squared < 0.98:
            failures.append(f"r2(gamma={gamma}) = {fit.r_squared:.4f} < 0.98")
    if not widths[1.0] > widths[0.2]:
        failures.append("fitted width parameter not increasing with gamma")

    hs = np.round(np.arange(-0.74, 0.4101, 0.01), 10)
    curve_h = sw.threshold_curve(QuenchKind.COUPLING, 0.8, hs, N=512)
    tri = fit_trigaussian(curve_h)
    x = np.array([p[0] for p in curve_h])
    y = np.array([p[1] for p in curve_h])
    model = sum(c.amplitude * np.exp(-((x - c.center) ** 2) / (2.0 * c.width ** 2))
                for c in tri.components)
    rms = float(np.sqrt(np.mean((model - y) ** 2)))
    ratio = rms / float(y.max() - y.min())
    print(f"  trigaussian gamma=0.8: rms={rms:.4f} range ratio={ratio:.4f}")
    if ratio > 0.05:
        failures.append(f"tri-gaussian rms ratio {ratio:.4f} > 0.05")
    ok = not failures
    report(8, ok, "" if ok else "(" + "; ".join(failures) + ")")
    assert ok, "fit-quality clauses failed: " + "; ".join(failures)


def test_criterion_9_area_consistency(field_diagrams, coupling_diagrams):
    worst_field = 0.0
    for alpha in (0.9, 1.5, 3.5, 10.0):
        diagram = field_diagrams[(0.2, alpha)][sw.Quantifier.BELL]
        discrete = np.count_nonzero(diagram.same_phase_mask) * 0.01 ** 2
        analytic = same_phase_area(QuenchKind.FIELD, alpha)
        worst_field = max(worst_field, abs(discrete - analytic))
    field_band = 2 * 0.01 * 12
    worst_coupling = 0.0
    for h in (-0.2, -0.5, -0.7):
        diagram = coupling_diagrams[(0.2, h)][sw.Quantifier.BELL]
        discrete = np.count_nonzero(diagram.same_phase_mask) * 0.01 ** 2
        analytic = same_phase_area(QuenchKind.COUPLING, h)
        worst_coupling = max(worst_coupling, abs(discrete - analytic))
    coupling_band = 2 * 0.01 * 10
    ok = worst_field <= field_band and worst_coupling <= coupling_band
    report(9, ok, f"(field dev {worst_field:.4f} <= {field_band}, "
                  f"coupling dev {worst_coupling:.4f} <= {coupling_band})")
    assert worst_field <= field_band
    assert worst_coupling <= coupling_band


def test_criterion_10_determinism(tmp_path):
    # two runs in this process and one in a cold `python -m bellquench.cli`
    import json
    import subprocess
    import sys

    import bellquench

    argv = ["sweep", "--gamma", "0.2", "--alpha", "10", "--kind", "field",
            "--step", "0.05", "--n", "256"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))
    digests = []
    for tag in ("first", "second", "cold"):
        out = tmp_path / tag
        if tag == "cold":
            code = subprocess.run(
                [sys.executable, "-m", "bellquench.cli", *argv, "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src), check=False).returncode
        else:
            code = cli_main(argv + ["--out", str(out)])
        assert code == 0
        names = sorted(name for name in os.listdir(out)
                       if name != "manifest.json")
        digests.append({name: sha256_file(out / name) for name in names})
        manifest = json.loads((out / "manifest.json").read_text())
        assert digests[-1] == manifest["checksums"]
    ok = digests[0] == digests[1] == digests[2]
    report(10, ok, f"({len(digests[0])} artifacts byte-identical across "
                   "two runs in process and one cold process)")
    assert ok
