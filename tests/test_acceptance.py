"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from wirescat import (
    DiscreteWire,
    Impurity,
    OneDBarrier,
    extrapolate_to_zero_width,
    oracle_solve_ladder,
    reflection_1d,
    regularized_scale,
    regularized_scale_tail_subtraction,
    resonance_parameter,
    scattering_amplitude,
    solve_scattering,
    surface_constant,
    surface_resonance_parameter,
    sweep,
    threshold_amplitude_limit,
    threshold_energy,
    threshold_transport,
    universality_probe,
)
from wirescat.cli import main as cli_main

PI = math.pi
OM_2 = (2 * PI) ** 2

# the strength-independent resonant coefficient sin(0.3 pi)/sin(0.6 pi)
TARGET_COEF = math.sin(0.3 * PI) / math.sin(0.6 * PI)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_universality():
    limits = [
        threshold_amplitude_limit(Impurity(0.3, rho0), 1, 2)
        for rho0 in (1e-5, 1e-3, 1e-1)
    ]
    spread = max(abs(a - b) for a in limits for b in limits)
    deviation = max(abs(c - TARGET_COEF) for c in limits)
    report(1, spread < 1e-8 and deviation < 1e-6,
           f"limit coefficient spread {spread:.2e} (<1e-8), "
           f"deviation from closed form {deviation:.2e} (<1e-6)")


def test_criterion_02_conductance_quantization():
    rng = np.random.default_rng(2024)
    exact = []
    for _ in range(5):
        imp = Impurity(float(rng.uniform(0.05, 0.95)), float(10 ** rng.uniform(-5, -1)))
        exact.append(threshold_transport(imp, 2).conductance)
    quantized = all(g == 1.0 for g in exact)

    imp = Impurity(0.3, 0.01)
    delta2 = 1.0 / abs(resonance_parameter(imp, 2)) ** 2
    offsets = delta2 * np.array([1e-5, 1e-6, 3e-7, 1e-7, 1e-8])
    points = sweep(imp, threshold_energy(2) + offsets)
    worst = 0.0
    for off, pt in zip(offsets, points):
        if off < 1e-6 * delta2:
            worst = max(worst, abs(pt.result.transmission[0, 0] - 1.0))
    report(2, quantized and worst < 1e-3,
           f"threshold conductance exactly 1 for 5 random impurities: {quantized}; "
           f"max |T_11 - 1| = {worst:.2e} (<1e-3) once offset < 1e-6 |Delta_2|")


def test_criterion_03_off_resonant_amplitude_scaling():
    imp = Impurity(0.3, 0.01)
    deltas = OM_2 * np.logspace(-7, -3, 17)  # four decades
    amps = [abs(scattering_amplitude(imp, 1, 1, OM_2 + d, m=2)) for d in deltas]
    slope = float(np.polyfit(np.log(deltas), np.log(amps), 1)[0])
    report(3, abs(slope - 0.5) < 0.05,
           f"log-log slope of |A_11| vs (omega - (2 pi)^2) = {slope:.4f} (0.5 +- 0.05)")


def test_criterion_04_surface_impurity_constant():
    c = surface_constant()
    rel = abs(c - 4.9591) / 4.9591
    report(4, rel < 5e-4 and abs(c - 5.0) / 5.0 < 0.05,
           f"C = {c:.6f}, {rel:.2e} relative from derived 4.9591, consistent with ~5")


def test_criterion_05_resonance_parameter_surface_consistency():
    # rho0 chosen small enough that the wall formula's own O(mc eps)
    # truncation stays below the 1% budget
    imp = Impurity(1e-3, 1e-7)
    full = resonance_parameter(imp, 2)
    surf = surface_resonance_parameter(imp, 2)
    rel = abs(full.real - surf.real) / abs(full.real)
    report(5, rel < 0.01, f"Re Delta_2^(-1/2) full vs wall formula: {rel:.4%} (<1%)")


def test_criterion_06_flux_unitarity_sweep():
    imp = Impurity(0.3, 0.01)
    omegas = [o for o in np.linspace(1.1, 8.9, 200) * PI**2
              if min(abs(o - threshold_energy(q)) for q in (1, 2, 3)) > 0.1]
    points = sweep(imp, omegas)
    worst = max(pt.result.unitarity_defect for pt in points if pt.ok)
    ok = all(pt.ok for pt in points) and worst < 1e-8
    report(6, ok, f"max unitarity defect over {len(points)}-point sweep: {worst:.2e} (<1e-8)")


def test_criterion_07_oracle_agreement():
    t0 = time.time()
    omega = OM_2 * 1.05
    imp = Impurity(0.3, 0.01)
    wire = DiscreteWire(eps=0.3, rho=0.04, rho0=0.01, h_x=1 / 400, h_y=1 / 400)
    ladder = oracle_solve_ladder(wire, 1, omega, (0.04, 0.02, 0.01))
    ext = extrapolate_to_zero_width(ladder)
    ana = solve_scattering(imp, 1, omega)
    rel1 = abs(ext.amplitude[0] - ana.amplitudes[1]) / abs(ana.amplitudes[1])
    rel2 = abs(ext.amplitude[1] - ana.amplitudes[2]) / abs(ana.amplitudes[2])
    elapsed = time.time() - t0
    report(7, rel1 < 0.02 and rel2 < 0.02 and elapsed < 300.0,
           f"extrapolated lattice amplitudes vs analytic: A_11 {rel1:.3%}, "
           f"A_12 {rel2:.3%} (<2%), runtime {elapsed:.1f}s (<300s)")


def test_criterion_08_oracle_universality_probe():
    wire = DiscreteWire(eps=0.3, rho=0.04, rho0=0.01, h_x=1 / 400, h_y=1 / 400)
    probe = universality_probe(wire, 1, 2, (1e-3, 1e-2, 1e-1), offset_scale=1e-4)
    report(8, probe.spread < 0.05 and probe.mean_deviation < 0.05,
           f"resonant coefficient across strengths: spread {probe.spread:.3%}, "
           f"mean deviation {probe.mean_deviation:.3%} (both <5%)")


def test_criterion_09_one_dimensional_reference():
    zero_energy = all(
        reflection_1d(OneDBarrier(kind="delta", alpha=a), 0.0) == 1.0
        for a in (1e-3, 0.05, 1.0, 40.0)
    )
    half = reflection_1d(OneDBarrier(kind="delta", alpha=0.6), 0.6**2 / 4.0)
    alpha, width = 0.05, 1e-3
    weak = OneDBarrier(kind="weak-finite", delta_v=alpha / width, width=width)
    delta = OneDBarrier(kind="delta", alpha=alpha)
    dev = max(abs(reflection_1d(weak, w) - reflection_1d(delta, w))
              for w in (0.01, 0.1, 1.0, 10.0))
    report(9, zero_energy and half == 0.5 and dev < 1e-4,
           f"R(0) = 1 for all strengths: {zero_energy}; R(alpha^2/4) = {half} (= 1/2); "
           f"weak-vs-delta deviation {dev:.2e} (<1e-4 at width 1e-3)")


def test_criterion_10_density_grids_match_closed_forms(tmp_path):
    clean = tmp_path / "clean.csv"
    rc = cli_main(["field", "--field-mode", "clean", "--mode-n", "1",
                   "--omega", repr(OM_2), "--nx", "21", "--ny", "31",
                   "--out", str(clean)])
    worst_clean = 0.0
    for line in clean.read_text().strip().splitlines()[1:]:
        x, y, density = (float(t) for t in line.split(","))
        worst_clean = max(worst_clean, abs(density - math.sin(PI * y) ** 2))

    thr = tmp_path / "threshold.csv"
    rc2 = cli_main(["field", "--field-mode", "threshold", "--mode-n", "1",
                    "--threshold-m", "2", "--epsilon", "0.25", "--rho0", "0.01",
                    "--nx", "21", "--ny", "31", "--out", str(thr)])
    worst_thr = 0.0
    k = PI * math.sqrt(3.0)
    coef = math.sin(0.25 * PI) / math.sin(0.5 * PI)
    for line in thr.read_text().strip().splitlines()[1:]:
        x, y, density = (float(t) for t in line.split(","))
        ref = abs(math.sin(PI * y) * np.exp(1j * k * x)
                  - coef * math.sin(2 * PI * y)) ** 2
        worst_thr = max(worst_thr, abs(density - ref))
    report(10, rc == 0 and rc2 == 0 and worst_clean < 1e-14 and worst_thr < 1e-10,
           f"clean grid vs sin^2(pi y): {worst_clean:.2e} (<1e-14); cut-off grid vs "
           f"closed form: {worst_thr:.2e} (<1e-10)")


def test_criterion_11_regularized_scale_robustness():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 6))
        eps = float(rng.uniform(0.05, 0.95))
        gap = threshold_energy(m + 1) - threshold_energy(m)
        omega = threshold_energy(m) + float(rng.uniform(-0.3, 0.7)) * gap
        a = regularized_scale(eps, omega, m)
        b = regularized_scale_tail_subtraction(eps, omega, m)
        worst = max(worst, abs(a - b) / b)
    report(11, worst < 1e-7,
           f"ladder vs analytic tail subtraction over 20 random configs: "
           f"max relative gap {worst:.2e} (<1e-7)")
