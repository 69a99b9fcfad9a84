"""
Acceptance gate: ten numbered checks, one printed pass/fail line each.

Check 03 compares the exact gridded mean shift of the standard scheme with
the weak-value law 2*g*sigma_p^2*cot(phi + g*p0), taken at the working point
phi + g*p0 that the interferometer actually sits at. The leading-order form
2*g*sigma_p^2*cot(phi) drops the centre phase g*p0 and misses by ~1.0055e-3
relative at the reference parameters; that gap is reported in the detail line
and pinned in tests/test_engine.py.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from sagnac_wva.cli import FIGURE3_FILES, cli_main
from sagnac_wva.config import ExperimentConfig
from sagnac_wva.engine import (
    SchemeKind,
    amplification_factor,
    compare_schemes,
    discrepancy_from_results,
    mean_shift_analytic,
    mean_shift_numeric,
    postselected_spectrum,
    postselection_probability,
    transfer_matrix_intensity,
)
from sagnac_wva.errors import NonMonotonicCalibration
from sagnac_wva.estimation import (
    calibration_curve,
    estimate_omega_analytic,
    estimate_omega_numeric,
)
from sagnac_wva.sagnac import SPEED_OF_LIGHT, bias_delay, coupling_length, fringe_shift
from sagnac_wva.spectrum import GridSpec, gaussian_probe

LAMBDA0 = 833e-9
FWHM = 20e-9
AREA = 1000.0
PHI = 1e-4
OMEGA_SLOW = 1e-9

# hand-evaluated chain values at the reference parameters
DZ_REF = 1.6017483562936474e-08
DPHI_REF = 1.0064081738063299e-07
G_REF = 1.3342563807926084e-14

# point-form post-selection probabilities at the same parameters
SWM_POINT = 1.0020138258582527e-08
BWM_POINT = 1.0128574123041884e-14

README = Path(__file__).resolve().parents[1] / "README.md"


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    return detail


def _config(**overrides):
    base = dict(
        lambda0_nm=833.0,
        fwhm_nm=20.0,
        area_m2=AREA,
        phi_rad=PHI,
        omega_rad_per_s=OMEGA_SLOW,
        scheme="both",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _g(omega):
    return coupling_length(omega, AREA, _config().lambda0_m())


def test_criterion_01_coupling_chain():
    dz = fringe_shift(OMEGA_SLOW, AREA, _config().lambda0_m(), SPEED_OF_LIGHT)
    rels = (
        abs(dz - DZ_REF) / DZ_REF,
        abs(2.0 * np.pi * dz - DPHI_REF) / DPHI_REF,
        abs(_g(OMEGA_SLOW) - G_REF) / G_REF,
    )
    ok = max(rels) <= 1e-12
    detail = _criterion(1, "coupling-chain", ok, f"max rel {max(rels):.2e}")
    assert ok, detail


def test_criterion_02_spectrum_route_equivalence():
    probe = gaussian_probe(LAMBDA0, FWHM)
    rng = np.random.default_rng(20260822)
    worst = 0.0
    slowest = 0.0
    for _ in range(50):
        phi = rng.uniform(1e-2, 1.4)
        g = rng.uniform(-1e-13, 1e-13)
        psi = rng.uniform(-1e-12, 1e-12)
        start = time.perf_counter()
        spec = postselected_spectrum(probe, g, phi, psi)
        matrix = transfer_matrix_intensity(probe, g, phi, psi)
        slowest = max(slowest, time.perf_counter() - start)
        rel = np.abs(matrix - spec) / np.abs(spec)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-12 and slowest < 1.0
    detail = _criterion(
        2, "spectrum-route-equivalence", ok,
        f"max nodewise rel {worst:.2e}, slowest tuple {slowest:.3f}s",
    )
    assert ok, detail


def test_criterion_03_standard_shift_closed_form():
    probe = gaussian_probe(LAMBDA0, FWHM)
    shift = mean_shift_numeric(probe, postselected_spectrum(probe, G_REF, PHI))
    # weak-value law at the working point: the centre phase g*p0 counts
    working = 2.0 * G_REF * probe.sigma_p**2 / np.tan(PHI + G_REF * probe.p0)
    leading = 2.0 * G_REF * probe.sigma_p**2 / np.tan(PHI)
    rel = abs(shift.delta_p - working) / abs(working)
    rel_leading = abs(shift.delta_p - leading) / abs(leading)
    ok = rel <= 1e-3
    detail = _criterion(
        3, "standard-shift-closed-form", ok,
        f"rel vs cot(phi+g*p0) {rel:.6e} vs 1.0e-3, "
        f"rel vs leading-order cot(phi) {rel_leading:.6e}",
    )
    assert ok, detail


def test_criterion_04_amplification_identity():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(4e-7, 1.6e-6)
        fwhm = rng.uniform(0.005, 0.08) * lam
        phi = rng.uniform(1e-4, 1.0)
        g = rng.uniform(1e-16, 1e-12)
        probe = gaussian_probe(lam, fwhm, GridSpec(points=401))
        for reading in ("fwhm", "sigma"):
            swm = mean_shift_analytic(SchemeKind.SWM, g, probe, phi, reading)
            bwm = mean_shift_analytic(SchemeKind.BWM, g, probe, phi, reading)
            ratio = bwm.delta_lambda / swm.delta_lambda
            expected = amplification_factor(probe, reading)
            worst = max(worst, abs(ratio - expected) / expected)
    probe = gaussian_probe(LAMBDA0, FWHM)
    factor = amplification_factor(probe, "fwhm")
    readme = README.read_text(encoding="utf-8")
    documented = "1734.7" in readme and "about 40" in readme
    ok = (
        worst <= 1e-12
        and abs(factor - 1734.7225) / 1734.7225 <= 1e-12
        and documented
    )
    detail = _criterion(
        4, "amplification-identity", ok,
        f"identity rel {worst:.2e}, factor {factor:.4f}, readme notes {documented}",
    )
    assert ok, detail


def test_criterion_05_postselection_probabilities():
    # the biased integrated probability is checked against the simplified
    # density it was quoted for; the full-law value is ~100x larger and is
    # surfaced by the discrepancy table instead
    swm, bwm = compare_schemes(_config(paper_literal=True))
    checks = (
        abs(swm.postselect_prob_pointform - SWM_POINT) / SWM_POINT <= 1e-9,
        abs(bwm.postselect_prob_pointform - BWM_POINT) / BWM_POINT <= 1e-9,
        abs(swm.postselect_prob_numeric - swm.postselect_prob_pointform)
        / swm.postselect_prob_pointform
        <= 0.05,
        abs(bwm.postselect_prob_numeric - bwm.postselect_prob_pointform)
        / bwm.postselect_prob_pointform
        <= 0.05,
        swm.postselect_prob_numeric > bwm.postselect_prob_numeric,
    )
    ok = all(checks)
    detail = _criterion(
        5, "postselection-probabilities", ok,
        f"swm {swm.postselect_prob_numeric:.4e}, bwm {bwm.postselect_prob_numeric:.4e}",
    )
    assert ok, detail


def test_criterion_06_destructive_interference():
    probe = gaussian_probe(LAMBDA0, FWHM)
    spec = postselected_spectrum(probe, 0.0, PHI, bias_delay(PHI, LAMBDA0, 0))
    mid = probe.p_grid.size // 2
    ratio = spec[mid] / probe.intensity.max()
    ok = ratio < 1e-20
    detail = _criterion(6, "destructive-interference", ok, f"center ratio {ratio:.2e}")
    assert ok, detail


def test_criterion_07_shift_linearity():
    probe = gaussian_probe(LAMBDA0, FWHM)
    omegas = np.geomspace(1e-10, 1e-8, 10)
    shifts = np.array(
        [
            mean_shift_numeric(probe, postselected_spectrum(probe, _g(om), PHI)).delta_lambda
            for om in omegas
        ]
    )
    slope = float(np.dot(omegas, shifts) / np.dot(omegas, omegas))
    dev = float(np.max(np.abs(slope * omegas - shifts) / np.abs(shifts)))
    ok = dev <= 0.01
    detail = _criterion(7, "shift-linearity", ok, f"max dev {dev:.4%}")
    assert ok, detail


def test_criterion_08_estimator_round_trips():
    worst_analytic = 0.0
    for scheme_name in ("swm", "bwm"):
        config = _config(scheme=scheme_name)
        scheme = SchemeKind(scheme_name)
        probe = config.probe
        for omega in (1e-12, 1e-9, 1e-6):
            obs = mean_shift_analytic(
                scheme, _g(omega), probe, PHI, config.delta_lambda_means
            ).delta_lambda
            est = estimate_omega_analytic(obs, config)
            worst_analytic = max(worst_analytic, abs(est.omega_hat - omega) / omega)

    def numeric_obs(config, omega):
        probe = config.probe
        psi_pre = (
            bias_delay(PHI, config.lambda0_m(), config.bias_order_m)
            if config.scheme == "bwm" else 0.0
        )
        spec = postselected_spectrum(probe, _g(omega), PHI, psi_pre)
        return mean_shift_numeric(probe, spec).delta_lambda

    swm_config = _config(scheme="swm")
    curve = calibration_curve(swm_config, 1e-10, 1e-8, 8)
    est = estimate_omega_numeric(numeric_obs(swm_config, 3e-9), curve)
    swm_rel = abs(est.omega_hat - 3e-9) / 3e-9

    # the biased inversion must either recover the rate or refuse loudly
    bwm_config = _config(scheme="bwm")
    try:
        bwm_curve = calibration_curve(bwm_config, 1e-10, 1e-8, 8)
        bwm_est = estimate_omega_numeric(numeric_obs(bwm_config, 3e-9), bwm_curve)
        bwm_outcome = abs(bwm_est.omega_hat - 3e-9) / 3e-9
        bwm_ok = bwm_outcome <= 1e-4
        bwm_note = f"bwm rel {bwm_outcome:.2e}"
    except NonMonotonicCalibration:
        bwm_ok = True
        bwm_note = "bwm refused (non-monotone)"

    with pytest.raises(NonMonotonicCalibration):
        calibration_curve(_config(scheme="bwm", paper_literal=True), 1e-10, 1e-8, 8)

    ok = worst_analytic <= 1e-9 and swm_rel <= 1e-4 and bwm_ok
    detail = _criterion(
        8, "estimator-round-trips", ok,
        f"analytic rel {worst_analytic:.2e}, swm rel {swm_rel:.2e}, {bwm_note}",
    )
    assert ok, detail


def test_criterion_09_discrepancy_table():
    rows = discrepancy_from_results(compare_schemes(_config()))
    by_key = {(r.scheme.value, r.quantity): r for r in rows}
    bwm_row = by_key.get(("bwm", "delta_p"))
    ok = (
        len(rows) == 6
        and bwm_row is not None
        and np.isfinite(bwm_row.numeric)
        and np.isfinite(bwm_row.analytic)
        and bwm_row.relative_difference > 0.5
    )
    detail = _criterion(
        9, "discrepancy-table", ok,
        f"rows {len(rows)}, biased shift rel diff "
        f"{bwm_row.relative_difference:.3f}" if bwm_row else "missing biased row",
    )
    assert ok, detail


def test_criterion_10_cli_determinism(tmp_path):
    scenario = dict(
        lambda0_nm=833.0, fwhm_nm=20.0, area_m2=AREA, phi_rad=PHI,
        omega_rad_per_s=OMEGA_SLOW, scheme="both", grid={"points": 401},
    )
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(scenario), encoding="utf-8")
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        code = cli_main(["figure3", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        outputs.append({name: (out_dir / name).read_bytes() for name in FIGURE3_FILES})
    same = all(outputs[0][name] == outputs[1][name] for name in FIGURE3_FILES)
    names_ok = all(
        sorted(p.name for p in (tmp_path / run).iterdir()) == sorted(FIGURE3_FILES)
        for run in ("first", "second")
    )
    ok = same and names_ok
    detail = _criterion(
        10, "cli-determinism", ok, f"4 files, byte-identical {same}"
    )
    assert ok, detail
