import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sagnac_wva.engine import (
    NUMERIC_CHUNK_ELEMENTS,
    SchemeKind,
    _law,
    amplification_factor,
    analytic_shift,
    compare_schemes,
    discrepancy_from_results,
    discrepancy_report,
    mean_shift_numeric,
    numeric_forward,
    postselected_spectrum,
    postselection_probability,
    scheme_spectrum,
    transfer_matrix_intensity,
)
from sagnac_wva.config import ExperimentConfig
from sagnac_wva.errors import NonFiniteResult, ZeroTotalIntensity
from sagnac_wva.estimation import omega_ladder
from sagnac_wva.sagnac import SPEED_OF_LIGHT, bias_delay
from sagnac_wva.spectrum import GridSpec, gaussian_probe

LAMBDA0 = 833e-9
FWHM = 20e-9
PHI = 1e-4
# coupling length at Omega = 1.0e-9 rad/s with a 1000 m^2 loop
G_SLOW = 1.3342563807926084e-14

# frozen default-grid pipeline outputs at the reference parameters
SWM_DP = 1.5767275914549828
SWM_DL = -1.7412727433917074e-13
SWM_PROB = 1.0020138259635465e-08
BWM_DP = -15050.710647271015
BWM_DL = 1.6621382387673293e-09
BWM_PROB = 1.047609004703547e-12
BWM_LIT_DP = 1568.1017003627494
BWM_LIT_PROB = 1.012962706109056e-14

# closed-form values: 2*g*sigma_p^2*cot(phi) etc.
SWM_DP_ANALYTIC = 1.5783145384897763
BWM_DP_ANALYTIC = 15182.35061130182
SWM_DL_ANALYTIC = 9.665384590171776e-13
BWM_DL_ANALYTIC = 1.6766760119724255e-09

# independent dense-quadrature evaluation of the same integrals (10 sigma,
# 400001 nodes), pinning how far the default grid sits from the continuum
SWM_DP_DENSE = 1.5767277022823691
BWM_DP_DENSE = -15050.71065788716


def _probe(**kw):
    return gaussian_probe(LAMBDA0, FWHM, **kw)


def _config(**overrides):
    base = dict(
        lambda0_nm=833.0,
        fwhm_nm=20.0,
        area_m2=1000.0,
        phi_rad=PHI,
        omega_rad_per_s=1e-9,
        scheme="both",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_dual_route_agreement_random_tuples():
    probe = _probe(grid=GridSpec(points=801))
    rng = np.random.default_rng(17)
    for _ in range(10):
        phi = rng.uniform(1e-2, 1.4)
        g = rng.uniform(-1e-13, 1e-13)
        psi = rng.uniform(-1e-12, 1e-12)
        spec = postselected_spectrum(probe, g, phi, psi)
        matrix = transfer_matrix_intensity(probe, g, phi, psi)
        rel = np.abs(matrix - spec) / np.abs(spec)
        assert float(rel.max()) < 1e-12


def test_no_rotation_is_uniform_scaling():
    probe = _probe()
    spec = postselected_spectrum(probe, 0.0, PHI)
    expected = np.sin(PHI) ** 2 * probe.intensity
    assert np.allclose(spec, expected, rtol=1e-12)
    assert postselection_probability(probe, spec) == pytest.approx(np.sin(PHI) ** 2, rel=1e-12)
    shift = mean_shift_numeric(probe, spec)
    assert abs(shift.delta_p) < 1e-12 * probe.p0


def test_biased_no_rotation_destructive_at_center():
    probe = _probe()
    spec = postselected_spectrum(probe, 0.0, PHI, bias_delay(PHI, LAMBDA0, 0))
    mid = probe.p_grid.size // 2
    assert spec[mid] < 1e-20 * probe.intensity.max()
    # full-law closed form reduces to sin^2(phi*(1 - p/p0)) at g=0
    oracle = np.sin(PHI * (1.0 - probe.p_grid / probe.p0)) ** 2 * probe.intensity
    assert np.allclose(spec, oracle, rtol=1e-9, atol=1e-40)


def test_standard_scheme_frozen_values():
    probe = _probe()
    spec = postselected_spectrum(probe, G_SLOW, PHI)
    shift = mean_shift_numeric(probe, spec)
    assert shift.delta_p == pytest.approx(SWM_DP, rel=1e-9)
    assert shift.delta_lambda == pytest.approx(SWM_DL, rel=1e-9)
    assert postselection_probability(probe, spec) == pytest.approx(SWM_PROB, rel=1e-9)


def test_standard_scheme_matches_dense_quadrature():
    probe = _probe()
    shift = mean_shift_numeric(probe, postselected_spectrum(probe, G_SLOW, PHI))
    assert shift.delta_p == pytest.approx(SWM_DP_DENSE, rel=1e-6)


def test_standard_scheme_analytic_deviation_is_pinned():
    # the exact mean shift differs from 2*g*sigma_p^2*cot(phi) by close to
    # (but measurably more than) 1e-3 at these parameters; keep the gap honest
    probe = _probe()
    shift = mean_shift_numeric(probe, postselected_spectrum(probe, G_SLOW, PHI))
    dev = abs(shift.delta_p - SWM_DP_ANALYTIC) / SWM_DP_ANALYTIC
    assert 1.0045e-3 < dev < 1.0065e-3


def test_biased_scheme_frozen_values():
    probe = _probe()
    bias = bias_delay(PHI, LAMBDA0, 0)
    spec = postselected_spectrum(probe, G_SLOW, PHI, bias)
    shift = mean_shift_numeric(probe, spec)
    assert shift.delta_p == pytest.approx(BWM_DP, rel=1e-9)
    assert shift.delta_lambda == pytest.approx(BWM_DL, rel=1e-9)
    assert postselection_probability(probe, spec) == pytest.approx(BWM_PROB, rel=1e-9)
    assert shift.delta_p == pytest.approx(BWM_DP_DENSE, rel=1e-6)


def test_biased_literal_frozen_values():
    probe = _probe()
    # the published simplified law sin^2(p*g): phi and psi_pre both 0
    spec = postselected_spectrum(probe, G_SLOW, 0.0)
    shift = mean_shift_numeric(probe, spec)
    assert shift.delta_p == pytest.approx(BWM_LIT_DP, rel=1e-9)
    prob = postselection_probability(probe, spec)
    assert prob == pytest.approx(BWM_LIT_PROB, rel=1e-9)
    # small-angle oracle for the simplified density: g^2*(p0^2 + sigma_p^2)
    assert prob == pytest.approx(G_SLOW**2 * (probe.p0**2 + probe.sigma_p**2), rel=1e-9)
    # the matrix route always carries the full law, so the two differ here
    matrix = transfer_matrix_intensity(probe, G_SLOW, PHI, bias_delay(PHI, LAMBDA0, 0))
    assert not np.allclose(spec, matrix, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize(
    "scheme_name,paper_literal,order",
    [("swm", False, 1), ("bwm", False, 0), ("bwm", False, 1), ("bwm", False, 2), ("bwm", True, 1)],
    ids=["swm", "bwm-0", "bwm-1", "bwm-2", "bwm-literal"],
)
def test_law_phase_at_p0(scheme_name, paper_literal, order):
    # at p0 the full law's phase p0*(g + psi_pre) + phi is g*p0 + phi_at_p0
    # plus m*pi for the biased scheme, whose bias cancels phi there
    turns = order if scheme_name == "bwm" and not paper_literal else 0
    for phi in (1e-6, PHI, 0.7, 1.5):
        config = _config(
            scheme=scheme_name, paper_literal=paper_literal, bias_order_m=order, phi_rad=phi,
            grid=GridSpec(points=101),
        )
        p0 = config.probe.p0
        phi_law, psi_pre, phi_at_p0 = _law(config, SchemeKind(scheme_name))
        for g in (0.0, G_SLOW, -G_SLOW, 1e-9):
            delayed = p0 * (g + psi_pre)
            full = delayed + phi_law
            point = g * p0 + phi_at_p0
            # rounding is relative to the largest term, which for m = 0 is
            # the p0*psi_pre = -phi that cancels phi
            scale = max(abs(delayed), phi_law, abs(full), abs(point))
            assert abs(full - point - turns * np.pi) <= 4 * np.spacing(scale)


def test_analytic_shifts_frozen_values():
    config = _config()
    swm = analytic_shift(config, SchemeKind.SWM, config.omega_rad_per_s)
    bwm = analytic_shift(config, SchemeKind.BWM, config.omega_rad_per_s)
    assert swm.delta_p == pytest.approx(SWM_DP_ANALYTIC, rel=1e-12)
    assert bwm.delta_p == pytest.approx(BWM_DP_ANALYTIC, rel=1e-12)
    assert swm.delta_lambda == pytest.approx(SWM_DL_ANALYTIC, rel=1e-12)
    assert bwm.delta_lambda == pytest.approx(BWM_DL_ANALYTIC, rel=1e-12)


def test_analytic_literal_uses_inverse_angle():
    config = dataclasses.replace(_config(), paper_literal=True)
    lit = analytic_shift(config, SchemeKind.BWM, config.omega_rad_per_s)
    assert lit.delta_lambda == pytest.approx(4.0 * np.pi * G_SLOW / PHI, rel=1e-12)
    assert lit.delta_lambda == pytest.approx(1.6766760175613455e-09, rel=1e-12)


def test_analytic_sigma_reading():
    config = dataclasses.replace(_config(), delta_lambda_means="sigma")
    swm = analytic_shift(config, SchemeKind.SWM, config.omega_rad_per_s)
    probe = config.probe
    expected = 4.0 * np.pi * G_SLOW / np.tan(PHI) * (probe.sigma_p / probe.p0) ** 2
    assert swm.delta_lambda == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("reading", ["fwhm", "sigma"])
@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_analytic_shift_is_the_published_formula(scheme, literal, reading):
    # every input of the closed form comes from the scenario's own fields
    config = dataclasses.replace(
        _config(), paper_literal=literal, delta_lambda_means=reading, phi_rad=0.3
    )
    omegas = np.array([1e-9, -1.9e-8, 7.29e-5])
    shift = analytic_shift(config, scheme, omegas)
    lambda0 = config.lambda0_nm * 1e-9
    width = config.fwhm_nm * 1e-9
    sigma_lambda = width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    if reading == "sigma":
        width = sigma_lambda
    p0 = 2.0 * math.pi / lambda0
    sigma_p = 2.0 * math.pi * sigma_lambda / lambda0**2
    g = 4.0 * config.area_m2 * omegas / SPEED_OF_LIGHT
    cot = 1.0 / config.phi_rad if literal else 1.0 / math.tan(config.phi_rad)
    if scheme is SchemeKind.SWM:
        delta_p = 2.0 * g * sigma_p**2 * cot
        delta_lambda = 4.0 * math.pi * g * cot * (width / lambda0) ** 2
    else:
        delta_p = 2.0 * g * p0**2 * cot
        delta_lambda = 4.0 * math.pi * g * cot
    np.testing.assert_allclose(shift.delta_p, delta_p, rtol=1e-12)
    np.testing.assert_allclose(shift.delta_lambda, delta_lambda, rtol=1e-12)


def test_amplification_factor_reference():
    config = _config()
    assert amplification_factor(config) == pytest.approx(1734.7225, rel=1e-12)
    sigma = dataclasses.replace(config, delta_lambda_means="sigma")
    assert amplification_factor(sigma) == pytest.approx(9619.3440794312, rel=1e-10)


def test_amplification_equals_analytic_ratio():
    rng = np.random.default_rng(23)
    base = _config(grid=GridSpec(points=401))
    for _ in range(10):
        lam = rng.uniform(4e-7, 1.6e-6)
        fwhm = rng.uniform(0.005, 0.08) * lam
        phi = rng.uniform(1e-4, 1.0)
        g = rng.uniform(1e-16, 1e-12)
        omega = g * SPEED_OF_LIGHT / (4.0 * base.area_m2)
        for reading in ("fwhm", "sigma"):
            config = dataclasses.replace(
                base, lambda0_nm=lam * 1e9, fwhm_nm=fwhm * 1e9, phi_rad=phi,
                delta_lambda_means=reading,
            )
            swm = analytic_shift(config, SchemeKind.SWM, omega)
            bwm = analytic_shift(config, SchemeKind.BWM, omega)
            ratio = bwm.delta_lambda / swm.delta_lambda
            assert ratio == pytest.approx(amplification_factor(config), rel=1e-12)


def test_small_coupling_law():
    # for g*p0 well below phi the numeric shift tracks 2*g*sigma_p^2*cot(phi)
    probe = _probe()
    rng = np.random.default_rng(29)
    for _ in range(5):
        phi = rng.uniform(5e-4, 0.5)
        g = 1e-3 * phi / probe.p0 * rng.uniform(0.05, 1.0)
        shift = mean_shift_numeric(probe, postselected_spectrum(probe, g, phi))
        expected = 2.0 * g * probe.sigma_p**2 / np.tan(phi)
        assert shift.delta_p == pytest.approx(expected, rel=1e-3)


def test_sign_flip_with_rotation_direction():
    probe = _probe()
    fwd = mean_shift_numeric(probe, postselected_spectrum(probe, G_SLOW, PHI))
    rev = mean_shift_numeric(probe, postselected_spectrum(probe, -G_SLOW, PHI))
    assert rev.delta_p == pytest.approx(-fwd.delta_p, rel=1e-2)


def test_shift_scales_with_width_squared():
    probe = _probe()
    narrow = gaussian_probe(LAMBDA0, FWHM / 2.0)
    wide_dp = mean_shift_numeric(probe, postselected_spectrum(probe, G_SLOW, PHI)).delta_p
    narrow_dp = mean_shift_numeric(
        narrow, postselected_spectrum(narrow, G_SLOW, PHI)
    ).delta_p
    assert wide_dp / narrow_dp == pytest.approx(4.0, rel=1e-6)


def test_compare_schemes_fills_both_results():
    swm, bwm = compare_schemes(_config())
    assert swm.scheme is SchemeKind.SWM and bwm.scheme is SchemeKind.BWM
    assert swm.delta_p_numeric == pytest.approx(SWM_DP, rel=1e-9)
    assert bwm.delta_p_numeric == pytest.approx(BWM_DP, rel=1e-9)
    assert swm.postselect_prob_pointform == pytest.approx(1.0020138258582527e-08, rel=1e-12)
    assert bwm.postselect_prob_pointform == pytest.approx(1.0128574123041884e-14, rel=1e-12)
    for res in (swm, bwm):
        assert 0.0 <= res.postselect_prob_numeric <= 1.0
        assert 0.0 <= res.postselect_prob_pointform <= 1.0
        assert res.amplification_factor == pytest.approx(1734.7225, rel=1e-12)
    assert swm.postselect_prob_numeric > bwm.postselect_prob_numeric
    assert bwm.delta_lambda_analytic / swm.delta_lambda_analytic == pytest.approx(
        swm.amplification_factor, rel=1e-12
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"omega_rad_per_s": -1.9e-8, "bias_order_m": 2},
        {"omega_rad_per_s": 3e-9, "paper_literal": True, "grid": GridSpec(points=1001)},
        {"omega_rad_per_s": 0.0, "phi_rad": 0.3, "grid": GridSpec(points=16001)},
    ],
    ids=["default", "negative-rate-order-2", "paper-literal", "zero-rate-16001"],
)
def test_compare_schemes_numeric_fields_match_per_spectrum_reference(overrides):
    # compare reads the bound kernel; the one-spectrum route is its reference
    config = _config(**overrides)
    probe = config.probe
    for res in compare_schemes(config):
        spec = scheme_spectrum(config, res.scheme, config.omega_rad_per_s)
        shift = mean_shift_numeric(probe, spec)
        assert res.delta_p_numeric == shift.delta_p
        assert res.delta_lambda_numeric == shift.delta_lambda
        assert res.postselect_prob_numeric == postselection_probability(probe, spec)
        assert type(res.delta_p_numeric) is float


def test_compare_schemes_zero_rotation():
    swm, bwm = compare_schemes(_config(omega_rad_per_s=0.0))
    p0 = 2.0 * np.pi / LAMBDA0
    assert abs(swm.delta_p_numeric) < 1e-12 * p0
    assert abs(bwm.delta_p_numeric) < 1e-12 * p0


def test_discrepancy_report_schema():
    rows = discrepancy_report(_config())
    assert len(rows) == 6
    seen = {(row.scheme, row.quantity) for row in rows}
    assert seen == {
        (s, q)
        for s in (SchemeKind.SWM, SchemeKind.BWM)
        for q in ("delta_p", "delta_lambda", "postselect_prob")
    }


def test_discrepancy_biased_shift_row_reports_large_gap():
    rows = discrepancy_from_results(compare_schemes(_config()))
    by_key = {(r.scheme, r.quantity): r for r in rows}
    row = by_key[(SchemeKind.BWM, "delta_p")]
    assert np.isfinite(row.numeric) and np.isfinite(row.analytic)
    assert row.relative_difference > 0.5
    swm_row = by_key[(SchemeKind.SWM, "delta_p")]
    assert swm_row.relative_difference < 1.1e-3


@pytest.mark.parametrize(
    "scheme_name,paper_literal",
    [("swm", False), ("bwm", False), ("bwm", True)],
    ids=["swm", "bwm", "bwm-literal"],
)
@pytest.mark.parametrize("points,n_rates", [(16001, 7), (1001, 100)])
def test_numeric_forward_matches_per_rate_loop(scheme_name, paper_literal, points, n_rates):
    # the batched kernel against one spectrum and one mean shift per rate
    config = _config(
        scheme=scheme_name, paper_literal=paper_literal, bias_order_m=1,
        grid=GridSpec(points=points),
    )
    scheme = SchemeKind(scheme_name)
    probe = config.probe
    omegas = np.geomspace(1e-10, 1e-8, n_rates)
    assert n_rates > 2 * (NUMERIC_CHUNK_ELEMENTS // points)  # three blocks or more
    spectra = [scheme_spectrum(config, scheme, omega) for omega in omegas]
    loop_shift = [mean_shift_numeric(probe, spec).delta_lambda for spec in spectra]
    loop_prob = [postselection_probability(probe, spec) for spec in spectra]
    batched = numeric_forward(config, scheme)(omegas).delta_lambda
    assert np.array_equal(batched, loop_shift)
    assert np.array_equal(numeric_forward(config, scheme)(omegas).probability, loop_prob)
    # one rate at a time, as the bisection calls it
    assert float(numeric_forward(config, scheme)(omegas[3]).delta_lambda[0]) == loop_shift[3]


def test_numeric_forward_flattens_a_rate_array():
    config = _config(grid=GridSpec(points=401))
    omegas = np.geomspace(1e-10, 1e-8, 6).reshape(2, 3)
    forward = numeric_forward(config, SchemeKind.SWM)
    shifts = forward(omegas).delta_lambda
    assert shifts.shape == (6,)
    assert np.array_equal(shifts, forward(omegas.ravel()).delta_lambda)


def test_zero_intensity_rate_inside_a_block_raises():
    # at zero rotation the paper-literal biased density sin^2(p*g) vanishes
    config = _config(scheme="bwm", paper_literal=True, grid=GridSpec(points=1001))
    omegas = np.array([1e-9, 2e-9, 0.0, 3e-9])
    assert NUMERIC_CHUNK_ELEMENTS // 1001 > omegas.size  # one block
    forward = numeric_forward(config, SchemeKind.BWM)
    assert np.all(forward(np.delete(omegas, 2)).probability > 0.0)
    with pytest.raises(ZeroTotalIntensity):
        forward(omegas)
    with pytest.raises(ZeroTotalIntensity):
        numeric_forward(config, SchemeKind.BWM)(omegas).delta_lambda


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_numeric_forward_reuses_its_workspace():
    # once a bound model has evaluated a block, the same evaluations
    # allocate nothing of a block's size: a calibration ladder holds one
    # (rates, nodes) array, one rate not even one spectrum
    config = _config(scheme="bwm", bias_order_m=1, grid=GridSpec(points=1501))
    forward = numeric_forward(config, SchemeKind.BWM)
    ladder = omega_ladder(1e-10, 1e-8, 10)  # the default `estimate` ladder
    assert NUMERIC_CHUNK_ELEMENTS // 1501 >= ladder.size  # one block
    forward(ladder)
    forward(ladder[3])
    assert _traced_peak(lambda: forward(ladder)) < 2 * ladder.size * 1501 * 8
    assert _traced_peak(lambda: forward(ladder[3])) < 8 * 1024


@pytest.mark.parametrize(
    "scheme_name,paper_literal",
    [("swm", False), ("bwm", False), ("bwm", True)],
    ids=["swm", "bwm", "bwm-literal"],
)
def test_numeric_forward_workspace_never_leaks_into_results(scheme_name, paper_literal):
    # one model through calls of every block size, a workspace that grows
    # and a block that raises: each call gives a fresh model's bits, and no
    # result changes under a later call
    config = _config(
        scheme=scheme_name, paper_literal=paper_literal, bias_order_m=1,
        grid=GridSpec(points=201),
    )
    scheme = SchemeKind(scheme_name)
    assert NUMERIC_CHUNK_ELEMENTS // 201 >= 25  # 25 rates in one block
    forward = numeric_forward(config, scheme)
    ladder = omega_ladder(1e-10, 1e-8, 10)
    kept = []
    for omegas in (ladder, ladder[4], omega_ladder(1e-10, 1e-7, 25)):
        got = forward(omegas)
        kept.append((got, [field.copy() for field in got]))
        for field, fresh in zip(got, numeric_forward(config, scheme)(omegas)):
            assert np.array_equal(field, fresh)
    # paper-literal bwm vanishes at zero rotation; an overflowed coupling
    # (4*Omega*S is inf) makes any law NaN
    bad, error = (0.0, ZeroTotalIntensity) if paper_literal else (1e308, NonFiniteResult)
    with pytest.raises(error), np.errstate(over="ignore", invalid="ignore"):
        forward(np.array([1e-9, bad, 2e-9]))
    last = omega_ladder(3e-10, 3e-9, 7)
    for field, fresh in zip(forward(last), numeric_forward(config, scheme)(last)):
        assert np.array_equal(field, fresh)
    for got, copies in kept:
        for field, copy in zip(got, copies):
            assert np.array_equal(field, copy)


@pytest.mark.parametrize(
    "scheme_name,paper_literal",
    [("swm", False), ("bwm", False), ("bwm", True)],
    ids=["swm", "bwm", "bwm-literal"],
)
@pytest.mark.parametrize(
    "g", [G_SLOW, np.array([[-G_SLOW], [0.0], [3e3 * G_SLOW]])], ids=["scalar", "column"]
)
def test_postselected_spectrum_into_out_equals_the_literal_law(scheme_name, paper_literal, g):
    config = _config(scheme=scheme_name, paper_literal=paper_literal, bias_order_m=1)
    probe = config.probe
    phi, psi, _ = _law(config, SchemeKind(scheme_name))
    literal = np.sin(probe.p_grid * (g + psi) + phi) ** 2 * probe.intensity
    buf = np.full(literal.shape, np.nan)
    assert postselected_spectrum(probe, g, phi, psi, out=buf) is buf
    assert np.array_equal(buf, literal)
    assert np.array_equal(postselected_spectrum(probe, g, phi, psi), literal)
