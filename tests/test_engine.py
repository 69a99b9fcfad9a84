import numpy as np
import pytest

from sagnac_wva.engine import (
    NUMERIC_CHUNK_ELEMENTS,
    SchemeKind,
    amplification_factor,
    bind_delta_lambda,
    compare_schemes,
    discrepancy_from_results,
    discrepancy_report,
    mean_shift_analytic,
    mean_shift_numeric,
    numeric_forward,
    postselected_spectrum,
    postselection_probability,
    scheme_spectrum,
    transfer_matrix_intensity,
)
from sagnac_wva.config import ExperimentConfig
from sagnac_wva.errors import PhiOutOfRange, ZeroTotalIntensity
from sagnac_wva.sagnac import bias_delay
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
        rel = np.abs(matrix - spec.intensity) / np.abs(spec.intensity)
        assert float(rel.max()) < 1e-12


def test_no_rotation_is_uniform_scaling():
    probe = _probe()
    spec = postselected_spectrum(probe, 0.0, PHI)
    expected = np.sin(PHI) ** 2 * probe.intensity
    assert np.allclose(spec.intensity, expected, rtol=1e-12)
    assert postselection_probability(spec) == pytest.approx(np.sin(PHI) ** 2, rel=1e-12)
    shift = mean_shift_numeric(spec, probe)
    assert abs(shift.delta_p) < 1e-12 * probe.p0


def test_biased_no_rotation_destructive_at_center():
    probe = _probe()
    spec = postselected_spectrum(probe, 0.0, PHI, bias_delay(PHI, LAMBDA0, 0))
    mid = probe.p_grid.size // 2
    assert spec.intensity[mid] < 1e-20 * probe.intensity.max()
    # full-law closed form reduces to sin^2(phi*(1 - p/p0)) at g=0
    oracle = np.sin(PHI * (1.0 - probe.p_grid / probe.p0)) ** 2 * probe.intensity
    assert np.allclose(spec.intensity, oracle, rtol=1e-9, atol=1e-40)


def test_standard_scheme_frozen_values():
    probe = _probe()
    spec = postselected_spectrum(probe, G_SLOW, PHI)
    shift = mean_shift_numeric(spec, probe)
    assert shift.delta_p == pytest.approx(SWM_DP, rel=1e-9)
    assert shift.delta_lambda == pytest.approx(SWM_DL, rel=1e-9)
    assert postselection_probability(spec) == pytest.approx(SWM_PROB, rel=1e-9)


def test_standard_scheme_matches_dense_quadrature():
    probe = _probe()
    shift = mean_shift_numeric(postselected_spectrum(probe, G_SLOW, PHI), probe)
    assert shift.delta_p == pytest.approx(SWM_DP_DENSE, rel=1e-6)


def test_standard_scheme_analytic_deviation_is_pinned():
    # the exact mean shift differs from 2*g*sigma_p^2*cot(phi) by close to
    # (but measurably more than) 1e-3 at these parameters; keep the gap honest
    probe = _probe()
    shift = mean_shift_numeric(postselected_spectrum(probe, G_SLOW, PHI), probe)
    dev = abs(shift.delta_p - SWM_DP_ANALYTIC) / SWM_DP_ANALYTIC
    assert 1.0045e-3 < dev < 1.0065e-3


def test_biased_scheme_frozen_values():
    probe = _probe()
    bias = bias_delay(PHI, LAMBDA0, 0)
    spec = postselected_spectrum(probe, G_SLOW, PHI, bias)
    shift = mean_shift_numeric(spec, probe)
    assert shift.delta_p == pytest.approx(BWM_DP, rel=1e-9)
    assert shift.delta_lambda == pytest.approx(BWM_DL, rel=1e-9)
    assert postselection_probability(spec) == pytest.approx(BWM_PROB, rel=1e-9)
    assert shift.delta_p == pytest.approx(BWM_DP_DENSE, rel=1e-6)


def test_biased_literal_frozen_values():
    probe = _probe()
    bias = bias_delay(PHI, LAMBDA0, 0)
    spec = postselected_spectrum(probe, G_SLOW, PHI, bias, paper_literal=True)
    shift = mean_shift_numeric(spec, probe)
    assert shift.delta_p == pytest.approx(BWM_LIT_DP, rel=1e-9)
    prob = postselection_probability(spec)
    assert prob == pytest.approx(BWM_LIT_PROB, rel=1e-9)
    # small-angle oracle for the simplified density: g^2*(p0^2 + sigma_p^2)
    assert prob == pytest.approx(G_SLOW**2 * (probe.p0**2 + probe.sigma_p**2), rel=1e-9)
    # the matrix route always carries the full law, so the two differ here
    matrix = transfer_matrix_intensity(probe, G_SLOW, PHI, bias)
    assert not np.allclose(spec.intensity, matrix, rtol=1e-3, atol=0.0)


def test_analytic_shifts_frozen_values():
    probe = _probe()
    swm = mean_shift_analytic(SchemeKind.SWM, G_SLOW, probe, PHI)
    bwm = mean_shift_analytic(SchemeKind.BWM, G_SLOW, probe, PHI)
    assert swm.delta_p == pytest.approx(SWM_DP_ANALYTIC, rel=1e-12)
    assert bwm.delta_p == pytest.approx(BWM_DP_ANALYTIC, rel=1e-12)
    assert swm.delta_lambda == pytest.approx(SWM_DL_ANALYTIC, rel=1e-12)
    assert bwm.delta_lambda == pytest.approx(BWM_DL_ANALYTIC, rel=1e-12)


def test_analytic_literal_uses_inverse_angle():
    probe = _probe()
    lit = mean_shift_analytic(SchemeKind.BWM, G_SLOW, probe, PHI, paper_literal=True)
    assert lit.delta_lambda == pytest.approx(4.0 * np.pi * G_SLOW / PHI, rel=1e-12)
    assert lit.delta_lambda == pytest.approx(1.6766760175613455e-09, rel=1e-12)


def test_analytic_sigma_reading():
    probe = _probe()
    swm = mean_shift_analytic(SchemeKind.SWM, G_SLOW, probe, PHI, delta_lambda_means="sigma")
    expected = 4.0 * np.pi * G_SLOW / np.tan(PHI) * (probe.sigma_p / probe.p0) ** 2
    assert swm.delta_lambda == pytest.approx(expected, rel=1e-12)


def test_analytic_rejects_bad_angles():
    probe = _probe()
    for phi in (0.0, -0.1, np.pi / 2.0, 2.0):
        with pytest.raises(PhiOutOfRange):
            mean_shift_analytic(SchemeKind.SWM, G_SLOW, probe, phi)


def test_amplification_factor_reference():
    probe = _probe()
    assert amplification_factor(probe, "fwhm") == pytest.approx(1734.7225, rel=1e-12)
    assert amplification_factor(probe, "sigma") == pytest.approx(9619.3440794312, rel=1e-10)


def test_amplification_equals_analytic_ratio():
    rng = np.random.default_rng(23)
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
            assert ratio == pytest.approx(amplification_factor(probe, reading), rel=1e-12)


def test_small_coupling_law():
    # for g*p0 well below phi the numeric shift tracks 2*g*sigma_p^2*cot(phi)
    probe = _probe()
    rng = np.random.default_rng(29)
    for _ in range(5):
        phi = rng.uniform(5e-4, 0.5)
        g = 1e-3 * phi / probe.p0 * rng.uniform(0.05, 1.0)
        shift = mean_shift_numeric(postselected_spectrum(probe, g, phi), probe)
        expected = 2.0 * g * probe.sigma_p**2 / np.tan(phi)
        assert shift.delta_p == pytest.approx(expected, rel=1e-3)


def test_sign_flip_with_rotation_direction():
    probe = _probe()
    fwd = mean_shift_numeric(postselected_spectrum(probe, G_SLOW, PHI), probe)
    rev = mean_shift_numeric(postselected_spectrum(probe, -G_SLOW, PHI), probe)
    assert rev.delta_p == pytest.approx(-fwd.delta_p, rel=1e-2)


def test_shift_scales_with_width_squared():
    probe = _probe()
    narrow = gaussian_probe(LAMBDA0, FWHM / 2.0)
    wide_dp = mean_shift_numeric(postselected_spectrum(probe, G_SLOW, PHI), probe).delta_p
    narrow_dp = mean_shift_numeric(
        postselected_spectrum(narrow, G_SLOW, PHI), narrow
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
    probe = config.probe()
    for res in compare_schemes(config):
        spec = scheme_spectrum(config, res.scheme, probe)
        shift = mean_shift_numeric(spec, probe)
        assert res.delta_p_numeric == shift.delta_p
        assert res.delta_lambda_numeric == shift.delta_lambda
        assert res.postselect_prob_numeric == postselection_probability(spec)
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
    probe = config.probe()
    omegas = np.geomspace(1e-10, 1e-8, n_rates)
    assert n_rates > 2 * (NUMERIC_CHUNK_ELEMENTS // points)  # three blocks or more
    spectra = [scheme_spectrum(config, scheme, probe, omega) for omega in omegas]
    loop_shift = [mean_shift_numeric(spec, probe).delta_lambda for spec in spectra]
    loop_prob = [postselection_probability(spec) for spec in spectra]
    batched = bind_delta_lambda(config, scheme, probe, "numeric")(omegas)
    assert np.array_equal(batched, loop_shift)
    assert np.array_equal(numeric_forward(config, scheme, probe)(omegas).probability, loop_prob)
    # one rate at a time, as the bisection calls it
    assert float(numeric_forward(config, scheme, probe)(omegas[3]).delta_lambda[0]) == loop_shift[3]


@pytest.mark.parametrize("mode", ["numeric", "analytic"])
def test_bound_delta_lambda_flattens_a_rate_array(mode):
    config = _config(grid=GridSpec(points=401))
    probe = config.probe()
    omegas = np.geomspace(1e-10, 1e-8, 6).reshape(2, 3)
    forward = bind_delta_lambda(config, SchemeKind.SWM, probe, mode)
    shifts = forward(omegas)
    assert shifts.shape == (6,)
    assert np.array_equal(shifts, forward(omegas.ravel()))


def test_zero_intensity_rate_inside_a_block_raises():
    # at zero rotation the paper-literal biased density sin^2(p*g) vanishes
    config = _config(scheme="bwm", paper_literal=True, grid=GridSpec(points=1001))
    probe = config.probe()
    omegas = np.array([1e-9, 2e-9, 0.0, 3e-9])
    assert NUMERIC_CHUNK_ELEMENTS // 1001 > omegas.size  # one block
    forward = numeric_forward(config, SchemeKind.BWM, probe)
    assert np.all(forward(np.delete(omegas, 2)).probability > 0.0)
    with pytest.raises(ZeroTotalIntensity):
        forward(omegas)
    with pytest.raises(ZeroTotalIntensity):
        bind_delta_lambda(config, SchemeKind.BWM, probe, "numeric")(omegas)
