import numpy as np
import pytest

from sagnac_wva.config import ExperimentConfig
from sagnac_wva.engine import SchemeKind, mean_shift_analytic
from sagnac_wva.errors import (
    NonMonotonicCalibration,
    OutOfRangeObservation,
    ValidationError,
)
from sagnac_wva.estimation import (
    calibration_curve,
    estimate_omega_analytic,
    estimate_omega_numeric,
)
from sagnac_wva.sagnac import coupling_length
from sagnac_wva.spectrum import GridSpec


def _config(**overrides):
    base = dict(
        lambda0_nm=833.0,
        fwhm_nm=20.0,
        area_m2=1000.0,
        phi_rad=1e-4,
        omega_rad_per_s=1e-9,
        scheme="swm",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _forward_analytic(config, scheme, omega):
    g = coupling_length(omega, config.area_m2, config.lambda0_m())
    return mean_shift_analytic(
        scheme, g, config.probe(), config.phi_rad,
        config.delta_lambda_means, config.paper_literal,
    ).delta_lambda


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_analytic_round_trip(scheme_name):
    config = _config(scheme=scheme_name)
    scheme = SchemeKind(scheme_name)
    for omega in np.geomspace(1e-12, 1e-6, 7):
        obs = _forward_analytic(config, scheme, omega)
        est = estimate_omega_analytic(obs, scheme, config)
        assert est.omega_hat == pytest.approx(omega, rel=1e-9)
        assert est.residual <= 1e-15 * abs(obs)
        assert est.method == "analytic-closed-form"


def test_analytic_round_trip_in_literal_and_sigma_modes():
    for overrides in ({"paper_literal": True}, {"delta_lambda_means": "sigma"}):
        config = _config(scheme="bwm", **overrides)
        obs = _forward_analytic(config, SchemeKind.BWM, 3e-9)
        est = estimate_omega_analytic(obs, SchemeKind.BWM, config)
        assert est.omega_hat == pytest.approx(3e-9, rel=1e-9)


def test_analytic_zero_and_linearity():
    config = _config(scheme="bwm")
    assert estimate_omega_analytic(0.0, SchemeKind.BWM, config).omega_hat == 0.0
    one = estimate_omega_analytic(1e-9, SchemeKind.BWM, config).omega_hat
    two = estimate_omega_analytic(2e-9, SchemeKind.BWM, config).omega_hat
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_numeric_round_trip_standard_scheme():
    config = _config(scheme="swm")
    curve = calibration_curve(config, 1e-10, 1e-8, 10, mode="numeric")
    assert curve.monotone_flag
    obs = curve.delta_lambda_values[5]  # forward value at an interior ladder point
    est = estimate_omega_numeric(obs, curve)
    assert est.omega_hat == pytest.approx(curve.omega_values[5], rel=1e-4)
    assert est.method == "numeric-bisection"


def test_numeric_round_trip_biased_full_law():
    config = _config(scheme="bwm")
    curve = calibration_curve(config, 1e-10, 1e-8, 8, mode="numeric")
    assert curve.monotone_flag
    obs = curve.delta_lambda_values[4]
    est = estimate_omega_numeric(obs, curve)
    assert est.omega_hat == pytest.approx(curve.omega_values[4], rel=1e-4)


def test_biased_literal_calibration_is_not_monotone():
    # the simplified sin^2(p*g) density is even around its vanishing mean
    # shift at these couplings, so the sampled curve cannot be monotone
    config = _config(scheme="bwm", paper_literal=True)
    curve = calibration_curve(config, 1e-10, 1e-8, 8, mode="numeric")
    assert not curve.monotone_flag
    with pytest.raises(NonMonotonicCalibration):
        estimate_omega_numeric(curve.delta_lambda_values[3], curve)


def test_non_monotone_refusal_precedes_range_check():
    config = _config(scheme="bwm", paper_literal=True)
    curve = calibration_curve(config, 1e-10, 1e-8, 8, mode="numeric")
    with pytest.raises(NonMonotonicCalibration):
        estimate_omega_numeric(1.0, curve)


def test_out_of_range_observation_refused():
    config = _config(scheme="swm")
    curve = calibration_curve(config, 1e-10, 1e-8, 6, mode="numeric")
    with pytest.raises(OutOfRangeObservation):
        estimate_omega_numeric(10.0 * np.max(np.abs(curve.delta_lambda_values)), curve)


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_analytic_curves_are_monotone(scheme_name):
    config = _config(scheme=scheme_name)
    curve = calibration_curve(config, 1e-10, 1e-8, 12, mode="analytic")
    assert curve.monotone_flag
    assert np.all(np.diff(curve.omega_values) > 0.0)


def test_curve_minimal_point_count():
    curve = calibration_curve(_config(), 1e-10, 1e-8, 2, mode="analytic")
    assert curve.omega_values.size == 2
    assert curve.delta_lambda_values.size == 2


def test_curve_linear_spacing():
    curve = calibration_curve(_config(), 0.0, 1e-8, 5, mode="analytic", spacing="linear")
    assert curve.omega_values[0] == 0.0
    assert np.allclose(np.diff(curve.omega_values), 2.5e-9)


def test_curve_validation():
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-10, 1e-8, 5, mode="magic")
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-10, 1e-8, 5, mode="analytic", spacing="cubic")
    with pytest.raises(ValueError):
        calibration_curve(_config(), -1e-10, 1e-8, 5, mode="analytic")
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-8, 1e-10, 5, mode="analytic")
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-10, 1e-8, 1, mode="analytic")
    with pytest.raises(ValueError):
        calibration_curve(_config(), 0.0, 1e-8, 5, mode="analytic", spacing="log")
    with pytest.raises(ValidationError):
        calibration_curve(_config(scheme="both"), 1e-10, 1e-8, 5, mode="analytic")


def test_bisection_is_deterministic():
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 6, mode="numeric")
    obs = 0.6 * curve.delta_lambda_values[-1]
    first = estimate_omega_numeric(obs, curve)
    second = estimate_omega_numeric(obs, curve)
    assert first.omega_hat == second.omega_hat
    assert first.residual == second.residual
