import dataclasses
import math

import numpy as np
import pytest

from sagnac_wva.config import ExperimentConfig
from sagnac_wva.engine import (
    NumericForward,
    SchemeKind,
    analytic_shift,
    numeric_forward,
)
from sagnac_wva.errors import (
    NonMonotonicCalibration,
    OutOfRangeObservation,
    ValidationError,
)
from sagnac_wva.estimation import (
    BISECTION_MAX_ITER,
    BISECTION_REL_TOL,
    CalibrationCurve,
    calibration_curve,
    estimate_omega_analytic,
    estimate_omega_numeric,
    omega_ladder,
)
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


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_analytic_round_trip(scheme_name):
    config = _config(scheme=scheme_name)
    scheme = SchemeKind(scheme_name)
    for omega in np.geomspace(1e-12, 1e-6, 7):
        obs = analytic_shift(config, scheme, omega).delta_lambda
        est = estimate_omega_analytic(obs, config)
        assert est.omega_hat == pytest.approx(omega, rel=1e-9)
        assert est.residual <= 1e-15 * abs(obs)
        assert est.method == "analytic-closed-form"


def test_analytic_round_trip_in_literal_and_sigma_modes():
    for overrides in ({"paper_literal": True}, {"delta_lambda_means": "sigma"}):
        config = _config(scheme="bwm", **overrides)
        obs = analytic_shift(config, SchemeKind.BWM, 3e-9).delta_lambda
        est = estimate_omega_analytic(obs, config)
        assert est.omega_hat == pytest.approx(3e-9, rel=1e-9)


def test_analytic_zero_and_linearity():
    config = _config(scheme="bwm")
    assert estimate_omega_analytic(0.0, config).omega_hat == 0.0
    one = estimate_omega_analytic(1e-9, config).omega_hat
    two = estimate_omega_analytic(2e-9, config).omega_hat
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_analytic_estimate_reads_the_scheme_from_the_scenario():
    # the swm rate of -1e-12 m; a scheme argument that could name bwm instead is gone
    est = estimate_omega_analytic(-1e-12, _config(scheme="swm"))
    assert est.omega_hat == -1.0346199788230343e-09
    with pytest.raises(TypeError):
        estimate_omega_analytic(-1e-12, "swm", _config(scheme="swm"))
    with pytest.raises(ValidationError) as caught:
        estimate_omega_analytic(-1e-12, _config(scheme="both"))
    assert caught.value.field == "scheme"
    assert "--scheme" not in str(caught.value)


@pytest.mark.parametrize("observed", ["x", True, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("method", ["analytic", "numeric"])
def test_estimators_refuse_an_observation_that_is_not_a_finite_number(method, observed):
    config = _config(scheme="swm", grid=GridSpec(points=801))
    with pytest.raises(ValidationError) as caught:
        if method == "analytic":
            estimate_omega_analytic(observed, config)
        else:
            estimate_omega_numeric(observed, calibration_curve(config, 1e-10, 1e-8, 3))
    assert caught.value.field == "delta_lambda_m"


def test_numeric_round_trip_standard_scheme():
    config = _config(scheme="swm")
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    obs = curve.delta_lambda_values[5]  # forward value at an interior ladder point
    est = estimate_omega_numeric(obs, curve)
    assert est.omega_hat == pytest.approx(curve.omega_values[5], rel=1e-4)
    assert est.method == "numeric-bisection"


def test_numeric_round_trip_biased_full_law():
    config = _config(scheme="bwm")
    curve = calibration_curve(config, 1e-10, 1e-8, 8)
    obs = curve.delta_lambda_values[4]
    est = estimate_omega_numeric(obs, curve)
    assert est.omega_hat == pytest.approx(curve.omega_values[4], rel=1e-4)


def test_biased_literal_calibration_is_not_monotone():
    # the simplified sin^2(p*g) density is even around its vanishing mean
    # shift at these couplings, so the sampled curve is rounding noise: it
    # cannot be monotone, and even two samples (equal at 4001 nodes, apart
    # by a few ulps at 16001) step by less than the rounding floor; the curve
    # itself refuses, before any observation is read
    for nodes, points in ((4001, 8), (4001, 2), (16001, 2)):
        config = _config(scheme="bwm", paper_literal=True, grid=GridSpec(points=nodes))
        with pytest.raises(
            NonMonotonicCalibration,
            match=r"^bwm numeric calibration on \[1\.000e-10, 1\.000e-08\] rad/s is "
            r"not strictly monotone; refusing to invert$",
        ):
            calibration_curve(config, 1e-10, 1e-8, points)


def test_out_of_range_observation_refused():
    config = _config(scheme="swm")
    curve = calibration_curve(config, 1e-10, 1e-8, 6)
    with pytest.raises(OutOfRangeObservation):
        estimate_omega_numeric(10.0 * np.max(np.abs(curve.delta_lambda_values)), curve)


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_analytic_curves_are_monotone(scheme_name):
    config = _config(scheme=scheme_name)
    omegas = omega_ladder(1e-10, 1e-8, 12)
    shifts = analytic_shift(config, SchemeKind(scheme_name), omegas).delta_lambda
    diffs = np.diff(shifts)
    assert np.all(diffs > 0.0) or np.all(diffs < 0.0)
    assert np.all(np.diff(omegas) > 0.0)


def test_curve_minimal_point_count():
    curve = calibration_curve(_config(), 1e-10, 1e-8, 2)
    assert curve.omega_values.size == 2
    assert curve.delta_lambda_values.size == 2


def test_curve_is_log_spaced():
    curve = calibration_curve(_config(), 1e-10, 1e-8, 5)
    assert np.array_equal(curve.omega_values, np.geomspace(1e-10, 1e-8, 5))
    with pytest.raises(TypeError):
        calibration_curve(_config(), 1e-10, 1e-8, 5, spacing="log")
    assert [f.name for f in dataclasses.fields(CalibrationCurve)] == [
        "omega_values", "delta_lambda_values", "forward",
    ]


def test_curve_validation():
    with pytest.raises(ValueError):
        calibration_curve(_config(), -1e-10, 1e-8, 5)
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-8, 1e-10, 5)
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-10, 1e-8, 1)
    with pytest.raises(ValueError, match="log spacing requires omega_min > 0"):
        calibration_curve(_config(), 0.0, 1e-8, 5)
    with pytest.raises(ValidationError):
        calibration_curve(_config(scheme="both"), 1e-10, 1e-8, 5)


@pytest.mark.parametrize(
    "omega_min, omega_max, n_points, field",
    [
        (1e-10, 1e-8, 5.0, "points"),
        (1e-10, 1e-8, 2.5, "points"),
        (1e-10, 1e-8, True, "points"),
        (1e-10, 1e-8, "5", "points"),
        ("5", 1e-8, 5, "omega_min"),
        ("1e-10", 1e-8, 5, "omega_min"),
        (1e-10, "1e-8", 5, "omega_max"),
        (None, 1e-8, 5, "omega_min"),
    ],
    ids=[
        "float-count", "fractional-count", "bool-count", "string-count",
        "string-min", "string-min-exponent", "string-max", "none-min",
    ],
)
def test_ladder_refuses_non_integer_counts_and_non_real_rates(
    omega_min, omega_max, n_points, field
):
    # `calibration_curve` is public: its arguments are checked where they
    # enter, never left to numpy or a comparison to trip over
    with pytest.raises(ValidationError) as caught:
        calibration_curve(_config(), omega_min, omega_max, n_points)
    assert caught.value.field == field


def test_ladder_keeps_its_refusal_texts_for_float_arguments():
    with pytest.raises(ValidationError, match=r"^omega_max: must be finite, got inf$"):
        omega_ladder(1e-10, math.inf, 5)
    with pytest.raises(
        ValidationError, match=r"^omega_min: need 0 <= omega_min < omega_max, got \[nan, 1e-08\]$"
    ):
        omega_ladder(math.nan, 1e-8, 5)
    assert np.array_equal(omega_ladder(1e-10, 1e-8, np.int64(3)), np.geomspace(1e-10, 1e-8, 3))


def test_bisection_is_deterministic():
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 6)
    obs = 0.6 * curve.delta_lambda_values[-1]
    first = estimate_omega_numeric(obs, curve)
    second = estimate_omega_numeric(obs, curve)
    assert first.omega_hat == second.omega_hat
    assert first.residual == second.residual


def _recording(curve):
    """`curve` with its forward model wrapped to log every (rate, shift) it evaluates."""
    calls = []

    def forward(omegas):
        result = curve.forward(omegas)
        calls.extend(zip(np.ravel(omegas).tolist(), result.delta_lambda.tolist()))
        return result

    return dataclasses.replace(curve, forward=forward), calls


def _model(shift):
    """A hand-built forward model whose every field is `shift(omegas)`."""

    def forward(omegas):
        values = shift(omegas)
        return NumericForward(delta_p=values, delta_lambda=values, probability=values)

    return forward


def _straddling_interval(curve, obs):
    """The calibration interval whose sample shifts straddle `obs`."""
    omegas, values = curve.omega_values.tolist(), curve.delta_lambda_values.tolist()
    for k in range(len(values) - 1):
        if min(values[k], values[k + 1]) <= obs <= max(values[k], values[k + 1]):
            return omegas[k], omegas[k + 1]
    raise AssertionError(f"no calibration interval straddles {obs}")


def _final_bracket(curve, obs, calls, omega_hat):
    """The solver's last bracket, rebuilt from the samples and the rates it evaluated.

    Every evaluated rate becomes a bracket end, and brackets nest, so the
    final ends are the nearest known rates on either side of the midpoint.
    The last call is at the midpoint itself: the residual evaluation, or a
    step that hit the observation exactly, which closes the bracket there.
    """
    known = list(zip(curve.omega_values.tolist(), curve.delta_lambda_values.tolist())) + calls
    if calls[-1] == (omega_hat, obs):
        return calls[-1], calls[-1]
    lo = max(point for point in known if point[0] < omega_hat)
    hi = min(point for point in known if point[0] > omega_hat)
    return lo, hi


def _full_ladder_bisection_evals(curve, obs):
    """Forward evaluations of plain bisection over the whole calibration ladder."""
    increasing = curve.delta_lambda_values[-1] > curve.delta_lambda_values[0]
    a, b = float(curve.omega_values[0]), float(curve.omega_values[-1])
    evals = 1  # the residual at the final midpoint
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= BISECTION_REL_TOL * abs(mid):
            break
        evals += 1
        if (float(curve.forward(mid).delta_lambda[0]) < obs) == increasing:
            a = mid
        else:
            b = mid
    return evals


@pytest.mark.parametrize("bias_order", [0, 1, 2])
@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_numeric_inversion_keeps_its_bracket_contract(scheme_name, bias_order):
    config = _config(scheme=scheme_name, bias_order_m=bias_order, grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    for omega in (1.3e-10, 7.1e-10, 3.3e-9, 9.1e-9):
        obs = float(curve.forward(omega).delta_lambda[0])
        recorded, calls = _recording(curve)
        est = estimate_omega_numeric(obs, recorded)
        assert est.method == "numeric-bisection"
        # the search never leaves the calibration interval that straddles obs
        a0, b0 = _straddling_interval(curve, obs)
        assert all(a0 < rate < b0 for rate, _ in calls)
        (a, value_a), (b, value_b) = _final_bracket(curve, obs, calls, est.omega_hat)
        assert min(value_a, value_b) <= obs <= max(value_a, value_b)
        assert est.omega_hat == 0.5 * (a + b)
        assert b - a <= BISECTION_REL_TOL * est.omega_hat
        assert calls[-1] == (est.omega_hat, calls[-1][1])
        assert est.residual == abs(calls[-1][1] - obs)
        assert len(calls) <= _full_ladder_bisection_evals(curve, obs) + 1


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_observation_on_a_sample_returns_its_rate(scheme_name):
    config = _config(scheme=scheme_name, grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    for k in (0, 4, curve.omega_values.size - 1):
        recorded, calls = _recording(curve)
        est = estimate_omega_numeric(float(curve.delta_lambda_values[k]), recorded)
        assert est.omega_hat == curve.omega_values[k]
        assert est.residual == 0.0
        assert calls == []


def test_noise_floor_inversion_keeps_its_bracket():
    # swm at the bottom of the default bracket: the final bracket spans a
    # shift change of ~2e-20 m, within a few hundred rounding steps (~1e-22 m)
    # of post_mean - probe_mean, so the curve is ragged at the scale the stop
    # rule resolves
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    obs = float(curve.forward(1.05e-10).delta_lambda[0])
    recorded, calls = _recording(curve)
    est = estimate_omega_numeric(obs, recorded)
    a0, b0 = _straddling_interval(curve, obs)
    assert all(a0 < rate < b0 for rate, _ in calls)
    (a, value_a), (b, value_b) = _final_bracket(curve, obs, calls, est.omega_hat)
    assert min(value_a, value_b) <= obs <= max(value_a, value_b)
    assert b - a <= BISECTION_REL_TOL * est.omega_hat
    assert len(calls) <= _full_ladder_bisection_evals(curve, obs) + 1


def test_wide_bracket_stops_at_the_iteration_cap():
    # a shift that steps from -1 to +1 at 2e-20 rad/s: regula falsi lands on
    # the midpoint, so the search bisects [1e-20, 1], and shrinking that to
    # BISECTION_REL_TOL of the root takes more halvings than
    # BISECTION_MAX_ITER allows
    def shift(omegas):
        return np.where(np.atleast_1d(np.asarray(omegas, dtype=float)) < 2e-20, -1.0, 1.0)

    omegas = np.array([1e-20, 1.0])
    curve = CalibrationCurve(
        omega_values=omegas, delta_lambda_values=shift(omegas), forward=_model(shift)
    )
    obs = 0.0
    recorded, calls = _recording(curve)
    est = estimate_omega_numeric(obs, recorded)
    assert len(calls) == BISECTION_MAX_ITER + 1
    assert all(omegas[0] < rate < omegas[1] for rate, _ in calls)
    (a, value_a), (b, value_b) = _final_bracket(curve, obs, calls, est.omega_hat)
    assert min(value_a, value_b) <= obs <= max(value_a, value_b)
    assert est.omega_hat == 0.5 * (a + b)


def test_itp_keeps_the_bisection_bound_where_interpolation_crawls():
    # on a steep convex curve regula falsi creeps in from one end; the ITP
    # projection still closes the interval within bisection's step count + 1
    # (n0 = 1), plus the residual evaluation
    def shift(omegas):
        return np.atleast_1d(np.exp(30.0 * np.asarray(omegas, dtype=float)))

    omegas = np.array([1.0, 2.0])
    n_half = math.ceil(math.log2((omegas[1] - omegas[0]) / (BISECTION_REL_TOL * omegas[0])))
    for target in (1.5, 1.9):
        curve = CalibrationCurve(
            omega_values=omegas, delta_lambda_values=shift(omegas), forward=_model(shift)
        )
        recorded, calls = _recording(curve)
        est = estimate_omega_numeric(float(shift(target)[0]), recorded)
        assert est.omega_hat == pytest.approx(target, rel=BISECTION_REL_TOL)
        assert len(calls) <= n_half + 1 + 1


def test_ladder_from_a_subnormal_rate_is_inverted():
    # BISECTION_REL_TOL * 5e-324 underflows to 0; the search must still run
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 5e-324, 1e-8, 2)
    obs = float(curve.forward(1e-9).delta_lambda[0])
    est = estimate_omega_numeric(obs, curve)
    assert curve.omega_values[0] < est.omega_hat < curve.omega_values[1]
    assert math.isfinite(est.residual)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP direction 1: calibration_curve checks only the ladder samples, "
    "and this curve turns between them",
)
@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_curve_turning_between_samples_is_refused(scheme_name):
    # the 3 log-spaced samples are monotone, yet the curve turns between
    # them; an estimate here returns 3.1224e-2 rad/s, 23 % below the truth
    config = _config(scheme=scheme_name)
    evaluate = numeric_forward(config, SchemeKind(scheme_name))
    obs = float(evaluate(4.06e-2).delta_lambda[0])
    with pytest.raises(NonMonotonicCalibration):
        curve = calibration_curve(config, 6.2e-3, 0.19, 3)
        estimate_omega_numeric(obs, curve)
