import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from sagnac_wva import estimation
from sagnac_wva.cli import FIGURE3_SWEEP
from sagnac_wva.config import ExperimentConfig
from sagnac_wva.engine import (
    NumericForward,
    SchemeKind,
    analytic_shift,
    exact_gaussian,
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
    SEED_HALF_WIDTH,
    SEED_MAX_STEPS,
    SEED_STEP_FACTOR,
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
        "omega_values", "delta_lambda_values", "forward", "exact",
    ]


def test_curve_validation():
    with pytest.raises(ValueError):
        calibration_curve(_config(), -1e-10, 1e-8, 5)
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-8, 1e-10, 5)
    with pytest.raises(ValueError):
        calibration_curve(_config(), 1e-10, 1e-8, 1)
    with pytest.raises(
        ValueError, match=r"^omega_min: need 0 < omega_min < omega_max, got \[0.0, 1e-08\]$"
    ):
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
        ValidationError, match=r"^omega_min: need 0 < omega_min < omega_max, got \[nan, 1e-08\]$"
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


#: a reference that is NaN at every rate, so a hand-built curve gets no seed
_NAN_REFERENCE = _model(lambda omegas: np.full(np.size(omegas), np.nan))


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
    # a shift that steps from -1 to +1 at 2e-20 rad/s: with no seed the
    # search bisects [1e-20, 1], and shrinking that to
    # BISECTION_REL_TOL of the root takes more halvings than
    # BISECTION_MAX_ITER allows
    def shift(omegas):
        return np.where(np.atleast_1d(np.asarray(omegas, dtype=float)) < 2e-20, -1.0, 1.0)

    omegas = np.array([1e-20, 1.0])
    curve = CalibrationCurve(
        omega_values=omegas,
        delta_lambda_values=shift(omegas),
        forward=_model(shift),
        exact=_NAN_REFERENCE,
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
    # on a steep convex curve an interpolating step would creep in from one
    # end; with no seed, plain bisection closes the interval within its step
    # count (+ 1 to spare), plus the residual evaluation
    def shift(omegas):
        return np.atleast_1d(np.exp(30.0 * np.asarray(omegas, dtype=float)))

    omegas = np.array([1.0, 2.0])
    n_half = math.ceil(math.log2((omegas[1] - omegas[0]) / (BISECTION_REL_TOL * omegas[0])))
    for target in (1.5, 1.9):
        curve = CalibrationCurve(
            omega_values=omegas,
            delta_lambda_values=shift(omegas),
            forward=_model(shift),
            exact=_NAN_REFERENCE,
        )
        recorded, calls = _recording(curve)
        est = estimate_omega_numeric(float(shift(target)[0]), recorded)
        assert est.omega_hat == pytest.approx(target, rel=BISECTION_REL_TOL)
        assert len(calls) <= n_half + 1 + 1


def test_ladder_from_a_subnormal_rate_is_inverted():
    # BISECTION_REL_TOL * 5e-324 underflows to 0, and the interval spans
    # over 300 decades; the seed and the bisection must still close it
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 5e-324, 1e-8, 2)
    obs = float(curve.forward(1e-9).delta_lambda[0])
    est = estimate_omega_numeric(obs, curve)
    assert curve.omega_values[0] < est.omega_hat < curve.omega_values[1]
    assert math.isfinite(est.residual)


def test_biased_ladder_from_a_subnormal_rate_is_certified():
    # below about 1e-318 rad/s the coupling underflows to 0, so the exact
    # bwm curve is flat at 0 along its first log samples: equal steps, not
    # a turn, and the curve is certified and inverted
    config = _config(scheme="bwm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 5e-324, 1e-8, 2)
    omega = 1e-9
    est = estimate_omega_numeric(float(curve.forward(omega).delta_lambda[0]), curve)
    assert abs(est.omega_hat - omega) <= BISECTION_REL_TOL * omega


def _counting(curve):
    """`curve` with its forward model wrapped to log the number of rates of every call."""
    sizes = []

    def forward(omegas):
        sizes.append(np.size(omegas))
        return curve.forward(omegas)

    return dataclasses.replace(curve, forward=forward), sizes


def _assert_bracket_contract(curve, obs, calls, est):
    """The estimate is the midpoint of a grid-verified straddling bracket no wider
    than the stop test, and every evaluated rate lies inside the straddling
    calibration interval."""
    assert est.method == "numeric-bisection"
    a0, b0 = _straddling_interval(curve, obs)
    assert all(a0 < rate < b0 for rate, _ in calls)
    (a, value_a), (b, value_b) = _final_bracket(curve, obs, calls, est.omega_hat)
    assert min(value_a, value_b) <= obs <= max(value_a, value_b)
    assert est.omega_hat == 0.5 * (a + b)
    assert b - a <= BISECTION_REL_TOL * est.omega_hat
    assert est.residual == abs(calls[-1][1] - obs)


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_a_seeded_estimate_makes_one_forward_call(scheme_name):
    # the exact-Gaussian seed puts one 3-rate grid block [lo, hi, mid] on the
    # root; lo and hi straddle it, so no step and no bisection runs
    config = _config(scheme=scheme_name, grid=GridSpec(points=1501))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    for omega in (2.2e-10, 7.1e-10, 3.3e-9, 9.1e-9):
        obs = float(curve.forward(omega).delta_lambda[0])
        recorded, calls = _recording(curve)
        counted, sizes = _counting(recorded)
        est = estimate_omega_numeric(obs, counted)
        assert sizes == [3]
        _assert_bracket_contract(curve, obs, calls, est)
        assert abs(est.omega_hat - omega) <= BISECTION_REL_TOL * omega


def test_a_missed_block_leaves_the_bracket_to_itp():
    # a closed form that bows away from the grid between the samples, by a
    # term the linear gap correction cannot absorb, seeds off the root: the
    # block's ends do not straddle it, so one-rate steps out from the seed
    # and then bisection close the bracket
    config = _config(scheme="swm", grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)

    def bowed(omegas):
        exact = curve.exact(omegas)
        bow = 1.0 + 1e-2 * np.square(np.log(np.asarray(omegas) / 1e-10))
        return exact._replace(delta_lambda=exact.delta_lambda * bow)

    bowed_curve = dataclasses.replace(curve, exact=bowed)
    for omega in (1.3e-10, 7.1e-10, 3.3e-9, 9.1e-9):
        obs = float(curve.forward(omega).delta_lambda[0])
        recorded, calls = _recording(bowed_curve)
        counted, sizes = _counting(recorded)
        est = estimate_omega_numeric(obs, counted)
        assert sizes[0] == 3 and len(sizes) > 1 and set(sizes[1:]) == {1}
        (lo, value_lo), (hi, value_hi), (mid, _) = calls[:3]
        assert lo < mid < hi and not min(value_lo, value_hi) <= obs <= max(value_lo, value_hi)
        _assert_bracket_contract(curve, obs, calls, est)
        assert len(calls) <= _full_ladder_bisection_evals(curve, obs) + 1


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_a_non_finite_closed_form_leaves_the_estimate_to_itp(scheme_name):
    # the golden matrix's edge-tiny-lambda scenario, on a loop small enough
    # that the grid resolves the law; its sigma_p^2 overflows: the closed
    # form is NaN, so no block is seeded and every call is a one-rate
    # bisection step, with no numpy warning on the way; `calibration_curve`
    # refuses this curve, so it is built by hand
    config = _config(
        scheme=scheme_name, lambda0_nm=1e-150, fwhm_nm=1e-152, area_m2=1e-148,
        grid=GridSpec(points=1001),
    )
    conftest.assert_grid_resolves(config, [1e-10, 1e-8])
    scheme = SchemeKind(scheme_name)
    forward = numeric_forward(config, scheme)
    omegas = omega_ladder(1e-10, 1e-8, 3)
    curve = CalibrationCurve(
        omega_values=omegas,
        delta_lambda_values=forward(omegas).delta_lambda,
        forward=forward,
        exact=exact_gaussian(config, scheme),
    )
    assert not np.isfinite(curve.exact(curve.omega_values).delta_lambda).any()
    obs = 0.5 * float(curve.delta_lambda_values[0] + curve.delta_lambda_values[1])
    recorded, calls = _recording(curve)
    counted, sizes = _counting(recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_omega_numeric(obs, counted)
    assert sizes and set(sizes) == {1}
    _assert_bracket_contract(curve, obs, calls, est)


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_a_non_finite_reference_is_refused(scheme_name):
    # the golden matrix's edge-tiny-lambda scenario, on a loop small enough
    # that the grid resolves the law: the grid samples clear the step floor,
    # but sigma_p^2 overflows, so the exact-Gaussian reference is NaN at
    # every ladder rate
    config = _config(
        scheme=scheme_name, lambda0_nm=1e-150, fwhm_nm=1e-152, area_m2=1e-148,
        grid=GridSpec(points=1001),
    )
    conftest.assert_grid_resolves(config, [1e-10, 1e-8])
    with pytest.raises(NonMonotonicCalibration) as exc:
        calibration_curve(config, 1e-10, 1e-8, 3)
    assert str(exc.value) == (
        f"{scheme_name} exact-Gaussian reference on [1.000e-10, 1.000e-08] rad/s "
        f"is not finite; refusing to invert"
    )


@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_an_aliased_grid_with_a_finite_reference_is_refused(scheme_name):
    # the golden matrix's edge-aliased-lambda scenario: the law crosses about
    # 2.6e136 fringes across the bracket, which 1001 nodes alias, while the
    # reference is finite (0); were the curve inverted, an observation
    # midway between the first two samples would return 5.5e-10 rad/s, its
    # residual 120 times the observation.  No sample count resolves it
    config = _config(
        scheme=scheme_name, lambda0_nm=1e-140, fwhm_nm=1e-142, grid=GridSpec(points=1001)
    )
    evaluate = numeric_forward(config, SchemeKind(scheme_name))
    samples = evaluate(omega_ladder(1e-10, 1e-8, 3)).delta_lambda
    obs = 0.5 * float(samples[0] + samples[1])
    with pytest.raises(NonMonotonicCalibration) as exc:
        curve = calibration_curve(config, 1e-10, 1e-8, 3)
        estimate_omega_numeric(obs, curve)
    assert str(exc.value) == (
        f"{scheme_name} exact-Gaussian curve on [1.000e-10, 1.000e-08] rad/s cannot be "
        f"resolved in 200000 samples; refusing to invert"
    )


@pytest.mark.parametrize("k", [-40, -6, -3, 3, 6, 40])
@pytest.mark.parametrize("scheme_name", ["swm", "bwm"])
def test_a_missed_block_steps_out_from_the_seed(monkeypatch, scheme_name, k):
    # a seed k block half-widths off the root misses it; the steps go out
    # from the seed, SEED_STEP_FACTOR times as far each time, so the first
    # to pass the root lies within SEED_STEP_FACTOR times the seed's error,
    # and the search never evaluates a rate farther from the seed than that
    config = _config(scheme=scheme_name, grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    for omega in (1.3e-10, 7.1e-10, 3.3e-9, 9.1e-9):
        seed = omega * (1.0 + k * SEED_HALF_WIDTH)
        monkeypatch.setattr(estimation, "_seed", lambda *_, seed=seed: seed)
        obs = float(curve.forward(omega).delta_lambda[0])
        recorded, calls = _recording(curve)
        est = estimate_omega_numeric(obs, recorded)
        reach = SEED_STEP_FACTOR * abs(k) * SEED_HALF_WIDTH * seed
        assert all(abs(rate - seed) <= reach for rate, _ in calls)
        _assert_bracket_contract(curve, obs, calls, est)


def test_a_ragged_block_narrows_to_the_bracket_that_straddles(monkeypatch):
    # a grid ragged at the block's midpoint: the excess has the lower end's
    # sign at lo and at hi, the other sign at mid, so the block does not
    # straddle.  mid narrows the bracket to [1, mid] and lo then moves its
    # lower end; hi, past mid, is outside the bracket and moves nothing
    seed = 1.5
    lo, hi = seed * (1.0 - SEED_HALF_WIDTH), seed * (1.0 + SEED_HALF_WIDTH)
    mid = 0.5 * (lo + hi)

    def ragged(omegas):
        omegas = np.atleast_1d(omegas)
        return np.where(omegas == mid, 1e-3, omegas - 1.6)

    curve = CalibrationCurve(
        np.array([1.0, 2.0]), np.array([-0.6, 0.4]), _model(ragged), _NAN_REFERENCE
    )
    monkeypatch.setattr(estimation, "_seed", lambda *_: seed)
    recorded, calls = _recording(curve)
    est = estimate_omega_numeric(0.0, recorded)
    assert [rate for rate, _ in calls[:3]] == [lo, hi, mid]
    assert [value < 0.0 for _, value in calls[:3]] == [True, True, False]
    # [mid, hi] holds a sign change too, so the contract alone cannot tell
    # the estimate from one in a bracket that hi inverted
    assert est.omega_hat == 0.5 * (lo + mid)
    _assert_bracket_contract(curve, 0.0, calls, est)


@pytest.mark.parametrize(
    "scheme_name, backward", [("swm", "4.526e-09"), ("bwm", "4.520e-09")], ids=["swm", "bwm"]
)
def test_curve_turning_between_samples_is_refused(scheme_name, backward):
    # the 3 log-spaced samples are monotone, yet the curve turns 12 times
    # between them; inverted on the samples alone, the shift at 4.06e-2
    # rad/s gives 3.1224e-2 rad/s, 23 % below the truth
    config = _config(scheme=scheme_name)
    evaluate = numeric_forward(config, SchemeKind(scheme_name))
    obs = float(evaluate(4.06e-2).delta_lambda[0])
    with pytest.raises(NonMonotonicCalibration) as exc:
        curve = calibration_curve(config, 6.2e-3, 0.19, 3)
        estimate_omega_numeric(obs, curve)
    assert str(exc.value) == (
        f"{scheme_name} exact-Gaussian curve on [6.200e-03, 1.900e-01] rad/s turns between "
        f"the ladder rates (a step of {backward} m against the ladder's direction); "
        f"refusing to invert"
    )


def test_a_ladder_across_the_biased_turning_point_is_refused():
    # the bwm curve of the README scenario peaks at 1.0029e-8 rad/s; every
    # sample of a ladder to 1.05e-8 rises, but the curve falls past the peak
    config = _config(scheme="bwm")
    curve = calibration_curve(config, 1e-10, 9.9e-9, 10)
    assert np.all(np.diff(curve.delta_lambda_values) > 0.0)
    with pytest.raises(NonMonotonicCalibration, match="turns between the ladder rates"):
        calibration_curve(config, 1e-10, 1.05e-8, 10)


def test_a_grid_further_from_the_exact_curve_than_its_steps_is_refused():
    # the golden edge-wide-line scenario: a 500 nm line on a 3-sigma grid,
    # whose truncation puts the swm grid curve 2.9e-11 m off the exact one,
    # more than its smallest ladder step
    with pytest.warns(UserWarning):
        config = _config(
            fwhm_nm=500.0, grid=GridSpec(points=1001, half_width_sigmas=3.0)
        )
    with pytest.raises(NonMonotonicCalibration) as exc:
        calibration_curve(config, 1e-10, 1e-8, 10)
    assert str(exc.value) == (
        "swm numeric calibration on [1.000e-10, 1.000e-08] rad/s steps by as little as "
        "7.082e-12 m, within its margin of 2.876e-11 m (distance from the exact-Gaussian "
        "curve plus rounding floor); refusing to invert"
    )


@settings(max_examples=60, deadline=None)
@given(
    scheme_name=st.sampled_from(["swm", "bwm"]),
    log_lo=st.floats(math.log(1e-10), math.log(1e-9)),
    ratio=st.floats(1.5, 9.9),
    points=st.integers(2, 12),
    where=st.floats(0.02, 0.98),
)
def test_numeric_round_trip_on_certified_brackets(scheme_name, log_lo, ratio, points, where):
    # every bracket in the estimator's default range and below the bwm
    # turning point of the README scenario is certified, and the grid's own
    # shift at a rate inside it inverts back to that rate within the stop
    # test (far smaller rates shift the mean by too few ulps of p0 for that)
    config = _config(scheme=scheme_name, grid=GridSpec(points=801))
    lo = math.exp(log_lo)
    curve = calibration_curve(config, lo, lo * ratio, points)
    omega = lo * ratio**where
    obs = float(curve.forward(omega).delta_lambda[0])
    est = estimate_omega_numeric(obs, curve)
    assert abs(est.omega_hat - omega) <= BISECTION_REL_TOL * omega


@settings(max_examples=200, deadline=None)
@given(
    bounds=st.lists(
        st.floats(5e-324, 1e308, allow_subnormal=True), min_size=2, max_size=2, unique=True
    ).map(sorted),
    n_points=st.one_of(st.integers(2, 20001), st.sampled_from([25, 20001])),
)
@example(bounds=FIGURE3_SWEEP[:2], n_points=FIGURE3_SWEEP[2])
@example(bounds=[5e-324, 1e308], n_points=20001)
def test_omega_ladder_is_geomspace_bit_for_bit(bounds, n_points):
    # the calibration, sweep and figure3 ladders keep np.geomspace's rates
    # (figure3's 25-rate sweep, the golden matrix's 20001-rate sweep)
    lo, hi = bounds
    assert omega_ladder(lo, hi, n_points).tobytes() == np.geomspace(lo, hi, n_points).tobytes()


def test_seed_returns_its_last_step_when_the_steps_do_not_settle():
    # a closed form that jumps between -1 and +1 where the README swm
    # reference passes its value at 1.37e-9 rad/s: false position on a jump
    # gains no more than a constant factor a step, so SEED_MAX_STEPS steps
    # end far from settled and the seed is the last of them
    exact = exact_gaussian(_config(grid=GridSpec(points=801)), SchemeKind.SWM)
    target = exact(1.37e-9).delta_lambda

    def jump(omegas):
        shifts = exact(omegas)
        return shifts._replace(delta_lambda=np.sign(shifts.delta_lambda - target))

    calls = []

    def recorded(omegas):
        calls.append(omegas)
        return jump(omegas)

    a, b = 1e-9, 2e-9
    ya, yb = jump([a, b]).delta_lambda.tolist()
    seed = estimation._seed(recorded, a, b, ya, yb)
    steps = calls[1:]
    assert len(steps) == SEED_MAX_STEPS and all(type(x) is float for x in steps)
    assert seed == steps[-1] and a < seed < b
    assert abs(seed - 1.37e-9) > 0.1 * SEED_HALF_WIDTH * seed
    # the same steps taken through one-element arrays land on the same rate
    through_arrays = estimation._seed(lambda om: jump(np.atleast_1d(om)), a, b, ya, yb)
    assert through_arrays == seed


def test_a_curve_binds_its_reference_once_and_the_seed_steps_on_floats(monkeypatch):
    # one exact_gaussian binding certifies the curve and seeds every
    # estimate on it; the seed's one-rate steps pass Python floats, and the
    # reference keeps numpy's shapes, so they get numpy scalars back, no
    # one-element arrays
    binds, singles = [], []
    bind = estimation.exact_gaussian

    def counted(config, scheme):
        exact = bind(config, scheme)
        binds.append(scheme)

        def evaluate(omegas):
            result = exact(omegas)
            if np.ndim(omegas) == 0:
                singles.append((type(omegas), type(result.delta_lambda)))
            return result

        return evaluate

    monkeypatch.setattr(estimation, "exact_gaussian", counted)
    config = _config(grid=GridSpec(points=801))
    curve = calibration_curve(config, 1e-10, 1e-8, 10)
    for omega in (1.3e-10, 7.1e-10, 3.3e-9, 9.1e-9):
        obs = float(curve.forward(omega).delta_lambda[0])
        estimate_omega_numeric(obs, curve)
    assert binds == [SchemeKind.SWM]
    assert singles and set(singles) == {(float, np.float64)}
