"""
Rotation-rate estimation from an observed wavelength shift.

Two inverters are provided.  The analytic one inverts the same closed-form
shift expression the forward analytic model uses (so the pair round-trips
to rounding).  The numeric one bisects the exact spectral forward model;
because the biased scheme's numeric response need not be monotone in Omega,
a calibration curve must be built first and inversion is refused outright
when the curve is not strictly monotone or the observation falls outside
the calibrated range.  No silent extrapolation, ever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import SchemeKind, analytic_shift, bind_delta_lambda, single_scheme
from .errors import (
    NonFiniteResult,
    NonMonotonicCalibration,
    OutOfRangeObservation,
    ValidationError,
)
from .spectrum import MAX_GRID_POINTS

#: bisection stops when the bracket shrinks below this relative width in Omega
BISECTION_REL_TOL = 1e-6
BISECTION_MAX_ITER = 60

MODES = ("numeric", "analytic")


@dataclass(frozen=True)
class OmegaEstimate:
    omega_hat: float  # rad/s
    method: str  # "analytic-closed-form" | "numeric-bisection"
    residual: float  # |predicted - observed| wavelength shift, m


@dataclass(frozen=True)
class CalibrationCurve:
    """Forward-model samples delta_lambda(omega) on a fixed omega ladder."""

    omega_values: np.ndarray
    delta_lambda_values: np.ndarray
    scheme: SchemeKind
    mode: str  # "numeric" | "analytic"
    monotone_flag: bool
    #: the bound forward model the curve was sampled with, `omegas -> delta_lambda`
    #: (flat array); the inverter reuses it, so an estimate binds the model once
    forward: Callable[[object], np.ndarray]


def calibration_curve(
    config,
    omega_min: float,
    omega_max: float,
    n_points: int,
    mode: str = "numeric",
    spacing: str = "log",
) -> CalibrationCurve:
    """Sample the forward model on a log- (default) or linearly-spaced ladder.

    The monotone flag records whether the sampled shifts are strictly
    monotone (either direction); the numeric inverter requires it.  At most
    MAX_GRID_POINTS rates are sampled; a larger count is refused before
    anything is allocated.
    """
    if mode not in MODES:
        raise ValidationError("mode", f"must be one of {MODES}, got {mode!r}")
    if spacing not in ("log", "linear"):
        raise ValidationError("spacing", f"must be 'log' or 'linear', got {spacing!r}")
    if not math.isfinite(omega_max):
        raise ValidationError("omega_max", f"must be finite, got {omega_max}")
    if not 0.0 <= omega_min < omega_max:
        raise ValidationError(
            "omega_min", f"need 0 <= omega_min < omega_max, got [{omega_min}, {omega_max}]"
        )
    if n_points < 2:
        raise ValidationError("points", f"must be >= 2, got {n_points!r}")
    if n_points > MAX_GRID_POINTS:
        raise ValidationError("points", f"must be at most {MAX_GRID_POINTS}, got {n_points!r}")
    if spacing == "log":
        if omega_min <= 0.0:
            raise ValidationError("omega_min", "log spacing requires omega_min > 0")
        omegas = np.geomspace(omega_min, omega_max, n_points)
    else:
        omegas = np.linspace(omega_min, omega_max, n_points)

    scheme = single_scheme(config)
    forward = bind_delta_lambda(config, scheme, config.probe(), mode)
    values = forward(omegas)
    diffs = np.diff(values)
    monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    return CalibrationCurve(
        omega_values=omegas,
        delta_lambda_values=values,
        scheme=scheme,
        mode=mode,
        monotone_flag=monotone,
        forward=forward,
    )


def estimate_omega_analytic(delta_lambda_obs: float, scheme: SchemeKind, config) -> OmegaEstimate:
    """Invert the closed-form shift expression (linear in Omega).

    The coefficient is taken from the forward analytic model itself, so the
    inversion matches whatever cot-vs-1/phi and width-reading conventions
    the scenario selects, and forward-then-invert round-trips to rounding.

    Raises
    ------
    NonFiniteResult
        If the coefficient is zero or not finite (an underflowed or
        overflowed loop), or the estimate or its residual is not finite.
    """
    coefficient = float(analytic_shift(config, scheme, config.probe(), 1.0).delta_lambda)
    if coefficient == 0.0 or not math.isfinite(coefficient):
        raise NonFiniteResult(
            f"{scheme.value} closed-form shift per unit rate is {coefficient} m s/rad; "
            f"no rate can be inverted"
        )
    omega_hat = delta_lambda_obs / coefficient
    residual = abs(coefficient * omega_hat - delta_lambda_obs)
    if not (math.isfinite(omega_hat) and math.isfinite(residual)):
        raise NonFiniteResult(
            f"{scheme.value} estimate is {omega_hat} rad/s with residual {residual} m; "
            f"no estimate printed"
        )
    return OmegaEstimate(omega_hat=omega_hat, method="analytic-closed-form", residual=residual)


def estimate_omega_numeric(delta_lambda_obs: float, curve: CalibrationCurve) -> OmegaEstimate:
    """Bisect the numeric forward model against an observed shift.

    Requires a strictly monotone calibration curve bracketing the
    observation.  Stops at a relative bracket width of BISECTION_REL_TOL in
    Omega or after BISECTION_MAX_ITER halvings, whichever comes first.

    Raises
    ------
    NonMonotonicCalibration
        If the curve's monotone flag is down.
    OutOfRangeObservation
        If the observed shift lies outside the calibrated shift range.
    """
    if not curve.monotone_flag:
        raise NonMonotonicCalibration(
            f"{curve.scheme.value} {curve.mode} calibration on "
            f"[{curve.omega_values[0]:.3e}, {curve.omega_values[-1]:.3e}] rad/s is "
            f"not strictly monotone; refusing to invert"
        )
    lo_val = float(curve.delta_lambda_values[0])
    hi_val = float(curve.delta_lambda_values[-1])
    vmin, vmax = min(lo_val, hi_val), max(lo_val, hi_val)
    if not vmin <= delta_lambda_obs <= vmax:
        raise OutOfRangeObservation(
            f"observed shift {delta_lambda_obs:.6e} m outside calibrated range "
            f"[{vmin:.6e}, {vmax:.6e}] m"
        )

    increasing = hi_val > lo_val

    def forward(om: float) -> float:
        # each bisection step is a one-rate evaluation of the curve's model
        return float(curve.forward(om)[0])

    a = float(curve.omega_values[0])
    b = float(curve.omega_values[-1])
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (a + b)
        if (b - a) <= BISECTION_REL_TOL * abs(mid):
            break
        value = forward(mid)
        # keep the sub-bracket whose endpoint values still straddle the target
        if (value < delta_lambda_obs) == increasing:
            a = mid
        else:
            b = mid
    omega_hat = 0.5 * (a + b)
    residual = abs(forward(omega_hat) - delta_lambda_obs)
    return OmegaEstimate(omega_hat=omega_hat, method="numeric-bisection", residual=residual)
