"""
Rotation-rate estimation from an observed wavelength shift.

Two inverters are provided, and both refuse an observation that is not a
finite real number (`check_observation`).  The analytic one inverts the
same closed-form shift expression the forward analytic model uses, for the
scenario's own scheme (so the pair round-trips to rounding); that
expression is linear in Omega, so it needs no curve.  The numeric one
solves the exact spectral forward model; because the biased scheme's
numeric response need not be monotone in Omega, a calibration curve of that
model must be built first (`calibration_curve`, on the log-spaced rates of
`omega_ladder`, the one log spacing that `sweep` and `figure3` use too; the
only curve this package builds).  The curve keeps the bound
`numeric_forward` model it was sampled with, and the inverter evaluates
that same model.  Building the curve is the one place that decides whether
it can be inverted, and it certifies the curve against the scheme's
exact-Gaussian curve (`engine.exact_gaussian`), sampled finely enough in
the law's phase (`engine.phase_samples`) to see every turn: a curve is
refused there unless that exact curve is finite and goes the samples' way
between them as well as at them, and the sampled shifts step in one
direction by more than their distance from it plus their rounding floor.
The inverter then refuses only an observation outside the calibrated range.
No silent extrapolation, ever.

The numeric solve starts from the calibration interval whose sample shifts
straddle the observation (found among the samples, with no forward call).
It then seeds the root from closed-form evaluations alone: the curve also
keeps the scheme's `engine.exact_gaussian` reference, bound once when the
curve is certified, and the seed is the root of that closed form plus the
grid-minus-exact gap at the interval's ends, interpolated linearly; its
one-rate steps pass the reference Python floats and get numpy scalars,
with the bits an array gives each rate.  One forward call evaluates the
grid block [lo, hi, mid] around the seed, a bracket just narrower than the
stop test; when lo and hi straddle the observation, mid is the estimate,
with that block's residual.  Otherwise (a seed off the grid's root, which
happens where the grid curve is ragged at the scale of the stop test)
one-rate steps go out from the seed, each SEED_STEP_FACTOR times as far as
the last, until one passes the root, and plain bisection closes the bracket
that leaves; a seed that is not a rate inside the interval (a closed form
that is not finite) leaves the whole interval to bisection.  Every rate
evaluated narrows one straddling bracket.  The grid is the only model whose
root is returned; the closed form only places the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .engine import (
    PHASE_SAMPLE_CAP,
    NumericForward,
    _delta_lambda,
    analytic_shift,
    exact_gaussian,
    numeric_forward,
    phase_samples,
    single_scheme,
)
from .errors import (
    NonFiniteResult,
    NonMonotonicCalibration,
    OutOfRangeObservation,
    ValidationError,
)
from .spectrum import MAX_GRID_POINTS, finite_real

#: the numeric inversion stops when the bracket shrinks below this relative
#: width in Omega, or after this many steps
BISECTION_REL_TOL = 1e-6
BISECTION_MAX_ITER = 60
#: the seeded grid block [s*(1 - h), s*(1 + h)] is just narrower than the
#: stop test, so a block that straddles the observation ends the search
SEED_HALF_WIDTH = 0.4999 * BISECTION_REL_TOL
#: after a missed block, each step from the seed goes this many times as far
#: as the last, starting from the block's end
SEED_STEP_FACTOR = 8.0
#: closed-form samples across the calibration interval that bracket the
#: seed, and the most Illinois steps that may then settle it
SEED_SAMPLES = 17
SEED_MAX_STEPS = 8


@dataclass(frozen=True)
class OmegaEstimate:
    omega_hat: float  # rad/s
    method: str  # "analytic-closed-form" | "numeric-bisection"
    residual: float  # |predicted - observed| wavelength shift, m


@dataclass(frozen=True)
class CalibrationCurve:
    """Forward-model samples delta_lambda(omega), strictly monotone, on a log ladder."""

    omega_values: np.ndarray
    delta_lambda_values: np.ndarray
    #: the bound `numeric_forward` model the curve was sampled with; the
    #: inverter reuses it, so an estimate binds the model once
    forward: Callable[[object], NumericForward]
    #: the scheme's bound `exact_gaussian` reference on the same scenario,
    #: which certified the curve and seeds the inversion
    exact: Callable[[object], NumericForward]


def omega_ladder(omega_min: float, omega_max: float, n_points: int) -> np.ndarray:
    """`n_points` log-spaced rates from omega_min to omega_max, numpy `geomspace`'s bits.

    The rates are real numbers (not bools), omega_max finite and omega_min
    in (0, omega_max); the count is an integer (not a bool) from 2 to
    MAX_GRID_POINTS, and a larger count is refused before anything is
    allocated.
    """
    if not finite_real(omega_max):
        raise ValidationError("omega_max", f"must be finite, got {omega_max}")
    if not (finite_real(omega_min) and 0.0 < omega_min < omega_max):
        raise ValidationError(
            "omega_min", f"need 0 < omega_min < omega_max, got [{omega_min}, {omega_max}]"
        )
    if not isinstance(n_points, Integral) or isinstance(n_points, bool):
        raise ValidationError("points", f"must be an integer, got {n_points!r}")
    if n_points < 2:
        raise ValidationError("points", f"must be >= 2, got {n_points!r}")
    if n_points > MAX_GRID_POINTS:
        raise ValidationError("points", f"must be at most {MAX_GRID_POINTS}, got {n_points!r}")
    # numpy `geomspace`'s own arithmetic for a positive real range, without its
    # sign, complex and dtype handling, so the rates are its bits
    lo, hi = float(omega_min), float(omega_max)
    ladder = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), n_points))
    ladder[0], ladder[-1] = lo, hi
    return ladder


def calibration_curve(
    config, omega_min: float, omega_max: float, n_points: int
) -> CalibrationCurve:
    """Sample the numeric forward model on an `omega_ladder` and certify it.

    This is the one place that decides whether a curve can be inverted.
    One `exact_gaussian` call evaluates the scheme's untruncated reference
    at the ladder rates and at the rows of `engine.phase_samples`, which
    resolve every turn the exact curve can take on the bracket.  A curve
    is returned only when the exact curve never steps against the ladder's
    direction, so it is monotone between the samples, not only at them, and
    the sampled shifts clear both their rounding floor and their distance
    from it.  The curve keeps the bound model and that reference, which
    seeds the inversion.

    Raises
    ------
    NonMonotonicCalibration
        Each with its own message, checked in this order: a step of the
        sampled momentum shifts does not clear the rounding floor
        16*ulp(p0) in the direction of the others; the reference is not
        finite at a ladder or sample rate; the bracket needs more than
        PHASE_SAMPLE_CAP reference samples; the reference steps against
        the ladder's direction on the ladder or along a sample row; or the
        smallest sampled step does not exceed the margin, the largest
        distance of the samples from the reference at the ladder rates
        plus the floor.
    """
    omegas = omega_ladder(omega_min, omega_max, n_points)
    scheme = single_scheme(config)
    forward = numeric_forward(config, scheme)
    shift = forward(omegas)
    diffs = np.diff(shift.delta_p)

    def refusal(subject: str, reason: str) -> NonMonotonicCalibration:
        span = f"[{omegas[0]:.3e}, {omegas[-1]:.3e}] rad/s"
        message = f"{scheme.value} {subject} on {span} {reason}; refusing to invert"
        return NonMonotonicCalibration(message)

    def metres(delta_p) -> str:
        return f"{abs(_delta_lambda(delta_p, config.probe.p0)):.3e} m"

    # the shift is a mean momentum near p0 less the probe's, so a step under
    # a few ulps of p0 (here 16) is rounding, not signal
    floor = 16.0 * math.ulp(config.probe.p0)
    if not (np.all(diffs > floor) or np.all(diffs < -floor)):
        raise refusal("numeric calibration", "is not strictly monotone")
    samples = phase_samples(config, scheme, omegas[0], omegas[-1])
    exact = exact_gaussian(config, scheme)
    reference = exact(omegas if samples is None else np.concatenate([omegas, samples.ravel()]))
    if not np.isfinite(reference.delta_lambda).all():
        raise refusal("exact-Gaussian reference", "is not finite")
    if samples is None:
        raise refusal("exact-Gaussian curve", f"cannot be resolved in {PHASE_SAMPLE_CAP} samples")
    # no step of the exact curve goes against the ladder, on the ladder or
    # along a sample row, else it turns somewhere the ladder cannot see; a
    # zero step is no turn (rates so small that the coupling underflows
    # give the same shift); past the ladder, each row's first difference
    # is from the row before
    n = omegas.size
    directed = reference.delta_p if diffs[0] > 0.0 else -reference.delta_p
    steps = directed[1:] - directed[:-1]
    backward = -min(steps[: n - 1].min(), steps[n - 1 :].reshape(samples.shape)[:, 1:].min())
    if backward > 0.0:
        raise refusal(
            "exact-Gaussian curve",
            f"turns between the ladder rates (a step of {metres(backward)} against the "
            f"ladder's direction)",
        )
    # the grid's steps must stand clear of its own distance from that curve
    step = np.abs(diffs).min()
    margin = np.abs(shift.delta_p - reference.delta_p[:n]).max() + floor
    if step <= margin:
        raise refusal(
            "numeric calibration",
            f"steps by as little as {metres(step)}, within its margin of {metres(margin)} "
            f"(distance from the exact-Gaussian curve plus rounding floor)",
        )
    return CalibrationCurve(omegas, shift.delta_lambda, forward, exact)


def check_observation(delta_lambda_obs) -> None:
    """Refuse an observed shift that is not a finite real number (or is a bool)."""
    if not finite_real(delta_lambda_obs):
        raise ValidationError("delta_lambda_m", f"must be a finite number, got {delta_lambda_obs}")


def _seed(exact, a: float, b: float, ya: float, yb: float) -> float:
    """A rate in (a, b) where the closed form, corrected to the grid, meets the observation.

    `ya` and `yb` are the grid's excess over the observation at a and b.
    The closed form `exact` plus the grid-minus-exact gap at a and b,
    interpolated linearly in omega, is a model that equals the grid at both
    ends.  One call samples it at SEED_SAMPLES rates across [a, b]; the
    first sign change brackets its root, and Illinois steps (false position
    whose stale end has its value halved), one closed-form evaluation each,
    close in on it; the last step is the seed when they do not settle.  A
    non-finite closed form gives a NaN seed.  Each step passes `exact` one
    Python float, which gives numpy scalars, and reads the shift with
    `.item()`, so no one-element array is built; Python floats throughout,
    so it warns nowhere.
    """
    omegas = np.linspace(a, b, SEED_SAMPLES).tolist()
    closed = exact(omegas).delta_lambda.tolist()
    offset_a = ya - closed[0]
    slope = (yb - closed[-1] - offset_a) / (b - a)
    model = [c + offset_a + slope * (x - a) for c, x in zip(closed, omegas)]
    model[0], model[-1] = ya, yb
    j = next(j for j, y in enumerate(model) if (y < 0.0) != (ya < 0.0))
    x0, y0, x1, y1 = omegas[j - 1], model[j - 1], omegas[j], model[j]
    for _ in range(SEED_MAX_STEPS):
        x = x1 - y1 * (x1 - x0) / (y1 - y0)
        # a step this far inside the block's half-width leaves the seed settled
        if abs(x - x1) <= 0.1 * SEED_HALF_WIDTH * x:
            return x
        y = exact(x).delta_lambda.item() + offset_a + slope * (x - a)
        if (y < 0.0) != (y1 < 0.0):
            x0, y0 = x1, y1
        else:
            y0 *= 0.5
        x1, y1 = x, y
    return x1


def estimate_omega_analytic(delta_lambda_obs: float, config) -> OmegaEstimate:
    """Invert the closed-form shift expression (linear in Omega) of the scenario's scheme.

    The coefficient is taken from the forward analytic model itself, so the
    inversion matches whatever cot-vs-1/phi and width-reading conventions
    the scenario selects, and forward-then-invert round-trips to rounding.

    Raises
    ------
    ValidationError
        If the observation is not a finite number, or the scenario's scheme
        is 'both'.
    NonFiniteResult
        If the coefficient is zero or not finite (an underflowed or
        overflowed loop), or the estimate or its residual is not finite.
    """
    check_observation(delta_lambda_obs)
    scheme = single_scheme(config)
    coefficient = float(analytic_shift(config, scheme, 1.0).delta_lambda)
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
    """Invert the numeric forward model against an observed shift.

    Trusts `curve` to be strictly monotone, as `calibration_curve` builds
    it, and requires it to bracket the observation.  The search starts from
    the calibration interval [a, b] = [omega_k, omega_k+1] whose sample
    shifts straddle the observation, found among the samples without a
    forward call; an observation equal to a sample returns that sample's
    rate with zero residual.

    A seed s in (a, b) comes from the curve's `exact` reference alone
    (`_seed`, no grid call), and one call of the curve's model evaluates
    the block [lo, hi, mid], lo = s*(1 - SEED_HALF_WIDTH),
    hi = s*(1 + SEED_HALF_WIDTH), mid = (lo + hi)/2 evaluated last.  If lo
    and hi straddle the observation, the estimate is mid with the block's
    residual there.  Otherwise the block's rates narrow [a, b], mid first,
    so it keeps the sign change nearest the seed; if that lies past the
    block, one-rate steps go out from the seed to s + (e - s)*8**j,
    j = 1, 2, ... (e the block's end on that side, 8 = SEED_STEP_FACTOR),
    each narrowing [a, b], while the step is inside it.  A seed that would
    put the block outside (a, b), or a NaN one, skips the block and the
    steps.

    Plain bisection closes what is left.  It stops once the bracket is no
    wider than BISECTION_REL_TOL * |midpoint| or after BISECTION_MAX_ITER
    steps, and returns the midpoint with the residual of one forward
    evaluation there, so the estimate is the midpoint of a grid-verified
    straddling bracket.  The method label stays "numeric-bisection".

    Raises
    ------
    ValidationError
        If the observation is not a finite number.
    OutOfRangeObservation
        If the observed shift lies outside the calibrated shift range.
    """
    check_observation(delta_lambda_obs)
    values = curve.delta_lambda_values
    lo_val = float(values[0])
    hi_val = float(values[-1])
    vmin, vmax = min(lo_val, hi_val), max(lo_val, hi_val)
    if not vmin <= delta_lambda_obs <= vmax:
        raise OutOfRangeObservation(
            f"observed shift {delta_lambda_obs:.6e} m outside calibrated range "
            f"[{vmin:.6e}, {vmax:.6e}] m"
        )

    # the first sample at or past the observation along the curve's direction
    direction = 1.0 if hi_val > lo_val else -1.0
    k = int(np.searchsorted(direction * values, direction * delta_lambda_obs))
    if values[k] == delta_lambda_obs:
        return OmegaEstimate(
            omega_hat=float(curve.omega_values[k]), method="numeric-bisection", residual=0.0
        )

    a, b = float(curve.omega_values[k - 1]), float(curve.omega_values[k])
    ya, yb = float(values[k - 1]) - delta_lambda_obs, float(values[k]) - delta_lambda_obs

    def excess(om: float) -> float:
        # every step is a one-rate evaluation of the curve's model
        return float(curve.forward(om).delta_lambda[0]) - delta_lambda_obs

    def narrow(x: float, y: float) -> None:
        # a rate inside (a, b) replaces the end whose excess has its sign
        nonlocal a, b
        if a < x < b:
            if (y < 0.0) == (ya < 0.0):
                a = x
            else:
                b = x

    seed = _seed(curve.exact, a, b, ya, yb)
    lo, hi = seed * (1.0 - SEED_HALF_WIDTH), seed * (1.0 + SEED_HALF_WIDTH)
    mid = 0.5 * (lo + hi)
    if a < lo < mid < hi < b:
        # one grid block; the midpoint goes last, so its residual is the last call
        block = curve.forward(np.array([lo, hi, mid])).delta_lambda - delta_lambda_obs
        ylo, yhi, ymid = block.tolist()
        straddles = min(ylo, yhi) <= 0.0 <= max(ylo, yhi)
        if straddles and hi - lo <= BISECTION_REL_TOL * mid:
            return OmegaEstimate(omega_hat=mid, method="numeric-bisection", residual=abs(ymid))
        # a miss: mid first, so [a, b] keeps the sign change nearest the
        # seed; when that is past the block, step out towards it
        for x, y in ((mid, ymid), (lo, ylo), (hi, yhi)):
            narrow(x, y)
        reach = SEED_STEP_FACTOR * ((hi if a >= hi else lo) - seed)
        while a < seed + reach < b:
            narrow(seed + reach, excess(seed + reach))
            reach *= SEED_STEP_FACTOR

    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= BISECTION_REL_TOL * abs(mid):
            break
        narrow(mid, excess(mid))
    omega_hat = 0.5 * (a + b)
    residual = abs(excess(omega_hat))
    return OmegaEstimate(omega_hat=omega_hat, method="numeric-bisection", residual=residual)
