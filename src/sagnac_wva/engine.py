"""
Post-selected spectra for the standard and biased measurement schemes, their
numeric mean shifts, the closed-form shift and probability expressions, and
a numeric-vs-analytic discrepancy report.

Ground truth throughout is the post-selected spectrum evaluated exactly on
the grid from the closed-form sin^2(p*(g + psi_pre) + phi) law.
`transfer_matrix_intensity` rebuilds the same full law independently from
stacked 2x2 transfer matrices of the `jones` algebra; it is a cross-check
that tests call, not part of any forward evaluation.  Closed-form
mean-shift and probability expressions are always labelled analytic and
never replace the numeric values.  `exact_gaussian` integrates the same
full law over the untruncated Gaussian probe in closed form: a reference,
not ground truth.  It differs from the grid by the 6-sigma truncation
(about 7e-8 of the shift) and the grid's rounding.  The numeric
inversion uses it to certify a calibration curve, on the rates of
`phase_samples`, and to place the grid block it then evaluates; no output
reports it.  Like `numeric_forward` it is bound once per scheme; the bound
reference keeps numpy's shapes, so one rate gives numpy scalars (the seed's
one-rate steps) with the bits an array of rates gives it.

Each forward quantity has one home: `_coupling_length` turns rates into
coupling lengths g for every function here, the bound models included, and
`_delta_lambda(delta_p, p0)` turns every momentum shift into a wavelength
shift, working out lambda0 = 2*pi/p0 itself.

`scheme_spectrum`, `analytic_shift`, `pointform_probability`,
`numeric_forward` and `exact_gaussian` are the only code that turns
(scenario, scheme, rotation rate) into a spectrum, a shift or a survival
probability; `compare_schemes`, the estimators and the CLI all use them.
Each takes the scheme and the rate (or rates) as explicit arguments (the
two bound models take the rates when evaluated) and reads everything else
from the scenario: the probe (`config.probe`, built once per config), phi
and, for the closed forms, `paper_literal` and `delta_lambda_means`.
`analytic_shift` is the one home of the published shift formulas, and
`amplification_factor(config)` reads the width the same way.  A caller that
runs the scenario's own rate passes `config.omega_rad_per_s`, and
`single_scheme` reads the scenario's one scheme, refusing 'both'.

`numeric_forward` is the batched numeric forward model behind `compare`,
the calibration ladder, the bisection, numeric sweeps and the figure3
probability panel.  Binding it works out, once, the law's numbers (`_law`),
the trapezoid widths np.diff(p) and the probe mean.  Each evaluation then
computes only a column of coupling lengths, the sin^2 law on a (rates,
nodes) block of at most NUMERIC_CHUNK_ELEMENTS elements at a time (one rate
per block on a grid with more nodes than that) and two trapezoid sums per
rate: the total and the first moment.  Each evaluation allocates two
arrays with one row per rate of a block (never more rows than rates) and
drops them when it returns: a (rows, nodes) array that takes the law and
then the first-moment integrand, and a (rows, nodes - 1) array for the
trapezoid pair sums.  A bound model holds no array between calls.  The
law and the trapezoid run their usual ufuncs in place there, so every rate
gets the bits a one-rate spectrum and `mean_shift_numeric` /
`postselection_probability` would give it; those two stay as the
per-spectrum reference that tests compare against.

Scheme conventions: every scheme is the one law
sin^2(p*(g + psi_pre) + phi) * I(p), which reads sin^2(g*p0 + phi_at_p0) at
p = p0 (up to a multiple of pi in the phase).  `_law` alone maps a scheme to
its three numbers:

    scheme                phi    psi_pre            phi_at_p0
    swm                   phi    0                  phi
    bwm                   phi    (m*pi - phi)/p0    0
    bwm, paper_literal    0      0                  0

The biased scheme's pre-coupling delay psi_pre cancels the analyzer offset
exactly at p0.  The paper-literal biased row is the published simplified
form sin^2(p*g) * I(p), exact only at p = p0; with `paper_literal` the
analytic shift formulas also use 1/phi in place of cot(phi).

All functions, the bound models included, are pure and single-threaded;
reductions use a fixed order so results are bitwise reproducible.  They
take their arguments as valid: the scenario config and the probe grid
checked them, and a phi, scheme or width reading that these would refuse
gives an undefined result, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResult, ValidationError
from .jones import coupling_unitaries, postselection_state, preselection_state, sigma_z
from .sagnac import bias_delay, coupling_length
from .spectrum import FWHM_PER_SIGMA, ProbeSpectrum, integrals, moments, momentum_to_wavelength

#: rates x grid nodes evaluated per block by `numeric_forward`; bounds each
#: of the two float64 block arrays of one evaluation to 128 KiB whatever
#: the number of rates (one row, of any size, on a wider grid)
NUMERIC_CHUNK_ELEMENTS = 16384
#: rates per segment of `phase_samples`, and the most rates it places on a
#: bracket; one that needs more is refused, not sampled
PHASE_SEGMENT = 129
PHASE_SAMPLE_CAP = 200_000
#: PHASE_SEGMENT fractions evenly spaced from 0 to 1, one sample row's shape
_UNIT = np.linspace(0.0, 1.0, PHASE_SEGMENT)


class SchemeKind(Enum):
    SWM = "swm"
    BWM = "bwm"


def single_scheme(config) -> SchemeKind:
    """The scenario's one scheme; a 'both' scenario is refused."""
    if config.scheme == "both":
        raise ValidationError(
            "scheme",
            'this command needs a single scheme; set "scheme" to "swm" or "bwm" in the scenario',
        )
    return SchemeKind(config.scheme)


class MeanShift(NamedTuple):
    delta_p: float  # 1/m
    delta_lambda: float  # m


class NumericForward(NamedTuple):
    """Forward results per rotation rate: the grid's (`numeric_forward`, one
    entry per rate) or the untruncated reference's (`exact_gaussian`, in the
    shape of its rates)."""

    delta_p: np.ndarray  # 1/m, mean momentum shift of the post-selected spectrum
    delta_lambda: np.ndarray  # m, the same shift as a wavelength
    probability: np.ndarray  # survival probability (trapezoidal on the grid)


@dataclass(frozen=True)
class MeasurementResult:
    """One scheme's numeric and analytic outputs on a common probe/rotation."""

    scheme: SchemeKind
    delta_p_numeric: float
    delta_lambda_numeric: float
    delta_p_analytic: float
    delta_lambda_analytic: float
    postselect_prob_numeric: float
    postselect_prob_pointform: float
    amplification_factor: float


@dataclass(frozen=True)
class DiscrepancyRow:
    scheme: SchemeKind
    quantity: str  # "delta_p" | "delta_lambda" | "postselect_prob"
    numeric: float
    analytic: float
    relative_difference: float


def postselected_spectrum(
    probe: ProbeSpectrum,
    g: float | np.ndarray,
    phi: float,
    psi_pre: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Post-selected momentum spectrum sin^2(p*(g + psi_pre) + phi) * I(p); the law's one home.

    Parameters
    ----------
    probe : ProbeSpectrum
        Input spectrum (normalized or not; passed through unrescaled).
    g : float or ndarray
        Coupling length from the rotation, m, or a (rows, 1) column of them.
    phi : float
        Phase offset of the law, rad (see `_law` for each scheme's).
    psi_pre : float
        Pre-coupling bias delay, m; 0 without a bias.
    out : ndarray, optional
        Array of the result's shape to write the intensity into; by default
        one new array.  Either way the law runs in place in the result, so
        no other array of its size is allocated, and the bits are the same.

    Returns
    -------
    ndarray
        Unnormalized intensity on `probe.p_grid`, one row per g (`out` when
        given).
    """
    law = np.multiply(probe.p_grid, g + psi_pre, out=out)
    np.add(law, phi, out=law)
    np.sin(law, out=law)
    np.square(law, out=law)
    return np.multiply(law, probe.intensity, out=law)


def transfer_matrix_intensity(
    probe: ProbeSpectrum, g: float, phi: float, psi_pre: float = 0.0
) -> np.ndarray:
    """The full post-selected law rebuilt from transfer matrices, for cross-checks.

    Every grid node p_k gets its own coupling unitary
    U_k = exp(-i * p_k * (g + psi_pre) * sigma_z), stacked to shape (N, 2, 2)
    and contracted with the analyzer and input states:
    |<post| U_k |pre>|^2 * I(p_k).  No sin^2 law is used, so agreement with
    `postselected_spectrum` (full law) checks the closed form independently.
    """
    unitaries = coupling_unitaries(sigma_z(), probe.p_grid * (g + psi_pre))
    amps = np.einsum("i,kij,j->k", postselection_state(phi).conj(), unitaries, preselection_state())
    return np.abs(amps) ** 2 * probe.intensity


def postselection_probability(probe: ProbeSpectrum, intensity: np.ndarray) -> float:
    """Trapezoidal integral of an unnormalized post-selected intensity on the probe grid."""
    return float(np.trapezoid(intensity, probe.p_grid))


def _delta_lambda(delta_p, p0):
    """A momentum shift as a wavelength shift at the probe centre p0:
    -delta_p * lambda0^2 / (2*pi) with lambda0 = 2*pi/p0; the package's one
    such conversion, and the one place that works out that lambda0."""
    return -delta_p * momentum_to_wavelength(p0) ** 2 / (2.0 * np.pi)


def mean_shift_numeric(probe: ProbeSpectrum, intensity: np.ndarray) -> MeanShift:
    """Shift of the mean momentum of `intensity`, on the probe grid, from the
    probe's, and the same shift as a wavelength (`_delta_lambda`)."""
    post_mean = moments(probe.p_grid, intensity).mean
    probe_mean = moments(probe.p_grid, probe.intensity).mean
    delta_p = post_mean - probe_mean
    return MeanShift(delta_p=delta_p, delta_lambda=_delta_lambda(delta_p, probe.p0))


def _width_ratio_sq(config) -> float:
    """(spectral width / centre)^2 with the width read per `delta_lambda_means`.

    Uses sigma_p/p0, which equals sigma_lambda/lambda0 exactly under the
    linearized conversion.
    """
    ratio = config.probe.sigma_p / config.probe.p0
    if config.delta_lambda_means == "fwhm":
        ratio *= FWHM_PER_SIGMA
    return ratio**2


def amplification_factor(config) -> float:
    """(lambda0 / width)^2: biased-over-standard analytic sensitivity gain."""
    return 1.0 / _width_ratio_sq(config)


def _coupling_length(config, omega):
    """Coupling length g at `omega`, a scalar or an array of rates."""
    return coupling_length(omega, config.area_m2, config.lambda0_m())


def _law(config, scheme: SchemeKind) -> tuple[float, float, float]:
    """(phi, psi_pre, phi_at_p0) of a scheme's law; the table in the module docstring."""
    if scheme is SchemeKind.SWM:
        return config.phi_rad, 0.0, config.phi_rad
    if config.paper_literal:
        return 0.0, 0.0, 0.0
    return config.phi_rad, bias_delay(config.phi_rad, config.lambda0_m(), config.bias_order_m), 0.0


def scheme_spectrum(config, scheme: SchemeKind, omega) -> np.ndarray:
    """Post-selected intensity of one scheme of a scenario at one rotation rate."""
    phi, psi_pre, _ = _law(config, scheme)
    return postselected_spectrum(config.probe, _coupling_length(config, omega), phi, psi_pre)


def analytic_shift(config, scheme: SchemeKind, omega) -> MeanShift:
    """Closed-form mean shifts of one scheme; broadcasts over an array of rates.

    Standard scheme: delta_p = 2*g*sigma_p^2*cot(phi) and
    delta_lambda = 4*pi*g*cot(phi)*(width/lambda0)^2, the width read per
    `delta_lambda_means`.  Biased scheme: delta_p = 2*g*p0^2*cot(phi) and
    delta_lambda = 4*pi*g*cot(phi).  In paper-literal mode cot(phi) becomes
    the published small-angle 1/phi.  The delta_lambda forms quote the shift
    magnitude with the published sign; the numeric delta_lambda carries the
    opposite sign through -lambda0^2/(2*pi).
    """
    g = _coupling_length(config, omega)
    probe, phi = config.probe, config.phi_rad
    # a huge g*cot overflows to inf silently; callers that publish a single
    # record refuse non-finite values, tables carry them as `inf`
    with np.errstate(over="ignore"):
        cot = 1.0 / phi if config.paper_literal else 1.0 / np.tan(phi)
        if not np.isfinite(cot):
            # a valid but tiny phi (e.g. 1e-310) overflows 1/tan(phi)
            raise NonFiniteResult(f"cot(phi) is not finite for phi = {phi}")
        if scheme is SchemeKind.SWM:
            delta_p = 2.0 * g * probe.sigma_p**2 * cot
            delta_lambda = 4.0 * np.pi * g * cot * _width_ratio_sq(config)
        else:
            delta_p = 2.0 * g * probe.p0**2 * cot
            delta_lambda = 4.0 * np.pi * g * cot
    return MeanShift(delta_p=delta_p, delta_lambda=delta_lambda)


def exact_gaussian(config, scheme: SchemeKind):
    """Bind the untruncated Gaussian integrals of one scheme's law; a reference.

    Returns `evaluate(omegas) -> NumericForward`, fields in numpy's shapes:
    one rate (a Python float or a numpy scalar) gives numpy scalars, and a
    sequence or an array gives arrays of its shape.  Both run the same
    operations in the same order, so a rate gets the same bits either way.
    The law's numbers (`_law`), p0 and sigma_p^2 are worked out here, once;
    each evaluation takes g from `_coupling_length` and converts delta_p
    with `_delta_lambda`.

    With a = g + psi_pre, theta/2 = g*p0 + phi_at_p0 (see `_law`) and
    x = 2*a^2*sigma_p^2, the probe's integrals of sin^2(a*p + phi) give
    P = (-expm1(-x) + 2*exp(-x)*sin^2(theta/2)) / 2 and
    delta_p = 2*a*sigma_p^2*exp(-x)*sin(theta) / (2*P), converted to
    delta_lambda by `_delta_lambda` as in `numeric_forward`.  These are
    integrals over the whole line, not the grid: a labelled exact-gaussian
    reference that certifies and seeds the numeric inversion, never a
    result.  An overflow (sigma_p^2 on a tiny lambda0) gives a non-finite
    value, not a warning, when binding and when evaluating.
    """
    _, psi_pre, phi_at_p0 = _law(config, scheme)
    p0 = config.probe.p0
    with np.errstate(all="ignore"):
        variance = config.probe.sigma_p**2

    def evaluate(omegas) -> NumericForward:
        omegas = np.asarray(omegas, dtype=float)
        g = _coupling_length(config, omegas)
        with np.errstate(all="ignore"):
            a = g + psi_pre
            half_theta = g * p0 + phi_at_p0
            # np.square, not ** 2: a numpy scalar's ** is pow, which can
            # differ from an array's square in the last bit
            x = 2.0 * np.square(a) * variance
            decay = np.exp(-x)
            twice_p = -np.expm1(-x) + 2.0 * decay * np.square(np.sin(half_theta))
            delta_p = 2.0 * a * variance * decay * np.sin(2.0 * half_theta) / twice_p
            delta_lambda = _delta_lambda(delta_p, p0)
        return NumericForward(delta_p, delta_lambda, probability=0.5 * twice_p)

    return evaluate


def phase_samples(config, scheme: SchemeKind, omega_lo: float, omega_hi: float):
    """Rates that resolve one scheme's `exact_gaussian` curve on [omega_lo, omega_hi].

    The law's phase theta/2 = g'*p0*Omega + phi_at_p0 is linear in Omega
    (g', the coupling length per unit rate, and the rest from `_law`).  The
    curve turns twice per fringe, each time within about
    |a_k|*sigma_p/(g'*p0) of a rate Omega_k where theta/2 = k*pi
    (a_k = g'*Omega_k + psi_pre), so sharply where that is small.  Returns
    a (segments, PHASE_SEGMENT) array, each row increasing: rows of linear
    samples across the bracket at most pi/16 of theta/2 apart, each row
    starting where the one before ended; then, for each k whose window
    Omega_k +- 8*|a_k|*sigma_p/(g'*p0) meets the bracket, one row of linear
    and one of log-spaced samples across the window's part inside it.  The
    k are looked for within the widest window of the bracket's own rates.
    None when that would take more than PHASE_SAMPLE_CAP rates (a bracket
    over about 740 fringes), or when g'*p0 is 0 or not finite.
    """
    _, psi_pre, phi_at_p0 = _law(config, scheme)
    omega_lo, omega_hi, sigma_p = float(omega_lo), float(omega_hi), config.probe.sigma_p
    slope = _coupling_length(config, 1.0)
    rate = slope * config.probe.p0  # rad of theta/2 per rad/s
    reach = 8.0 * sigma_p * max(abs(slope * omega_lo + psi_pre), abs(slope * omega_hi + psi_pre))
    # rows of 128 steps of pi/16 span 8*pi of theta/2 each; k from the
    # phases the widest window around the bracket reaches
    bounds = (
        rate * (omega_hi - omega_lo) / (8.0 * np.pi),
        (rate * omega_lo + phi_at_p0 - reach) / np.pi,
        (rate * omega_hi + phi_at_p0 + reach) / np.pi,
    )
    if not (rate > 0.0 and all(map(math.isfinite, bounds))):
        return None
    pieces = max(1, math.ceil(bounds[0]))
    k_first, k_last = math.ceil(bounds[1]), math.floor(bounds[2])
    if (pieces + 2 * max(0, k_last - k_first + 1)) * PHASE_SEGMENT > PHASE_SAMPLE_CAP:
        return None
    windows = []
    for k in range(k_first, k_last + 1):
        centre = (k * np.pi - phi_at_p0) / rate
        half = 8.0 * sigma_p * abs(slope * centre + psi_pre) / rate
        lo, hi = max(centre - half, omega_lo), min(centre + half, omega_hi)
        if lo < hi:
            windows.append((lo, hi))
    linear = omega_lo + (omega_hi - omega_lo) / pieces * (np.arange(pieces)[:, None] + _UNIT)
    if not windows:
        return linear
    lo, hi = np.transpose(windows)[:, :, None]
    log_lo = np.log(lo)
    log_rows = np.exp(log_lo + (np.log(hi) - log_lo) * _UNIT)
    return np.concatenate([linear, lo + (hi - lo) * _UNIT, log_rows])


def pointform_probability(config, scheme: SchemeKind, omega) -> np.float64 | np.ndarray:
    """Survival probability read at p0 alone: sin^2(g*p0 + phi_at_p0).

    Broadcasts over an array of rates.  The square is np.float_power, libm's
    pow, so an array of rates gets the bits of one rate at a time; an
    array's ** 2 is np.square, which can differ in the last bit.
    """
    theta0 = _coupling_length(config, omega) * config.probe.p0 + _law(config, scheme)[2]
    return np.float_power(np.sin(theta0), 2.0)


def numeric_forward(config, scheme: SchemeKind):
    """Bind the numeric forward model of one scheme to a scenario.

    Returns `evaluate(omegas) -> NumericForward`, flat arrays with one entry
    per rate of `omegas` (a scalar or any array).  The law's numbers
    (`_law`), the trapezoid widths and the probe mean are worked out here,
    once.  `evaluate` computes the coupling lengths (`_coupling_length`)
    and spectra of at most NUMERIC_CHUNK_ELEMENTS // nodes rates at a time
    (at least one) and integrates each row once for its total and first
    moment.

    Every block of one evaluation runs in the same two arrays (see the
    module docstring), allocated per call; the model keeps none of them.

    Raises, from `evaluate`, for the first block that holds a rate whose
    spectrum does not integrate to a positive finite total: NonFiniteResult
    for a NaN or infinite total (an overflowed coupling), else
    ZeroTotalIntensity.
    """
    phi, psi_pre, _ = _law(config, scheme)
    probe = config.probe
    p = probe.p_grid
    widths = np.diff(p)
    probe_total, probe_first = integrals(p, probe.intensity, widths)
    probe_mean = float(probe_first / probe_total)
    rows = max(1, NUMERIC_CHUNK_ELEMENTS // p.size)

    def evaluate(omegas) -> NumericForward:
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        block_rows = min(rows, omegas.size)
        law, pairs = np.empty((block_rows, p.size)), np.empty((block_rows, p.size - 1))
        totals = np.empty(omegas.size)
        firsts = np.empty(omegas.size)
        for start in range(0, omegas.size, rows):
            block = slice(start, start + rows)
            g = _coupling_length(config, omegas[block, None])
            intensity = postselected_spectrum(probe, g, phi, psi_pre, out=law[: len(g)])
            totals[block], firsts[block] = integrals(p, intensity, widths, pairs[: len(g)])
        # the operation order of mean_shift_numeric, rate by rate
        delta_p = firsts / totals - probe_mean
        return NumericForward(
            delta_p=delta_p,
            delta_lambda=_delta_lambda(delta_p, probe.p0),
            probability=totals,
        )

    return evaluate


def compare_schemes(config) -> tuple[MeasurementResult, MeasurementResult]:
    """Run both schemes on identical probe and rotation inputs.

    Returns the (standard, biased) results with every numeric and analytic
    field filled in.
    """
    omega = config.omega_rad_per_s
    results = []
    for scheme in (SchemeKind.SWM, SchemeKind.BWM):
        numeric = numeric_forward(config, scheme)(omega)
        analytic = analytic_shift(config, scheme, omega)
        results.append(
            MeasurementResult(
                scheme=scheme,
                delta_p_numeric=float(numeric.delta_p[0]),
                delta_lambda_numeric=float(numeric.delta_lambda[0]),
                delta_p_analytic=analytic.delta_p,
                delta_lambda_analytic=analytic.delta_lambda,
                postselect_prob_numeric=float(numeric.probability[0]),
                postselect_prob_pointform=float(pointform_probability(config, scheme, omega)),
                amplification_factor=amplification_factor(config),
            )
        )
    return results[0], results[1]


def _relative_difference(numeric: float, analytic: float) -> float:
    if analytic == 0.0:
        return 0.0 if numeric == 0.0 else float("inf")
    return abs(numeric - analytic) / abs(analytic)


def discrepancy_from_results(results) -> list[DiscrepancyRow]:
    """Six-row numeric-vs-analytic table (3 quantities x 2 schemes).

    Reporting only: rows are emitted whatever the size of the difference.
    The biased-scheme delta_p and delta_lambda rows routinely show order-one
    relative differences; that is the point of the report.
    """
    rows = []
    for res in results:
        for quantity, numeric, analytic in (
            ("delta_p", res.delta_p_numeric, res.delta_p_analytic),
            ("delta_lambda", res.delta_lambda_numeric, res.delta_lambda_analytic),
            ("postselect_prob", res.postselect_prob_numeric, res.postselect_prob_pointform),
        ):
            rows.append(
                DiscrepancyRow(
                    scheme=res.scheme,
                    quantity=quantity,
                    numeric=numeric,
                    analytic=analytic,
                    relative_difference=_relative_difference(numeric, analytic),
                )
            )
    return rows


def discrepancy_report(config) -> list[DiscrepancyRow]:
    """Run both schemes and tabulate numeric vs analytic for each quantity."""
    return discrepancy_from_results(compare_schemes(config))
