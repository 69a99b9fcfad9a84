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
never replace the numeric values.

`scheme_spectrum`, `analytic_shift`, `pointform_probability` and
`numeric_forward` are the only code that turns (scenario, scheme, rotation
rate) into a spectrum, a shift or a survival probability;
`compare_schemes`, the estimators and the CLI all use them.  Each takes the
scheme and the rate (or rates) as explicit arguments and reads everything
else from the scenario: the probe (`config.probe`, built once per config),
phi and, for the closed forms, `paper_literal` and `delta_lambda_means`.
`analytic_shift` is the one home of the published shift formulas, and
`amplification_factor(config)` reads the width the same way.  A caller that
runs the scenario's own rate passes `config.omega_rad_per_s`, and
`single_scheme` reads the scenario's one scheme, refusing 'both'.

`numeric_forward` is the batched numeric forward model behind `compare`,
the calibration ladder, the bisection, numeric sweeps and the figure3
probability panel.  Binding it works out, once, everything that does not
depend on Omega: the loop constants, the bias, the trapezoid widths
np.diff(p), the probe mean and lambda0.  Each evaluation then computes only
a column of coupling lengths, the sin^2 law on a (rates, nodes) block of at
most NUMERIC_CHUNK_ELEMENTS elements at a time (one rate per block on a grid
with more nodes than that) and two trapezoid sums per rate: the total and
the first moment.  Every block runs in one workspace that the bound model
owns: a (rows, nodes) array that takes the law and then the first-moment
integrand, and a (rows, nodes - 1) array for the trapezoid pair sums.  The
first evaluation allocates it and a later one grows it only for a larger
block, so it holds the largest block evaluated so far (one row for a model
that only ever sees one rate), and no returned array aliases it.  The law
and the trapezoid run their usual ufuncs in place there, so every rate
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

All functions are pure and single-threaded (a bound `numeric_forward`
model writes its workspace, so it is not for concurrent use); reductions
use a fixed order so results are bitwise reproducible.  They take their
arguments as valid: the scenario config and the probe grid checked them,
and a phi, scheme or width reading that these would refuse gives an
undefined result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResult, ValidationError
from .jones import coupling_unitaries, postselection_state, preselection_state, sigma_z
from .sagnac import bias_delay, coupling_length
from .spectrum import FWHM_PER_SIGMA, ProbeSpectrum, integrals, moments, momentum_to_wavelength

#: rates x grid nodes evaluated per block by `numeric_forward`; bounds each
#: of the two float64 arrays of a bound model's workspace to 128 KiB
#: whatever the number of rates (one row, of any size, on a wider grid)
NUMERIC_CHUNK_ELEMENTS = 16384


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
    """Numeric forward results, one entry per rotation rate."""

    delta_p: np.ndarray  # 1/m, mean momentum shift of the gridded spectrum
    delta_lambda: np.ndarray  # m, the same shift as a wavelength
    probability: np.ndarray  # trapezoidal survival probability


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


def mean_shift_numeric(probe: ProbeSpectrum, intensity: np.ndarray) -> MeanShift:
    """Shift of the mean momentum of `intensity`, on the probe grid, from the probe's.

    delta_lambda converts the momentum shift at the probe centre:
    delta_lambda = -delta_p * lambda0^2 / (2*pi).
    """
    post_mean = moments(probe.p_grid, intensity).mean
    probe_mean = moments(probe.p_grid, probe.intensity).mean
    delta_p = post_mean - probe_mean
    lambda0 = momentum_to_wavelength(probe.p0)
    delta_lambda = -delta_p * lambda0**2 / (2.0 * np.pi)
    return MeanShift(delta_p=delta_p, delta_lambda=delta_lambda)


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


def pointform_probability(config, scheme: SchemeKind, omega) -> float:
    """Survival probability read at p0 alone: sin^2(g*p0 + phi_at_p0)."""
    theta0 = _coupling_length(config, omega) * config.probe.p0 + _law(config, scheme)[2]
    return float(np.sin(theta0) ** 2)


def numeric_forward(config, scheme: SchemeKind):
    """Bind the numeric forward model of one scheme to a scenario.

    Returns `evaluate(omegas) -> NumericForward`, flat arrays with one entry
    per rate of `omegas` (a scalar or any array).  Everything that does not
    depend on Omega is worked out here, once: the loop constants, the bias,
    the trapezoid widths, the probe mean and lambda0.  `evaluate` computes
    the coupling lengths and spectra of at most NUMERIC_CHUNK_ELEMENTS //
    nodes rates at a time (at least one) and integrates each row once for its
    total and first moment.

    Every block runs in the model's own workspace (see the module
    docstring), grown to the largest block evaluated so far; no returned
    array aliases it.

    Raises, from `evaluate`, for the first block that holds a rate whose
    spectrum does not integrate to a positive finite total: NonFiniteResult
    for a NaN or infinite total (an overflowed coupling), else
    ZeroTotalIntensity.
    """
    area, loop_lambda0 = config.area_m2, config.lambda0_m()
    phi, psi_pre, _ = _law(config, scheme)
    probe = config.probe
    p = probe.p_grid
    widths = np.diff(p)
    probe_total, probe_first = integrals(p, probe.intensity, widths)
    probe_mean = float(probe_first / probe_total)
    lambda0 = momentum_to_wavelength(probe.p0)
    rows = max(1, NUMERIC_CHUNK_ELEMENTS // p.size)
    law = pairs = np.empty((0, 0))  # the workspace, grown by evaluate

    def evaluate(omegas) -> NumericForward:
        nonlocal law, pairs
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        block_rows = min(rows, omegas.size)
        if len(law) < block_rows:
            law, pairs = np.empty((block_rows, p.size)), np.empty((block_rows, p.size - 1))
        totals = np.empty(omegas.size)
        firsts = np.empty(omegas.size)
        for start in range(0, omegas.size, rows):
            block = slice(start, start + rows)
            g = coupling_length(omegas[block, None], area, loop_lambda0)
            intensity = postselected_spectrum(probe, g, phi, psi_pre, out=law[: len(g)])
            totals[block], firsts[block] = integrals(p, intensity, widths, pairs[: len(g)])
        # the operation order of mean_shift_numeric, rate by rate
        delta_p = firsts / totals - probe_mean
        return NumericForward(
            delta_p=delta_p,
            delta_lambda=-delta_p * lambda0**2 / (2.0 * np.pi),
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
                postselect_prob_pointform=pointform_probability(config, scheme, omega),
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
