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

`scheme_spectrum`, `analytic_shift`, `pointform_probability`,
`numeric_forward` and `bind_delta_lambda` are the only code that turns
(scenario, scheme, rotation rate) into a spectrum, a shift or a survival
probability; `compare_schemes`, the estimators and the CLI all use them.

`numeric_forward` is the batched numeric forward model behind `compare`,
the calibration ladder, the bisection, numeric sweeps and the figure3
probability panel.  Binding it works out, once, everything that does not
depend on Omega: the loop constants, the bias, the trapezoid widths
np.diff(p), the probe mean and lambda0.  Each evaluation then computes only
a column of coupling lengths, the sin^2 law on a (rates, nodes) block of at
most NUMERIC_CHUNK_ELEMENTS elements at a time (128 KiB per float64
temporary; one rate per block on a grid with more nodes than that) and two
trapezoid sums per rate: the total and the first moment.  Every rate gets
the bits a one-rate spectrum and `mean_shift_numeric` /
`postselection_probability` would give it; those two stay as the
per-spectrum reference that tests compare against.

Scheme conventions:

* standard scheme (SWM): no bias, intensity sin^2(g*p + phi) * I(p);
* biased scheme (BWM): a pre-coupling delay psi_pre = (m*pi - phi)/p0
  cancels the analyzer offset exactly at p0, giving
  sin^2(p*(g + psi_pre) + phi) * I(p).

With `paper_literal` the biased intensity is replaced by the published
simplified form sin^2(p*g) * I(p) (exact only at p = p0) and the analytic
shift formulas use 1/phi in place of cot(phi).

All functions are pure and single-threaded; reductions use a fixed order so
results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import PhiOutOfRange
from .jones import coupling_unitaries, postselection_state, preselection_state, sigma_z
from .sagnac import bias_delay, coupling_length
from .spectrum import FWHM_PER_SIGMA, ProbeSpectrum, integrals, moments, momentum_to_wavelength

#: rates x grid nodes evaluated per block by `numeric_forward`; bounds each
#: float64 temporary to 128 KiB whatever the number of rates
NUMERIC_CHUNK_ELEMENTS = 16384


class SchemeKind(Enum):
    SWM = "swm"
    BWM = "bwm"


class MeanShift(NamedTuple):
    delta_p: float  # 1/m
    delta_lambda: float  # m


class NumericForward(NamedTuple):
    """Numeric forward results, one entry per rotation rate."""

    delta_p: np.ndarray  # 1/m, mean momentum shift of the gridded spectrum
    delta_lambda: np.ndarray  # m, the same shift as a wavelength
    probability: np.ndarray  # trapezoidal survival probability


@dataclass(frozen=True)
class PostselectedSpectrum:
    """Unnormalized post-selected intensity; its integral is the survival probability.

    `intensity` is the closed-form sin^2 evaluation on the probe grid; in
    paper-literal biased mode it is the simplified sin^2(p*g) form.
    """

    p_grid: np.ndarray
    intensity: np.ndarray
    p0: float
    sigma_p: float


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
    g: float,
    phi: float,
    psi_pre: float | None = None,
    *,
    paper_literal: bool = False,
) -> PostselectedSpectrum:
    """Post-selected momentum spectrum for one scheme.

    Parameters
    ----------
    probe : ProbeSpectrum
        Input spectrum (normalized or not; passed through unrescaled).
    g : float
        Coupling length from the rotation, m.
    phi : float
        Analyzer offset angle, rad.
    psi_pre : float or None
        None for the standard scheme; the bias delay (m) for the biased scheme.
    paper_literal : bool
        With a bias, use the simplified sin^2(p*g) law for `intensity`
        instead of the full sin^2(p*(g+psi_pre) + phi).

    Returns
    -------
    PostselectedSpectrum
        Unnormalized closed-form intensity on the probe grid.
    """
    intensity = _postselected_intensity(
        probe.p_grid, probe.intensity, g, phi, psi_pre, paper_literal
    )
    return PostselectedSpectrum(
        p_grid=probe.p_grid, intensity=intensity, p0=probe.p0, sigma_p=probe.sigma_p
    )


def _postselected_intensity(p, intensity, g, phi, psi_pre, paper_literal):
    """The sin^2 law times the probe intensity; the law's one home.

    `g` is a coupling length or a column of them (one spectrum per row).
    """
    if paper_literal and psi_pre is not None:
        phase = p * g
    else:
        phase = p * (g + (psi_pre if psi_pre is not None else 0.0)) + phi
    return np.sin(phase) ** 2 * intensity


def transfer_matrix_intensity(
    probe: ProbeSpectrum, g: float, phi: float, psi_pre: float | None = None
) -> np.ndarray:
    """The full post-selected law rebuilt from transfer matrices, for cross-checks.

    Every grid node p_k gets its own coupling unitary
    U_k = exp(-i * p_k * (g + psi_pre) * sigma_z), stacked to shape (N, 2, 2)
    and contracted with the analyzer and input states:
    |<post| U_k |pre>|^2 * I(p_k).  No sin^2 law is used, so agreement with
    `postselected_spectrum` (full law) checks the closed form independently.
    """
    psi = psi_pre if psi_pre is not None else 0.0
    unitaries = coupling_unitaries(sigma_z(), probe.p_grid * (g + psi))
    amps = np.einsum("i,kij,j->k", postselection_state(phi).conj(), unitaries, preselection_state())
    return np.abs(amps) ** 2 * probe.intensity


def postselection_probability(post_spectrum) -> float:
    """Trapezoidal integral of the unnormalized post-selected intensity."""
    return float(np.trapezoid(post_spectrum.intensity, post_spectrum.p_grid))


def mean_shift_numeric(post_spectrum, probe: ProbeSpectrum) -> MeanShift:
    """Shift of the intensity-weighted mean momentum relative to the probe.

    delta_lambda converts the momentum shift at the probe centre:
    delta_lambda = -delta_p * lambda0^2 / (2*pi).
    """
    post_mean = moments(post_spectrum.p_grid, post_spectrum.intensity).mean
    probe_mean = moments(probe).mean
    delta_p = post_mean - probe_mean
    lambda0 = momentum_to_wavelength(probe.p0)
    delta_lambda = -delta_p * lambda0**2 / (2.0 * np.pi)
    return MeanShift(delta_p=delta_p, delta_lambda=delta_lambda)


def _width_ratio_sq(probe: ProbeSpectrum, delta_lambda_means: str) -> float:
    """(spectral width / centre)^2 with the width read as FWHM or as sigma.

    Uses sigma_p/p0, which equals sigma_lambda/lambda0 exactly under the
    linearized conversion.
    """
    ratio = probe.sigma_p / probe.p0
    if delta_lambda_means == "fwhm":
        ratio *= FWHM_PER_SIGMA
    elif delta_lambda_means != "sigma":
        raise ValueError(f"delta_lambda_means must be 'fwhm' or 'sigma', got {delta_lambda_means!r}")
    return ratio**2


def amplification_factor(probe: ProbeSpectrum, delta_lambda_means: str = "fwhm") -> float:
    """(lambda0 / width)^2: biased-over-standard analytic sensitivity gain."""
    return 1.0 / _width_ratio_sq(probe, delta_lambda_means)


def mean_shift_analytic(
    scheme: SchemeKind,
    g: float,
    probe: ProbeSpectrum,
    phi: float,
    delta_lambda_means: str = "fwhm",
    paper_literal: bool = False,
) -> MeanShift:
    """Closed-form mean shifts for either scheme.

    Standard scheme: delta_p = 2*g*sigma_p^2*cot(phi) and
    delta_lambda = 4*pi*g*cot(phi)*(width/lambda0)^2, the width read per
    `delta_lambda_means`.  Biased scheme: delta_p = 2*g*p0^2*cot(phi) and
    delta_lambda = 4*pi*g*cot(phi).  In paper-literal mode cot(phi) becomes
    the published small-angle 1/phi.  The delta_lambda forms quote the shift
    magnitude with the published sign; the numeric delta_lambda carries the
    opposite sign through -lambda0^2/(2*pi).
    """
    if not 0.0 < phi < np.pi / 2.0:
        raise PhiOutOfRange(f"phi must lie in (0, pi/2), got {phi}")
    with np.errstate(over="ignore"):
        cot = 1.0 / phi if paper_literal else 1.0 / np.tan(phi)
    if not np.isfinite(cot):
        # a valid but tiny phi (e.g. 1e-310) overflows 1/tan(phi)
        raise PhiOutOfRange(f"cot(phi) is not finite for phi = {phi}")
    # a huge g*cot overflows to inf silently; callers that publish a single
    # record refuse non-finite values, tables carry them as `inf`
    with np.errstate(over="ignore"):
        if scheme is SchemeKind.SWM:
            delta_p = 2.0 * g * probe.sigma_p**2 * cot
            delta_lambda = 4.0 * np.pi * g * cot * _width_ratio_sq(probe, delta_lambda_means)
        elif scheme is SchemeKind.BWM:
            delta_p = 2.0 * g * probe.p0**2 * cot
            delta_lambda = 4.0 * np.pi * g * cot
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return MeanShift(delta_p=delta_p, delta_lambda=delta_lambda)


def _coupling_length(config, omega=None):
    """Coupling length g at `omega` (scalar or array; None: the scenario's rate)."""
    omega = config.omega_rad_per_s if omega is None else omega
    return coupling_length(omega, config.area_m2, config.lambda0_m())


def _bias(config, scheme: SchemeKind) -> float | None:
    """The bias delay psi_pre (m) of the biased scheme; None for the standard one."""
    if scheme is SchemeKind.SWM:
        return None
    return bias_delay(config.phi_rad, config.lambda0_m(), config.bias_order_m)


def scheme_spectrum(
    config, scheme: SchemeKind, probe: ProbeSpectrum, omega=None
) -> PostselectedSpectrum:
    """Post-selected spectrum of one scheme of a scenario at one rotation rate."""
    return postselected_spectrum(
        probe, _coupling_length(config, omega), config.phi_rad, _bias(config, scheme),
        paper_literal=config.paper_literal,
    )


def analytic_shift(config, scheme: SchemeKind, probe: ProbeSpectrum, omega=None) -> MeanShift:
    """Closed-form shifts of one scheme; broadcasts over an array of rates."""
    return mean_shift_analytic(
        scheme, _coupling_length(config, omega), probe, config.phi_rad,
        config.delta_lambda_means, config.paper_literal,
    )


def pointform_probability(config, scheme: SchemeKind, probe: ProbeSpectrum, omega=None) -> float:
    """Survival probability read at p0 alone: sin^2(g*p0 + phi) or, biased, sin^2(g*p0).

    The biased full law reduces to the latter exactly at p0 for any bias order.
    """
    theta0 = _coupling_length(config, omega) * probe.p0
    if scheme is SchemeKind.SWM:
        theta0 += config.phi_rad
    return float(np.sin(theta0) ** 2)


def numeric_forward(config, scheme: SchemeKind, probe: ProbeSpectrum):
    """Bind the numeric forward model of one scheme to a scenario and probe.

    Returns `evaluate(omegas) -> NumericForward`, flat arrays with one entry
    per rate of `omegas` (a scalar or any array).  Everything that does not
    depend on Omega is worked out here, once: the loop constants, the bias,
    the trapezoid widths, the probe mean and lambda0.  `evaluate` computes
    the coupling lengths and spectra of at most NUMERIC_CHUNK_ELEMENTS //
    nodes rates at a time (at least one) and integrates each row once for its
    total and first moment.

    Raises ZeroTotalIntensity, from `evaluate`, for the first block that
    holds a rate whose spectrum integrates to zero.
    """
    area, loop_lambda0 = config.area_m2, config.lambda0_m()
    psi_pre, phi, paper_literal = _bias(config, scheme), config.phi_rad, config.paper_literal
    p, probe_intensity = probe.p_grid, probe.intensity
    widths = np.diff(p)
    probe_total, probe_first = integrals(p, probe_intensity, widths)
    probe_mean = float(probe_first / probe_total)
    lambda0 = momentum_to_wavelength(probe.p0)
    rows = max(1, NUMERIC_CHUNK_ELEMENTS // p.size)

    def evaluate(omegas) -> NumericForward:
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        totals = np.empty(omegas.size)
        firsts = np.empty(omegas.size)
        for start in range(0, omegas.size, rows):
            block = slice(start, start + rows)
            g = coupling_length(omegas[block, None], area, loop_lambda0)
            intensity = _postselected_intensity(p, probe_intensity, g, phi, psi_pre, paper_literal)
            totals[block], firsts[block] = integrals(p, intensity, widths)
        # the operation order of mean_shift_numeric, rate by rate
        delta_p = firsts / totals - probe_mean
        return NumericForward(
            delta_p=delta_p,
            delta_lambda=-delta_p * lambda0**2 / (2.0 * np.pi),
            probability=totals,
        )

    return evaluate


def bind_delta_lambda(config, scheme: SchemeKind, probe: ProbeSpectrum, mode: str):
    """Bind `omegas -> delta_lambda` (m; flat, one entry per rate) for one scheme.

    "analytic" evaluates the closed form on the whole array at once and
    builds no spectrum; "numeric" is `numeric_forward`, bound here once.
    """
    if mode == "analytic":

        def analytic(omegas) -> np.ndarray:
            omegas = np.asarray(omegas, dtype=float)
            return np.asarray(analytic_shift(config, scheme, probe, omegas).delta_lambda).reshape(-1)

        return analytic
    evaluate = numeric_forward(config, scheme, probe)
    return lambda omegas: evaluate(omegas).delta_lambda


def compare_schemes(config) -> tuple[MeasurementResult, MeasurementResult]:
    """Run both schemes on identical probe and rotation inputs.

    Returns the (standard, biased) results with every numeric and analytic
    field filled in.
    """
    probe = config.probe()
    amp = amplification_factor(probe, config.delta_lambda_means)
    results = []
    for scheme in (SchemeKind.SWM, SchemeKind.BWM):
        numeric = numeric_forward(config, scheme, probe)(config.omega_rad_per_s)
        analytic = analytic_shift(config, scheme, probe)
        results.append(
            MeasurementResult(
                scheme=scheme,
                delta_p_numeric=float(numeric.delta_p[0]),
                delta_lambda_numeric=float(numeric.delta_lambda[0]),
                delta_p_analytic=analytic.delta_p,
                delta_lambda_analytic=analytic.delta_lambda,
                postselect_prob_numeric=float(numeric.probability[0]),
                postselect_prob_pointform=pointform_probability(config, scheme, probe),
                amplification_factor=amp,
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
