"""
Momentum-space probe spectra on a uniform grid, plus the wavelength <->
momentum conversions used to build them.

Unit convention: wavelengths in m, momenta in 1/m with p = 2*pi/lambda,
intensity as probability density per unit momentum.  The probe is Gaussian
in p; the grid is symmetric about the centre momentum with an odd point
count so the centre lands exactly on a node.

`GridSpec` holds every grid rule.  `gaussian_probe` alone checks what a
line and a grid give together (p0, sigma_p and the node step) as it builds
the probe; the scenario config calls it once, when it is validated.  Those
are the module's only checks of their arguments: the unit conversions and
the integrals take theirs as valid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResult, ValidationError, ZeroTotalIntensity

#: FWHM of a Gaussian divided by its standard deviation: 2*sqrt(2*ln 2)
FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))

#: fractional width sigma_lambda/lambda0 above which the linearized
#: wavelength->momentum width conversion stops being trustworthy
WIDE_SPECTRUM_RATIO = 0.2

_UNDERFLOW = 1e-300

#: most nodes a grid may have: far above any grid the results need (the
#: README's finest is 16001) and small enough to allocate
MAX_GRID_POINTS = 10**6 + 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform momentum grid: centre +- half_width_sigmas * sigma, odd points.

    Holds every grid rule: `points` is an integer of any integer type (not a
    bool) that a float holds, odd, from 3 to MAX_GRID_POINTS, stored as an
    int; `half_width_sigmas` is a finite real from 3 to 12, stored as a float.
    """

    half_width_sigmas: float = 6.0
    points: int = 4001

    def __post_init__(self):
        if not isinstance(self.points, Integral) or not finite_real(self.points):
            raise ValidationError(
                "grid.points", f"must be an integer a float holds, got {self.points!r}"
            )
        if not finite_real(self.half_width_sigmas):
            raise ValidationError(
                "grid.half_width_sigmas", f"must be a finite number, got {self.half_width_sigmas!r}"
            )
        object.__setattr__(self, "points", int(self.points))
        object.__setattr__(self, "half_width_sigmas", float(self.half_width_sigmas))
        if self.points < 3 or self.points % 2 == 0:
            raise ValidationError(
                "grid.points", f"points must be an odd integer >= 3, got {self.points}"
            )
        if self.points > MAX_GRID_POINTS:
            raise ValidationError(
                "grid.points", f"points must be at most {MAX_GRID_POINTS}, got {self.points}"
            )
        if self.half_width_sigmas < 3.0:
            raise ValidationError(
                "grid.half_width_sigmas",
                f"half_width_sigmas = {self.half_width_sigmas} clips too much "
                f"spectral mass; need >= 3",
            )
        if self.half_width_sigmas > 12.0:
            raise ValidationError(
                "grid.half_width_sigmas",
                f"half_width_sigmas = {self.half_width_sigmas} exceeds 12; the "
                f"far tails carry no usable weight",
            )


def finite_real(value) -> bool:
    """A real number, not a bool, that a float holds and that is finite."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class ProbeSpectrum:
    """Gridded momentum-space intensity with its nominal centre and width.

    Built by `gaussian_probe`, whose grid rules make it a valid spectrum, so
    it checks nothing itself.
    """

    p_grid: np.ndarray
    intensity: np.ndarray
    p0: float
    sigma_p: float


class Moments(NamedTuple):
    mean: float
    variance: float


def wavelength_to_momentum(lam: float) -> float:
    """p = 2*pi/lambda."""
    return 2.0 * np.pi / lam


def momentum_to_wavelength(p: float) -> float:
    """lambda = 2*pi/p."""
    return 2.0 * np.pi / p


def sigma_lambda_to_sigma_p(sigma_lambda: float, lambda0: float) -> float:
    """Momentum-space width of a narrow line: sigma_p = 2*pi*sigma_lambda/lambda0^2.

    Linearization of p = 2*pi/lambda about lambda0; emits a warning once the
    fractional width passes WIDE_SPECTRUM_RATIO.
    """
    if sigma_lambda > WIDE_SPECTRUM_RATIO * lambda0:
        warnings.warn(
            f"sigma_lambda/lambda0 = {sigma_lambda / lambda0:.3f} > "
            f"{WIDE_SPECTRUM_RATIO}: linearized width conversion is inaccurate",
            stacklevel=2,
        )
    return 2.0 * np.pi * sigma_lambda / lambda0**2


def gaussian_probe(
    lambda0: float, fwhm_lambda: float, grid: GridSpec = DEFAULT_GRID, lambda0_nm=None
) -> ProbeSpectrum:
    """Normalized Gaussian momentum spectrum of a source centred at lambda0.

    The one place that turns a line and a grid into grid nodes: p0 +
    k*step, k = -(points//2) .. points//2, with step =
    half_width_sigmas*sigma_p/(points//2), so p0 lands exactly on the
    middle node.  Warns as sigma_lambda_to_sigma_p does on a wide line.

    Parameters
    ----------
    lambda0 : float
        Centre wavelength, m.
    fwhm_lambda : float
        Full width at half maximum of the wavelength spectrum, m.
    grid : GridSpec
        Half-width in units of sigma_p and (odd) point count.
    lambda0_nm : float, optional
        The scenario's own wavelength, quoted when the step is refused
        (default: lambda0 in nm).

    Returns
    -------
    ProbeSpectrum
        Intensity on p0 +- half_width_sigmas*sigma_p, trapezoid-normalized
        to 1.

    Raises
    ------
    ValidationError
        For `lambda0_nm` when lambda0 is negative or lambda0^2 underflows or
        overflows; for `fwhm_nm` when fwhm_lambda is negative, when sigma_p
        underflows or overflows, when the step does not separate the nodes
        near p0, or when the lowest node is not a positive momentum.
    """
    # strictly negative: a zero goes on to the lambda0^2 or sigma_p refusal
    for field, value in (("lambda0_nm", lambda0), ("fwhm_nm", fwhm_lambda)):
        if value < 0.0:
            raise ValidationError(field, f"gives {value!r} m, which is negative")
    # before lambda0**2, which raises OverflowError where this product is inf
    if not 0.0 < lambda0 * lambda0 < math.inf:
        raise ValidationError(
            "lambda0_nm", f"gives lambda0 = {lambda0!r} m, whose square underflows or overflows"
        )
    p0 = wavelength_to_momentum(lambda0)
    # Python floats, so no value raises a numpy warning
    sigma_p = sigma_lambda_to_sigma_p(fwhm_lambda / float(FWHM_PER_SIGMA), lambda0)
    if not 0.0 < sigma_p < math.inf:
        raise ValidationError(
            "fwhm_nm", f"gives sigma_p = {sigma_p!r} 1/m, which underflows or overflows"
        )
    half_nodes = grid.points // 2
    step = grid.half_width_sigmas * sigma_p / half_nodes
    # distinct, increasing nodes: the step has to clear two ulps of the largest
    if not step > 2.0 * math.ulp(p0 + step * half_nodes):
        raise ValidationError(
            "fwhm_nm",
            f"gives a momentum grid step of {step!r} 1/m at lambda0_nm = "
            f"{lambda0 * 1e9 if lambda0_nm is None else lambda0_nm!r}, which does not "
            f"separate the grid nodes near p0 = {p0!r} 1/m",
        )
    lowest = p0 - step * half_nodes
    if not lowest > 0.0:
        raise ValidationError("fwhm_nm", f"gives grid nodes down to p = {lowest!r} 1/m <= 0")
    # numpy scalars, converted only here so the messages above keep a float's
    # repr: the closed forms square both, and a float's ** raises
    # OverflowError where numpy's gives inf
    p0, sigma_p = np.float64(p0), np.float64(sigma_p)
    # integer offsets from the middle node keep p0 exactly representable
    p = p0 + step * np.arange(-half_nodes, half_nodes + 1)
    intensity = np.exp(-0.5 * ((p - p0) / sigma_p) ** 2) / (
        sigma_p * np.sqrt(2.0 * np.pi)
    )
    return ProbeSpectrum(p, normalize(p, intensity), p0, sigma_p)


def moments(p: np.ndarray, intensity: np.ndarray) -> Moments:
    """Trapezoidal mean and variance of an intensity on the grid `p`.

    Raises
    ------
    ZeroTotalIntensity
        If the intensity integrates to zero or underflows.
    """
    total, first = integrals(p, intensity, np.diff(p))
    mean = float(first / total)
    variance = float(np.trapezoid((p - mean) ** 2 * intensity, p) / total)
    return Moments(mean=mean, variance=variance)


def integrals(
    p_grid: np.ndarray,
    intensity: np.ndarray,
    widths: np.ndarray,
    scratch: np.ndarray | None = None,
):
    """Trapezoidal total and first moment of each row of `intensity`.

    `intensity` is one spectrum on `p_grid` or a (rows, nodes) stack of
    them; both sums run along the last axis, so each row gets the bits a
    1-d call on that row would.  `widths` is `np.diff(p_grid)`, worked out
    once by a caller that integrates many spectra on one grid.  The sums are
    `np.trapezoid`'s own arithmetic, so they equal it bit for bit.

    `scratch`, an array of `intensity`'s shape less one node on the last
    axis, is for a caller that owns `intensity` too: both sums then form
    their pair sums in `scratch`, and the first-moment integrand
    p * intensity is written over `intensity`, so nothing of the spectrum's
    size is allocated.

    Raises
    ------
    NonFiniteResult
        If any row's total is NaN or infinite (an overflowed intensity).
    ZeroTotalIntensity
        Otherwise, if any row integrates to zero or underflows.
    """
    total = _checked_total(intensity, widths, scratch)
    weighted = np.multiply(p_grid, intensity, out=None if scratch is None else intensity)
    return total, _trapezoid(weighted, widths, scratch)


def _checked_total(intensity: np.ndarray, widths: np.ndarray, scratch=None):
    """Trapezoidal total of each row (`_trapezoid`), refused as `integrals` documents."""
    total = _trapezoid(intensity, widths, scratch)
    # a Python pass over the row totals: a block holds few rows, and this is
    # several times cheaper than numpy reductions on so small an array
    if not all(_UNDERFLOW < t < math.inf for t in np.ravel(total).tolist()):
        if not np.isfinite(total).all():
            raise NonFiniteResult("intensity is not finite on this grid")
        raise ZeroTotalIntensity("intensity integrates to zero on this grid")
    return total


def _trapezoid(y: np.ndarray, widths: np.ndarray, out: np.ndarray | None = None):
    """`np.trapezoid(y, p)` along the last axis, given widths = np.diff(p).

    The pair sums are formed in `out` (`y`'s shape less one node on the
    last axis), by default one new array, and scaled there in place.  The
    halving is `* 0.5`, which rounds every double, subnormals included, to
    the bits of numpy's `/ 2.0`.
    """
    pairs = np.add(y[..., 1:], y[..., :-1], out=out)
    np.multiply(widths, pairs, out=pairs)
    np.multiply(pairs, 0.5, out=pairs)
    return np.add.reduce(pairs, axis=-1)


def normalize(p_grid: np.ndarray, intensity: np.ndarray) -> np.ndarray:
    """`intensity` rescaled so its trapezoidal integral over `p_grid` is 1 (idempotent).

    Raises NonFiniteResult for a NaN or infinite total and ZeroTotalIntensity
    for one that is zero or underflows, as `integrals` does.
    """
    return intensity / _checked_total(intensity, np.diff(p_grid))
