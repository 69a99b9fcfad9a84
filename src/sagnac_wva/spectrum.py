"""
Momentum-space probe spectra on a uniform grid, plus the wavelength <->
momentum conversions used to build them.

Unit convention: wavelengths in m, momenta in 1/m with p = 2*pi/lambda,
intensity as probability density per unit momentum.  The probe is Gaussian
in p; the grid is symmetric about the centre momentum with an odd point
count so the centre lands exactly on a node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridPointsInvalid,
    GridTooNarrow,
    GridTooWide,
    NonPositiveInput,
    ZeroTotalIntensity,
)

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
    """Uniform momentum grid: centre +- half_width_sigmas * sigma, odd points."""

    half_width_sigmas: float = 6.0
    points: int = 4001

    def __post_init__(self):
        if int(self.points) != self.points or self.points < 3 or self.points % 2 == 0:
            raise GridPointsInvalid(f"points must be an odd integer >= 3, got {self.points}")
        if self.points > MAX_GRID_POINTS:
            raise GridPointsInvalid(
                f"points must be at most {MAX_GRID_POINTS}, got {self.points}"
            )
        if self.half_width_sigmas < 3.0:
            raise GridTooNarrow(
                f"half_width_sigmas = {self.half_width_sigmas} clips too much "
                f"spectral mass; need >= 3"
            )
        if self.half_width_sigmas > 12.0:
            raise GridTooWide(
                f"half_width_sigmas = {self.half_width_sigmas} exceeds 12; the "
                f"far tails carry no usable weight"
            )


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class ProbeSpectrum:
    """Gridded momentum-space intensity with its nominal centre and width."""

    p_grid: np.ndarray
    intensity: np.ndarray
    p0: float
    sigma_p: float

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        i = np.asarray(self.intensity, dtype=float)
        if p.ndim != 1 or p.shape != i.shape:
            raise ValueError("p_grid and intensity must be matching 1-d arrays")
        if not np.all(np.diff(p) > 0.0):
            raise ValueError("p_grid must be strictly increasing")
        if np.any(i < 0.0):
            raise ValueError("intensity must be nonnegative")
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "intensity", i)


class Moments(NamedTuple):
    mean: float
    variance: float


def fwhm_to_sigma(fwhm: float) -> float:
    """Standard deviation of a Gaussian with the given full width at half max."""
    if fwhm <= 0.0:
        raise NonPositiveInput(f"fwhm must be > 0, got {fwhm}")
    return fwhm / FWHM_PER_SIGMA


def wavelength_to_momentum(lam: float) -> float:
    """p = 2*pi/lambda."""
    if lam <= 0.0:
        raise NonPositiveInput(f"wavelength must be > 0, got {lam}")
    return 2.0 * np.pi / lam


def momentum_to_wavelength(p: float) -> float:
    """lambda = 2*pi/p."""
    if p <= 0.0:
        raise NonPositiveInput(f"momentum must be > 0, got {p}")
    return 2.0 * np.pi / p


def sigma_lambda_to_sigma_p(sigma_lambda: float, lambda0: float) -> float:
    """Momentum-space width of a narrow line: sigma_p = 2*pi*sigma_lambda/lambda0^2.

    Linearization of p = 2*pi/lambda about lambda0; emits a warning once the
    fractional width passes WIDE_SPECTRUM_RATIO.
    """
    if lambda0 <= 0.0:
        raise NonPositiveInput(f"lambda0 must be > 0, got {lambda0}")
    if sigma_lambda < 0.0:
        raise NonPositiveInput(f"sigma_lambda must be >= 0, got {sigma_lambda}")
    if sigma_lambda > WIDE_SPECTRUM_RATIO * lambda0:
        warnings.warn(
            f"sigma_lambda/lambda0 = {sigma_lambda / lambda0:.3f} > "
            f"{WIDE_SPECTRUM_RATIO}: linearized width conversion is inaccurate",
            stacklevel=2,
        )
    return 2.0 * np.pi * sigma_lambda / lambda0**2


def gaussian_probe(
    lambda0: float, fwhm_lambda: float, grid: GridSpec = DEFAULT_GRID
) -> ProbeSpectrum:
    """Normalized Gaussian momentum spectrum of a source centred at lambda0.

    Parameters
    ----------
    lambda0 : float
        Centre wavelength, m.
    fwhm_lambda : float
        Full width at half maximum of the wavelength spectrum, m.
    grid : GridSpec
        Half-width in units of sigma_p and (odd) point count.

    Returns
    -------
    ProbeSpectrum
        Intensity on p0 +- half_width_sigmas*sigma_p, trapezoid-normalized
        to 1, with p0 exactly on the middle node.
    """
    p0 = wavelength_to_momentum(lambda0)
    sigma_p = sigma_lambda_to_sigma_p(fwhm_to_sigma(fwhm_lambda), lambda0)
    # integer offsets from the middle node keep p0 exactly representable
    half_nodes = grid.points // 2
    step = grid.half_width_sigmas * sigma_p / half_nodes
    p = p0 + step * np.arange(-half_nodes, half_nodes + 1)
    intensity = np.exp(-0.5 * ((p - p0) / sigma_p) ** 2) / (
        sigma_p * np.sqrt(2.0 * np.pi)
    )
    return normalize(ProbeSpectrum(p, intensity, p0, sigma_p))


def moments(s, intensity=None) -> Moments:
    """Trapezoidal mean and variance of a gridded intensity.

    Accepts a ProbeSpectrum (or anything with p_grid/intensity attributes),
    or a (p_grid, intensity) pair of arrays.

    Raises
    ------
    ZeroTotalIntensity
        If the intensity integrates to zero or underflows.
    """
    if intensity is None:
        p, i = s.p_grid, s.intensity
    else:
        p = np.asarray(s, dtype=float)
        i = np.asarray(intensity, dtype=float)
    total, first = integrals(p, i)
    mean = float(first / total)
    variance = float(np.trapezoid((p - mean) ** 2 * i, p) / total)
    return Moments(mean=mean, variance=variance)


def integrals(p_grid: np.ndarray, intensity: np.ndarray, widths: np.ndarray | None = None):
    """Trapezoidal total and first moment of each row of `intensity`.

    `intensity` is one spectrum on `p_grid` or a (rows, nodes) stack of
    them; both sums run along the last axis, so each row gets the bits a
    1-d call on that row would.  `widths` is `np.diff(p_grid)`, passed in by
    callers that integrate many spectra on one grid.  The sums are
    `np.trapezoid`'s own arithmetic, so they equal it bit for bit.

    Raises
    ------
    ZeroTotalIntensity
        If any row integrates to zero, underflows or is not finite.
    """
    if widths is None:
        widths = np.diff(p_grid)
    total = _trapezoid(intensity, widths)
    # a Python pass over the row totals: a block holds few rows, and this is
    # several times cheaper than numpy reductions on so small an array
    if not all(_UNDERFLOW < t < math.inf for t in np.ravel(total).tolist()):
        raise ZeroTotalIntensity("intensity integrates to zero on this grid")
    return total, _trapezoid(p_grid * intensity, widths)


def _trapezoid(y: np.ndarray, widths: np.ndarray):
    """`np.trapezoid(y, p)` along the last axis, given widths = np.diff(p)."""
    return np.add.reduce(widths * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def normalize(s: ProbeSpectrum) -> ProbeSpectrum:
    """Rescale the intensity so its trapezoidal integral is 1 (idempotent)."""
    total = float(np.trapezoid(s.intensity, s.p_grid))
    if not np.isfinite(total) or total <= _UNDERFLOW:
        raise ZeroTotalIntensity("cannot normalize: intensity integrates to zero")
    return ProbeSpectrum(s.p_grid, s.intensity / total, s.p0, s.sigma_p)
