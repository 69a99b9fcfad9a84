"""Independent reference for the benchmark's output checks.

Nothing here imports `sagnac_wva`.  The physics is re-typed from the paper's
model so that a fast but wrong program fails the checks instead of reading
as a gain:

* the rotation chain g = 2*pi*(4*Omega*S/(lambda0*c)) / p0;
* the exact-Gaussian integrals of the law sin^2(a*p + phi) under N(p0, sigma):
  P = (-expm1(-x) + 2*exp(-x)*sin^2(theta/2)) / 2 and
  delta_p = 2*a*sigma^2*exp(-x)*sin(theta) / (2*P), with x = 2*a^2*sigma^2 and
  theta = 2*a*p0 + 2*phi;
* the closed-form (analytic) shifts and point-form probabilities.

The exact-Gaussian values are untruncated integrals; the program integrates
a 6-sigma grid.  Over random paper-regime scenarios the two agree to ~1e-7
relative in P, and in delta_p to a few ulp(p0) plus ~1e-7 relative: the
cancellation in post_mean - probe_mean sets an absolute floor in ulp(p0),
so every delta_p tolerance below has one.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: relative tolerance on integrated post-selection probabilities
P_RTOL = 1e-6
#: relative tolerance on numeric momentum shifts, on top of DP_ULPS * ulp(p0)
DP_RTOL = 1e-6
DP_ULPS = 16.0
#: relative tolerance on closed forms the program evaluates in the same order
CLOSED_RTOL = 1e-12


class Scenario:
    """Derived quantities of one scenario dict (the JSON the program reads)."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.lambda0 = raw["lambda0_nm"] * 1e-9
        self.fwhm = raw["fwhm_nm"] * 1e-9
        self.area = raw["area_m2"]
        self.phi = raw["phi_rad"]
        self.omega = raw["omega_rad_per_s"]
        self.order_m = raw["bias_order_m"]
        self.paper_literal = raw["paper_literal"]
        self.width_reading = raw["delta_lambda_means"]
        self.points = raw["grid"]["points"]
        self.half_width = raw["grid"]["half_width_sigmas"]
        self.p0 = 2.0 * math.pi / self.lambda0
        self.sigma_p = 2.0 * math.pi * (self.fwhm / FWHM_PER_SIGMA) / self.lambda0**2
        self.psi_pre = (self.order_m * math.pi - self.phi) / self.p0
        self.ulp_p0 = math.ulp(self.p0)

    # -- rotation chain and closed forms ---------------------------------

    def coupling(self, omega):
        """Coupling length g(Omega), m; accepts scalars or arrays."""
        dz = 4.0 * np.asarray(omega, dtype=float) * self.area / (self.lambda0 * SPEED_OF_LIGHT)
        return 2.0 * math.pi * dz / self.p0

    def width_ratio_sq(self) -> float:
        ratio = self.sigma_p / self.p0
        if self.width_reading == "fwhm":
            ratio *= FWHM_PER_SIGMA
        return ratio**2

    def amplification(self) -> float:
        return 1.0 / self.width_ratio_sq()

    def cot_phi(self) -> float:
        return 1.0 / self.phi if self.paper_literal else 1.0 / math.tan(self.phi)

    def analytic_delta_lambda(self, scheme: str, omega):
        g = self.coupling(omega)
        if scheme == "swm":
            return 4.0 * math.pi * g * self.cot_phi() * self.width_ratio_sq()
        return 4.0 * math.pi * g * self.cot_phi()

    def analytic_delta_p(self, scheme: str, omega):
        g = self.coupling(omega)
        width_sq = self.sigma_p**2 if scheme == "swm" else self.p0**2
        return 2.0 * g * width_sq * self.cot_phi()

    def pointform_probability(self, scheme: str, omega):
        g = self.coupling(omega)
        extra = self.phi if scheme == "swm" else 0.0
        return np.sin(g * self.p0 + extra) ** 2

    # -- the exact post-selected law ---------------------------------------

    def law(self, scheme: str, omega):
        """(a, phi_eff, theta/2) of the law sin^2(a*p + phi_eff) for a scheme.

        theta/2 = a*p0 + phi_eff is written in closed form: for the biased
        scheme the bias delay cancels the analyzer offset at p0 exactly.
        """
        g = self.coupling(omega)
        if scheme == "swm":
            return g, self.phi, g * self.p0 + self.phi
        if self.paper_literal:
            return g, 0.0, g * self.p0
        return g + self.psi_pre, self.phi, g * self.p0 + self.order_m * math.pi

    def exact_gaussian(self, scheme: str, omega):
        """Untruncated (P, delta_p) of the post-selected Gaussian probe."""
        a, _, half_theta = self.law(scheme, omega)
        x = 2.0 * a**2 * self.sigma_p**2
        decay = np.exp(-x)
        denominator = -np.expm1(-x) + 2.0 * decay * np.sin(half_theta) ** 2
        prob = 0.5 * denominator
        delta_p = 2.0 * a * self.sigma_p**2 * decay * np.sin(2.0 * half_theta) / denominator
        return prob, delta_p

    def exact_delta_lambda(self, scheme: str, omega):
        """Numeric-convention wavelength shift: -delta_p * lambda0^2 / (2*pi)."""
        return -self.exact_gaussian(scheme, omega)[1] * self.lambda0**2 / (2.0 * math.pi)

    def dp_tolerance(self, delta_p_ref):
        return DP_RTOL * np.abs(delta_p_ref) + DP_ULPS * self.ulp_p0

    def dlambda_tolerance(self, delta_p_ref):
        return self.dp_tolerance(delta_p_ref) * self.lambda0**2 / (2.0 * math.pi)

    # -- gridded spectra ---------------------------------------------------

    def grid(self) -> np.ndarray:
        half = self.points // 2
        step = self.half_width * self.sigma_p / half
        return self.p0 + step * np.arange(-half, half + 1)

    def probe(self, p: np.ndarray) -> np.ndarray:
        density = np.exp(-0.5 * ((p - self.p0) / self.sigma_p) ** 2) / (
            self.sigma_p * math.sqrt(2.0 * math.pi)
        )
        return density / np.trapezoid(density, p)

    def post_intensity(self, scheme: str, omega, p: np.ndarray, probe: np.ndarray):
        a, phi_eff, _ = self.law(scheme, omega)
        return np.sin(p * a + phi_eff) ** 2 * probe


def mean_momentum(p: np.ndarray, intensity: np.ndarray) -> float:
    return float(np.trapezoid(p * intensity, p) / np.trapezoid(intensity, p))


def close(value, ref, rtol: float, atol: float = 0.0) -> bool:
    """Elementwise |value - ref| <= atol + rtol*|ref|, all finite."""
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return False
    return bool(np.all(np.abs(value - ref) <= atol + rtol * np.abs(ref)))
