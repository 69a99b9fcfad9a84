"""
Rotation-rate to coupling-strength mapping for a closed optical loop, and the
bias-delay construction used by the biased measurement scheme.

The chain for a loop of area S rotating at Omega, read out at wavelength
lambda0: fringe shift dz = 4*Omega*S/(lambda0*c), differential phase
dphi = 2*pi*dz, coupling length g = dphi/p0 = 4*S*Omega/c, optical delay
tau = g/c.  All SI units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import wavelength_to_momentum

#: speed of light in vacuum, m/s (SI definition, exact)
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class SagnacConfig:
    """Rotating-loop scenario: rate (rad/s), loop area (m^2), wavelength (m)."""

    omega: float
    area: float
    lambda0: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.area <= 0.0:
            raise ValueError(f"area must be > 0, got {self.area}")
        if self.lambda0 <= 0.0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0}")
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")


@dataclass(frozen=True)
class CouplingResult:
    """Derived rotation-coupling quantities, all linear in Omega."""

    delta_z: float  # fringe shift, dimensionless
    delta_phi: float  # differential phase at the centre momentum, rad
    tau: float  # differential optical delay, s
    g: float  # coupling length, m


@dataclass(frozen=True)
class BiasConfig:
    """Pre-coupling differential delay chosen so p0*psi_pre + phi = m*pi."""

    phi: float
    order_m: int
    psi_pre: float
    lambda0: float


def fringe_shift(cfg: SagnacConfig) -> float:
    """Fringe shift 4*Omega*S/(lambda0*c); odd in Omega."""
    return 4.0 * cfg.omega * cfg.area / (cfg.lambda0 * cfg.c)


def coupling_length(omega, area: float, lambda0: float, c: float = SPEED_OF_LIGHT):
    """Coupling length g = 2*pi*(4*Omega*S/(lambda0*c))/p0 = 4*S*Omega/c, m.

    Broadcasts over an array of rates.  The operation order is that of the
    fringe shift -> phase -> length chain, so every route to g gets the
    same bits; the arguments are taken as valid (see SagnacConfig).
    """
    return 2.0 * np.pi * (4.0 * omega * area / (lambda0 * c)) / wavelength_to_momentum(lambda0)


def coupling_chain(cfg: SagnacConfig) -> CouplingResult:
    """Fringe shift -> differential phase -> coupling length -> delay."""
    dz = fringe_shift(cfg)
    g = coupling_length(cfg.omega, cfg.area, cfg.lambda0, cfg.c)
    return CouplingResult(delta_z=dz, delta_phi=2.0 * np.pi * dz, tau=g / cfg.c, g=g)


def bias_phase(phi: float, lambda0: float, order_m: int = 0) -> BiasConfig:
    """Bias delay psi_pre = (m*pi - phi)/p0 cancelling the analyzer offset at p0."""
    p0 = wavelength_to_momentum(lambda0)
    psi_pre = (order_m * np.pi - phi) / p0
    return BiasConfig(phi=phi, order_m=order_m, psi_pre=psi_pre, lambda0=lambda0)
