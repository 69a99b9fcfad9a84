"""
Rotation-rate to coupling-strength mapping for a closed optical loop, and the
bias delay used by the biased measurement scheme.

The chain for a loop of area S rotating at Omega, read out at wavelength
lambda0: fringe shift dz = 4*Omega*S/(lambda0*c), differential phase
dphi = 2*pi*dz, coupling length g = dphi/p0 = 4*S*Omega/c.  All SI units;
the arguments are taken as valid (`ExperimentConfig` checks them).
"""

from __future__ import annotations

import numpy as np

from .spectrum import wavelength_to_momentum

#: speed of light in vacuum, m/s (SI definition, exact)
SPEED_OF_LIGHT = 299792458.0


def fringe_shift(omega, area: float, lambda0: float, c: float):
    """Fringe shift 4*Omega*S/(lambda0*c); odd in Omega, broadcasts over rates."""
    return 4.0 * omega * area / (lambda0 * c)


def coupling_length(omega, area: float, lambda0: float, c: float = SPEED_OF_LIGHT):
    """Coupling length g = 2*pi*fringe_shift/p0 = 4*S*Omega/c, m.

    Broadcasts over an array of rates.  The operation order is that of the
    fringe shift -> phase -> length chain, so every route to g gets the
    same bits.
    """
    return 2.0 * np.pi * fringe_shift(omega, area, lambda0, c) / wavelength_to_momentum(lambda0)


def bias_delay(phi: float, lambda0: float, order_m: int) -> float:
    """Bias delay psi_pre = (m*pi - phi)/p0, so that p0*psi_pre + phi = m*pi."""
    return (order_m * np.pi - phi) / wavelength_to_momentum(lambda0)
