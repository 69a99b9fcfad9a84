"""
Two-level polarization algebra behind the transfer-matrix cross-check.

Everything lives in the |H>, |V> basis as dimensionless complex amplitudes
(plain numpy arrays):

* the 45-degree input state (|H> + |V>)/sqrt(2),
* the analyzer output state (e^{+i phi}|H> - e^{-i phi}|V>)/sqrt(2), and
* the rotation-induced relative-phase unitary exp(-i * theta * A) for the
  polarization-difference observable A = |H><H| - |V><V|.

Sign convention: the analyzer state carries e^{+i phi} on |H> (not e^{-i phi}),
so that the post-selected intensity law is sin^2(theta + phi) and the weak
value <post|A|pre>/<post|pre> is +i*cot(phi).
"""

from __future__ import annotations

import numpy as np


def sigma_z() -> np.ndarray:
    """|H><H| - |V><V|, the observable the rotation couples to."""
    return np.diag([1.0 + 0.0j, -1.0 + 0.0j])


def preselection_state() -> np.ndarray:
    """Equal superposition (|H> + |V>)/sqrt(2) set by the input polarizer."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([s, s], dtype=complex)


def postselection_state(phi: float) -> np.ndarray:
    """Analyzer output state (e^{+i phi}|H> - e^{-i phi}|V>)/sqrt(2) for offset phi, rad."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([s * np.exp(1j * phi), -s * np.exp(-1j * phi)])


def coupling_unitaries(op: np.ndarray, phases) -> np.ndarray:
    """exp(-i * theta * op) for every theta in `phases`, stacked.

    One eigendecomposition of the 2x2 Hermitian operator serves every phase,
    whether it is diagonal or not.  The result has shape phases.shape + (2, 2).
    """
    evals, evecs = np.linalg.eigh(op)
    phase_factors = np.exp(-1j * np.multiply.outer(phases, evals))
    return (evecs * phase_factors[..., None, :]) @ evecs.conj().T
