"""
Two-level polarization algebra: states, observables, coupling unitaries,
weak values.

Everything lives in the |H>, |V> basis as dimensionless complex amplitudes.
The three ingredients of the interferometer readout are built here:

* the 45-degree input state (|H> + |V>)/sqrt(2),
* the analyzer output state (e^{+i phi}|H> - e^{-i phi}|V>)/sqrt(2), and
* the rotation-induced relative-phase unitary exp(-i * theta * A) for the
  polarization-difference observable A = |H><H| - |V><V|.

Sign convention: the analyzer state carries e^{+i phi} on |H> (not e^{-i phi}),
so that the post-selected intensity law is sin^2(theta + phi) and the weak
value of A is +i*cot(phi).

All functions are pure; the dataclasses are frozen and treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearOrthogonalPostselection

#: overlaps at or below this magnitude make a weak value numerically undefined
OVERLAP_UNDERFLOW = 1e-300

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class PolarizationState:
    """Fully polarized state with complex amplitudes on |H> and |V>."""

    h_component: complex
    v_component: complex

    def __post_init__(self):
        n = self.norm()
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("state norm must be finite and strictly positive")

    def norm(self) -> float:
        return float(np.sqrt(abs(self.h_component) ** 2 + abs(self.v_component) ** 2))

    def normalized(self) -> PolarizationState:
        n = self.norm()
        return PolarizationState(self.h_component / n, self.v_component / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.h_component, self.v_component], dtype=complex)


@dataclass(frozen=True)
class SystemOperator:
    """Hermitian observable on the polarization qubit (2x2 complex matrix)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"operator must be 2x2, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("operator must be Hermitian")
        object.__setattr__(self, "entries", m)


def basis_h() -> PolarizationState:
    return PolarizationState(1.0 + 0.0j, 0.0 + 0.0j)


def basis_v() -> PolarizationState:
    return PolarizationState(0.0 + 0.0j, 1.0 + 0.0j)


def sigma_z() -> SystemOperator:
    """|H><H| - |V><V|, the observable the rotation couples to."""
    return SystemOperator(np.diag([1.0 + 0.0j, -1.0 + 0.0j]))


def preselection_state() -> PolarizationState:
    """Equal superposition (|H> + |V>)/sqrt(2) set by the input polarizer."""
    s = 1.0 / np.sqrt(2.0)
    return PolarizationState(s + 0.0j, s + 0.0j)


def postselection_state(phi: float) -> PolarizationState:
    """Analyzer output state for offset angle phi.

    Parameters
    ----------
    phi : float
        Offset of the analyzer arm from the dark port, in radians.

    Returns
    -------
    PolarizationState
        (e^{+i phi}|H> - e^{-i phi}|V>)/sqrt(2), normalized.  The relative
        phase sign is chosen so the post-selected fringe law downstream is
        sin^2(theta + phi); see the module docstring.
    """
    s = 1.0 / np.sqrt(2.0)
    return PolarizationState(s * np.exp(1j * phi), -s * np.exp(-1j * phi))


def inner_product(bra: PolarizationState, ket: PolarizationState) -> complex:
    """<bra|ket> with the physics convention (bra side conjugated)."""
    return complex(
        np.conj(bra.h_component) * ket.h_component
        + np.conj(bra.v_component) * ket.v_component
    )


def weak_value(
    op: SystemOperator, pre: PolarizationState, post: PolarizationState
) -> complex:
    """Weak value <post|op|pre>/<post|pre>.

    Raises
    ------
    NearOrthogonalPostselection
        If |<post|pre>| is at or below OVERLAP_UNDERFLOW, where the quotient
        stops being numerically meaningful.
    """
    overlap = inner_product(post, pre)
    if abs(overlap) <= OVERLAP_UNDERFLOW:
        raise NearOrthogonalPostselection(
            f"|<post|pre>| = {abs(overlap):.3e} is at or below the underflow "
            f"threshold {OVERLAP_UNDERFLOW:.0e}"
        )
    acted = op.entries @ pre.as_array()
    numer = complex(np.conj(post.as_array()) @ acted)
    return numer / overlap


def coupling_unitaries(op: SystemOperator, phases) -> np.ndarray:
    """exp(-i * theta * op) for every theta in `phases`, stacked.

    One eigendecomposition of the 2x2 operator serves every phase, whether
    the operator is diagonal or a general Hermitian matrix.  The result has
    shape phases.shape + (2, 2).
    """
    evals, evecs = np.linalg.eigh(op.entries)
    phase_factors = np.exp(-1j * np.multiply.outer(phases, evals))
    return (evecs * phase_factors[..., None, :]) @ evecs.conj().T
