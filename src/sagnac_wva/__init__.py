"""
Weak-value amplified rotation sensing in a polarization Sagnac loop.

Simulates the post-selected spectra of the standard and biased weak-
measurement readout schemes, compares them against the closed-form shift
expressions, and inverts observed wavelength shifts back to rotation rates.

The top level exports the library surface shown in the README and the
errors the CLI maps to exit codes; everything else is importable from its
own module.
"""

from ._version import __version__
from .config import ExperimentConfig, load_scenario
from .engine import SchemeKind, compare_schemes, discrepancy_report
from .errors import (
    IoError,
    NonFiniteResult,
    NonMonotonicCalibration,
    OutOfRangeObservation,
    ParseError,
    PhiOutOfRange,
    ValidationError,
    ZeroTotalIntensity,
)
from .estimation import calibration_curve, estimate_omega_analytic, estimate_omega_numeric

__all__ = [
    "__version__",
    "ExperimentConfig",
    "IoError",
    "NonFiniteResult",
    "NonMonotonicCalibration",
    "OutOfRangeObservation",
    "ParseError",
    "PhiOutOfRange",
    "SchemeKind",
    "ValidationError",
    "ZeroTotalIntensity",
    "calibration_curve",
    "compare_schemes",
    "discrepancy_report",
    "estimate_omega_analytic",
    "estimate_omega_numeric",
    "load_scenario",
]
