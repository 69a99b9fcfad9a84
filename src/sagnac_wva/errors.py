"""Exception types shared across the package.

Each class's `exit_code` is the status the CLI exits with when a command
raises it: 2 for a configuration or validation problem, 3 for a numerical
refusal, 4 for an output I/O failure.  The CLI reads the code from the
error itself and keeps no table of its own.
"""


class SagnacWvaError(Exception):
    """Base class for every error this package raises on purpose."""


class ZeroTotalIntensity(SagnacWvaError):
    """Spectrum integrates to zero (or underflows); moments are undefined."""

    exit_code = 3


class NonFiniteResult(SagnacWvaError):
    """A forward result overflowed to inf or NaN; it is not published."""

    exit_code = 3


class NonMonotonicCalibration(SagnacWvaError):
    """Calibration curve is not strictly monotone; inversion refused."""

    exit_code = 3


class OutOfRangeObservation(SagnacWvaError):
    """Observed shift lies outside the calibrated range; inversion refused."""

    exit_code = 3


class ValidationError(SagnacWvaError, ValueError):
    """A scenario field failed validation.  Carries the offending field name."""

    exit_code = 2

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(SagnacWvaError, ValueError):
    """Scenario file is not valid JSON, or cannot be read; the message says where."""

    exit_code = 2


class IoError(SagnacWvaError, OSError):
    """Failed to write an output file."""

    exit_code = 4
