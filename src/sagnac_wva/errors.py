"""Exception types shared across the package."""


class SagnacWvaError(Exception):
    """Base class for every error this package raises on purpose."""


class ZeroTotalIntensity(SagnacWvaError):
    """Spectrum integrates to zero (or underflows); moments are undefined."""


class NonFiniteResult(SagnacWvaError):
    """A forward result overflowed to inf or NaN; it is not published."""


class NonMonotonicCalibration(SagnacWvaError):
    """Calibration curve is not strictly monotone; inversion refused."""


class OutOfRangeObservation(SagnacWvaError):
    """Observed shift lies outside the calibrated range; inversion refused."""


class ValidationError(SagnacWvaError, ValueError):
    """A scenario field failed validation.  Carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(SagnacWvaError, ValueError):
    """Scenario file is not valid JSON, or cannot be read; the message says where."""


class IoError(SagnacWvaError, OSError):
    """Failed to write an output file."""
