"""Exception types shared across the package."""


class SagnacWvaError(Exception):
    """Base class for every error this package raises on purpose."""


class NonPositiveInput(SagnacWvaError, ValueError):
    """A wavelength, momentum or spectral width that must be positive is not."""


class GridPointsInvalid(SagnacWvaError, ValueError):
    """Momentum grid node count is not an odd integer >= 3."""


class GridTooNarrow(SagnacWvaError, ValueError):
    """Momentum grid clips too much spectral mass to be trustworthy."""


class GridTooWide(SagnacWvaError, ValueError):
    """Momentum grid reaches so far into the tails that they carry no weight."""


class ZeroTotalIntensity(SagnacWvaError):
    """Spectrum integrates to zero (or underflows); moments are undefined."""


class NonFiniteResult(SagnacWvaError):
    """A forward result overflowed to inf or NaN; it is not published."""


class PhiOutOfRange(SagnacWvaError, ValueError):
    """Analyzer offset angle outside the open interval (0, pi/2)."""


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
    """Scenario file is not valid JSON.  Carries the parser position."""

    def __init__(self, message: str, lineno: int | None = None, colno: int | None = None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


class IoError(SagnacWvaError, OSError):
    """Failed to write an output file."""
