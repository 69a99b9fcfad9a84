"""
Scenario configuration: JSON loading, strict validation, and construction of
the probe spectrum.

A scenario file is a single JSON object.  Units are encoded in the key
names; unknown keys anywhere are rejected so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .errors import ParseError, ValidationError
from .spectrum import FWHM_PER_SIGMA, GridSpec, ProbeSpectrum, gaussian_probe

SCHEMES = ("swm", "bwm", "both")
WIDTH_READINGS = ("fwhm", "sigma")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number that a float holds and that is finite (no huge JSON integer)."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _is_float_int(value) -> bool:
    """An integer (not a bool) that a float holds."""
    return isinstance(value, int) and _is_finite(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated scenario.  Field names carry the units."""

    lambda0_nm: float
    fwhm_nm: float
    area_m2: float
    phi_rad: float
    omega_rad_per_s: float
    scheme: str
    bias_order_m: int = 0
    delta_lambda_means: str = "fwhm"
    paper_literal: bool = False
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        for name in ("lambda0_nm", "fwhm_nm", "area_m2"):
            value = getattr(self, name)
            if not _is_finite(value) or value <= 0.0:
                raise ValidationError(name, f"must be a finite number > 0, got {value!r}")
        # the SI probe needs a finite, nonzero lambda0^2 and momentum width;
        # sigma_p as spectrum.sigma_lambda_to_sigma_p has it, minus its warning
        lambda0 = self.lambda0_m()
        if not 0.0 < lambda0 * lambda0 < math.inf:
            raise ValidationError(
                "lambda0_nm", f"gives lambda0 = {lambda0!r} m, whose square underflows or overflows"
            )
        sigma_p = 2.0 * math.pi * (self.fwhm_m() / float(FWHM_PER_SIGMA)) / (lambda0 * lambda0)
        if not 0.0 < sigma_p < math.inf:
            raise ValidationError(
                "fwhm_nm", f"gives sigma_p = {sigma_p!r} 1/m, which underflows or overflows"
            )
        if not _is_real(self.phi_rad) or not 0.0 < self.phi_rad < math.pi / 2.0:
            raise ValidationError(
                "phi_rad", f"must lie strictly inside (0, pi/2), got {self.phi_rad!r}"
            )
        if not _is_finite(self.omega_rad_per_s):
            raise ValidationError(
                "omega_rad_per_s", f"must be a finite number, got {self.omega_rad_per_s!r}"
            )
        if self.scheme not in SCHEMES:
            raise ValidationError("scheme", f"must be one of {SCHEMES}, got {self.scheme!r}")
        if not _is_float_int(self.bias_order_m):
            raise ValidationError(
                "bias_order_m", f"must be an integer a float holds, got {self.bias_order_m!r}"
            )
        if self.delta_lambda_means not in WIDTH_READINGS:
            raise ValidationError(
                "delta_lambda_means",
                f"must be one of {WIDTH_READINGS}, got {self.delta_lambda_means!r}",
            )
        if not isinstance(self.paper_literal, bool):
            raise ValidationError(
                "paper_literal", f"must be a boolean, got {self.paper_literal!r}"
            )
        if not isinstance(self.grid, GridSpec):
            raise ValidationError("grid", f"must be a GridSpec, got {self.grid!r}")
        # the nodes p0 + k*step (spectrum.gaussian_probe) must be distinct,
        # increasing floats: the step has to clear two ulps of the largest
        half_nodes = self.grid.points // 2
        step = self.grid.half_width_sigmas * sigma_p / half_nodes
        p0 = 2.0 * math.pi / lambda0
        if not step > 2.0 * math.ulp(p0 + step * half_nodes):
            raise ValidationError(
                "fwhm_nm",
                f"gives a momentum grid step of {step!r} 1/m at lambda0_nm = "
                f"{self.lambda0_nm!r}, which does not separate the grid nodes near "
                f"p0 = {p0!r} 1/m",
            )

    # -- derived quantities ------------------------------------------------

    def lambda0_m(self) -> float:
        return self.lambda0_nm * 1e-9

    def fwhm_m(self) -> float:
        return self.fwhm_nm * 1e-9

    def probe(self) -> ProbeSpectrum:
        return gaussian_probe(self.lambda0_m(), self.fwhm_m(), self.grid)

    def with_scheme(self, scheme: str) -> "ExperimentConfig":
        return replace(self, scheme=scheme)

    def to_dict(self) -> dict:
        """Canonical plain-dict form with every default made explicit."""
        return {
            "lambda0_nm": float(self.lambda0_nm),
            "fwhm_nm": float(self.fwhm_nm),
            "area_m2": float(self.area_m2),
            "phi_rad": float(self.phi_rad),
            "omega_rad_per_s": float(self.omega_rad_per_s),
            "scheme": self.scheme,
            "bias_order_m": int(self.bias_order_m),
            "delta_lambda_means": self.delta_lambda_means,
            "paper_literal": self.paper_literal,
            "grid": {
                "half_width_sigmas": float(self.grid.half_width_sigmas),
                "points": int(self.grid.points),
            },
        }


# scenario keys are the dataclass fields; required ones, in field order, have no default
_TOP_LEVEL_KEYS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = tuple(
    f.name
    for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
)
_GRID_KEYS = {f.name for f in fields(GridSpec)}


def _grid_from_dict(raw: dict) -> GridSpec:
    unknown = sorted(set(raw) - _GRID_KEYS)
    if unknown:
        raise ValidationError(f"grid.{unknown[0]}", "unknown key")
    spec = {}
    if "points" in raw:
        points = raw["points"]
        if not _is_float_int(points):
            raise ValidationError(
                "grid.points", f"must be an integer a float holds, got {points!r}"
            )
        spec["points"] = points
    if "half_width_sigmas" in raw:
        hw = raw["half_width_sigmas"]
        if not _is_finite(hw):
            raise ValidationError(
                "grid.half_width_sigmas", f"must be a finite number, got {hw!r}"
            )
        spec["half_width_sigmas"] = float(hw)
    return GridSpec(**spec)


def config_from_dict(raw) -> ExperimentConfig:
    """Validate a plain dict (parsed JSON) into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ValidationError("$", f"scenario must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ValidationError(unknown[0], "unknown key")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValidationError(key, "missing required key")
    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise ValidationError("grid", f"must be an object, got {grid_raw!r}")
    kwargs = {k: v for k, v in raw.items() if k != "grid"}
    return ExperimentConfig(grid=_grid_from_dict(grid_raw), **kwargs)


def load_scenario(path) -> ExperimentConfig:
    """Read, parse and validate a scenario JSON file.

    Raises FileNotFoundError for a missing file, ParseError for invalid
    JSON (with line/column), and ValidationError naming the first offending
    field otherwise.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            lineno=exc.lineno,
            colno=exc.colno,
        ) from exc
    return config_from_dict(raw)
