"""
Scenario configuration: JSON loading, strict validation, and construction of
the probe spectrum.

A scenario file is a single JSON object.  Units are encoded in the key
names; unknown keys anywhere are rejected so typos cannot silently fall
back to defaults.  Each field's own rules are checked here, the grid's in
`spectrum.GridSpec`.  What the fields give together, the probe's p0, sigma_p
and grid step, is checked by `spectrum.gaussian_probe` as it builds the
probe, so validation and the probe are one call.  A config builds its probe
once, when it is validated, and every forward call of the scenario reads
that one probe, `ExperimentConfig.probe`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path

from .errors import ParseError, ValidationError
from .spectrum import GridSpec, finite_real, gaussian_probe

SCHEMES = ("swm", "bwm", "both")
WIDTH_READINGS = ("fwhm", "sigma")


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated scenario.  Field names carry the units.

    `probe`, the scenario's `spectrum.ProbeSpectrum`, is built with the
    config and kept; its arrays are read-only.  It is no field, so the
    canonical form, equality and hash ignore it.
    """

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
            if not finite_real(value) or value <= 0.0:
                raise ValidationError(name, f"must be a finite number > 0, got {value!r}")
        if not finite_real(self.phi_rad) or not 0.0 < self.phi_rad < math.pi / 2.0:
            raise ValidationError(
                "phi_rad", f"must lie strictly inside (0, pi/2), got {self.phi_rad!r}"
            )
        if not finite_real(self.omega_rad_per_s):
            raise ValidationError(
                "omega_rad_per_s", f"must be a finite number, got {self.omega_rad_per_s!r}"
            )
        if self.scheme not in SCHEMES:
            raise ValidationError("scheme", f"must be one of {SCHEMES}, got {self.scheme!r}")
        if not isinstance(self.bias_order_m, Integral) or not finite_real(self.bias_order_m):
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
        # stored as floats and an int, so that asdict (to_dict) gives the canonical form
        for name in ("lambda0_nm", "fwhm_nm", "area_m2", "phi_rad", "omega_rad_per_s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "bias_order_m", int(self.bias_order_m))
        # then what the fields give together: an SI probe with a finite
        # lambda0^2 and sigma_p, and grid nodes that are distinct, positive
        # momenta
        probe = gaussian_probe(
            self.lambda0_m(), self.fwhm_m(), self.grid, lambda0_nm=self.lambda0_nm
        )
        probe.p_grid.flags.writeable = False
        probe.intensity.flags.writeable = False
        object.__setattr__(self, "probe", probe)

    # -- derived quantities ------------------------------------------------

    def lambda0_m(self) -> float:
        return self.lambda0_nm * 1e-9

    def fwhm_m(self) -> float:
        return self.fwhm_nm * 1e-9

    def to_dict(self) -> dict:
        """Canonical plain-dict form with every default made explicit."""
        return asdict(self)


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
    return GridSpec(**raw)


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
    JSON (with line/column) or for a file that cannot be read, decoded as
    UTF-8 or parsed (a directory, no permission, nesting too deep), and
    ValidationError naming the first offending field otherwise.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except FileNotFoundError:
        raise
    except (OSError, UnicodeError, RecursionError) as exc:
        raise ParseError(f"cannot load scenario {str(path)!r}: {exc}") from exc
    return config_from_dict(raw)
