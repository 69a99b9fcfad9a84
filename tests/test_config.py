import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnac_wva.config import ExperimentConfig, config_from_dict, load_scenario
from sagnac_wva.errors import (
    GridPointsInvalid,
    GridTooNarrow,
    GridTooWide,
    ParseError,
    ValidationError,
)
from sagnac_wva.spectrum import MAX_GRID_POINTS, GridSpec

BASE = {
    "lambda0_nm": 833.0,
    "fwhm_nm": 20.0,
    "area_m2": 1000.0,
    "phi_rad": 1e-4,
    "omega_rad_per_s": 1e-9,
    "scheme": "both",
}


def _raw(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return raw


def test_defaults_applied():
    cfg = config_from_dict(_raw())
    assert cfg.bias_order_m == 0
    assert cfg.delta_lambda_means == "fwhm"
    assert cfg.paper_literal is False
    assert cfg.grid == GridSpec()


def test_derived_helpers():
    cfg = config_from_dict(_raw())
    assert cfg.lambda0_m() == pytest.approx(833e-9, rel=1e-15)
    assert cfg.fwhm_m() == pytest.approx(20e-9, rel=1e-15)
    probe = cfg.probe()
    assert probe.p_grid.size == 4001


def test_replacement_helpers():
    cfg = config_from_dict(_raw())
    assert cfg.with_scheme("swm").scheme == "swm"
    assert cfg.scheme == "both"  # original untouched


@pytest.mark.parametrize(
    "field,value",
    [
        ("lambda0_nm", 0.0),
        ("lambda0_nm", -1.0),
        ("lambda0_nm", "833"),
        ("lambda0_nm", True),
        ("fwhm_nm", 0.0),
        ("area_m2", -2.0),
        ("phi_rad", 0.0),
        ("phi_rad", math.pi / 2.0),
        ("phi_rad", 2.0),
        ("phi_rad", "small"),
        ("omega_rad_per_s", float("inf")),
        ("omega_rad_per_s", float("nan")),
        ("omega_rad_per_s", "fast"),
        ("scheme", "swn"),
        ("scheme", 1),
        ("bias_order_m", 1.5),
        ("bias_order_m", True),
        ("delta_lambda_means", "hwhm"),
        ("paper_literal", "yes"),
    ],
)
def test_rejects_bad_field(field, value):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(**{field: value}))
    assert exc.value.field == field


def test_rejects_unknown_top_level_key():
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(lambda_nm=833.0))
    assert exc.value.field == "lambda_nm"


@pytest.mark.parametrize("key", sorted(BASE))
def test_rejects_missing_required_key(key):
    raw = _raw()
    del raw[key]
    with pytest.raises(ValidationError) as exc:
        config_from_dict(raw)
    assert exc.value.field == key


def test_rejects_non_object_scenario():
    with pytest.raises(ValidationError):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "grid,field",
    [
        ({"points": 4000}, "grid.points"),
        ({"points": 3.5}, "grid.points"),
        ({"points": True}, "grid.points"),
        ({"half_width_sigmas": 2.0}, "grid.half_width_sigmas"),
        ({"half_width_sigmas": 20.0}, "grid.half_width_sigmas"),
        ({"half_width_sigmas": "wide"}, "grid.half_width_sigmas"),
        ({"nodes": 101}, "grid.nodes"),
        ({"points": MAX_GRID_POINTS + 2}, "grid.points"),
    ],
)
def test_rejects_bad_grid(grid, field):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=grid))
    assert exc.value.field == field


@pytest.mark.parametrize(
    "grid,cause,message",
    [
        (
            {"points": 4000},
            GridPointsInvalid,
            "grid.points: points must be an odd integer >= 3, got 4000",
        ),
        (
            {"half_width_sigmas": 2.0},
            GridTooNarrow,
            "grid.half_width_sigmas: half_width_sigmas = 2.0 clips too much "
            "spectral mass; need >= 3",
        ),
        (
            {"half_width_sigmas": 20.0},
            GridTooWide,
            "grid.half_width_sigmas: half_width_sigmas = 20.0 exceeds 12; the "
            "far tails carry no usable weight",
        ),
    ],
    ids=["points", "too-narrow", "too-wide"],
)
def test_grid_error_field_comes_from_error_type(grid, cause, message):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=grid))
    assert type(exc.value.__cause__) is cause
    assert str(exc.value) == message


def test_rejects_non_object_grid():
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=4001))
    assert exc.value.field == "grid"


def test_grid_values_accepted():
    cfg = config_from_dict(_raw(grid={"points": 801, "half_width_sigmas": 4.0}))
    assert cfg.grid == GridSpec(half_width_sigmas=4.0, points=801)


def test_to_dict_round_trip():
    cfg = config_from_dict(_raw(scheme="bwm", paper_literal=True, grid={"points": 801}))
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_load_scenario_ok(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_raw()), encoding="utf-8")
    cfg = load_scenario(path)
    assert cfg.scheme == "both"
    assert cfg.lambda0_nm == 833.0


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "lambda0_nm": ,\n}\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_scenario(path)
    assert exc.value.lineno == 2
    assert exc.value.colno is not None


def test_validation_error_message_names_field():
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig(**dict(BASE, phi_rad=0.0))
    assert "phi_rad" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(
    relative_width=st.floats(1e-17, 1e-11),
    lambda0_nm=st.sampled_from([833.0, 1e-3, 1e150]),
    points=st.sampled_from([3, 101, 4001]),
    half_width=st.sampled_from([3.0, 6.0, 12.0]),
)
@example(relative_width=1e-12 / 833.0, lambda0_nm=833.0, points=4001, half_width=6.0)
def test_every_accepted_line_width_builds_a_probe(relative_width, lambda0_nm, points, half_width):
    # the resolution check is sufficient: whatever width it lets through,
    # the grid nodes come out strictly increasing
    raw = _raw(
        lambda0_nm=lambda0_nm,
        fwhm_nm=relative_width * lambda0_nm,
        grid={"points": points, "half_width_sigmas": half_width},
    )
    try:
        cfg = config_from_dict(raw)
    except ValidationError as exc:
        assert exc.field == "fwhm_nm"
        return
    assert cfg.probe().p_grid.size == points
