import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnac_wva.config import ExperimentConfig, config_from_dict, load_scenario
from sagnac_wva.errors import ParseError, ValidationError
from sagnac_wva.output import record_to_json
from sagnac_wva.spectrum import MAX_GRID_POINTS, GridSpec, gaussian_probe

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
    probe = cfg.probe
    assert probe.p_grid.size == 4001


def test_probe_is_built_once_and_read_only():
    cfg = config_from_dict(_raw())
    before = cfg.to_dict()
    probe = cfg.probe
    assert cfg.probe is probe
    for array in (probe.p_grid, probe.intensity):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the probe is no field: the canonical form, equality and hash ignore it
    assert cfg.to_dict() == before
    assert cfg == config_from_dict(_raw()) and hash(cfg) == hash(config_from_dict(_raw()))
    other = dataclasses.replace(cfg, grid=GridSpec(points=101))
    assert other.probe is not probe
    assert other.probe.p_grid.size == 101


def test_wide_line_warns_once_per_config():
    # the line is checked and its probe built in one call, so a wide line
    # (sigma_lambda/lambda0 = 0.26) warns once, however often the probe is read
    raw = _raw(fwhm_nm=500.0, grid={"points": 101, "half_width_sigmas": 3.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = config_from_dict(raw)
        assert cfg.probe is cfg.probe
    assert [w.category for w in caught] == [UserWarning]
    assert "linearized width conversion is inaccurate" in str(caught[0].message)


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
        ({"half_width_sigmas": float("nan")}, "grid.half_width_sigmas"),
    ],
)
def test_rejects_bad_grid(grid, field):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=grid))
    assert exc.value.field == field
    if field != "grid.nodes":  # GridSpec owns every rule on its own fields
        with pytest.raises(ValidationError) as exc:
            GridSpec(**grid)
        assert exc.value.field == field


@pytest.mark.parametrize(
    "grid,message",
    [
        (
            {"points": 4000},
            "grid.points: points must be an odd integer >= 3, got 4000",
        ),
        (
            {"half_width_sigmas": 2.0},
            "grid.half_width_sigmas: half_width_sigmas = 2.0 clips too much "
            "spectral mass; need >= 3",
        ),
        (
            {"half_width_sigmas": 20.0},
            "grid.half_width_sigmas: half_width_sigmas = 20.0 exceeds 12; the "
            "far tails carry no usable weight",
        ),
    ],
    ids=["points", "too-narrow", "too-wide"],
)
def test_grid_error_field_comes_from_error_type(grid, message):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=grid))
    assert str(exc.value) == message


def test_rejects_non_object_grid():
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(grid=4001))
    assert exc.value.field == "grid"


def test_a_grid_that_is_not_a_gridspec_is_refused():
    # built directly, not through config_from_dict, which makes the GridSpec
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig(**BASE, grid={"points": 101})
    assert exc.value.field == "grid"


def test_a_narrow_line_builds_its_config_without_a_warning():
    # the README line: sigma_lambda/lambda0 = 0.01, far below the wide-line limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config_from_dict(_raw())


def test_the_step_refusal_quotes_the_wavelength_it_was_given():
    # a scenario's own lambda0_nm, not lambda0_m() * 1e9 = 1550.0000000000002
    with pytest.raises(ValidationError) as exc:
        config_from_dict(_raw(lambda0_nm=1550.0, fwhm_nm=1e-12))
    assert " at lambda0_nm = 1550.0, which does not separate " in str(exc.value)
    # a direct call without it: lambda0 in nm
    lambda0 = 1550.0 * 1e-9
    with pytest.raises(ValidationError) as exc:
        gaussian_probe(lambda0, 1e-21)
    assert f" at lambda0_nm = {lambda0 * 1e9!r}, which does not separate " in str(exc.value)


def test_grid_values_accepted():
    cfg = config_from_dict(_raw(grid={"points": 801, "half_width_sigmas": 4.0}))
    assert cfg.grid == GridSpec(half_width_sigmas=4.0, points=801)
    assert GridSpec(points=np.int64(801)) == GridSpec(points=801)


def test_numpy_integer_bias_order_is_accepted_and_stored_as_int():
    # any integer type (not a bool) is an integer, as for `grid.points`
    cfg = ExperimentConfig(**BASE, bias_order_m=np.int64(1))
    plain = ExperimentConfig(**BASE, bias_order_m=1)
    assert cfg == plain and hash(cfg) == hash(plain)
    record = cfg.to_dict()
    assert type(record["bias_order_m"]) is int
    assert record_to_json(record) == record_to_json(plain.to_dict())
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig(**BASE, bias_order_m=True)
    assert exc.value.field == "bias_order_m"


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
    assert str(exc.value).startswith("invalid JSON at line 2, column ")


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
    assert cfg.probe.p_grid.size == points
