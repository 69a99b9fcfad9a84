import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnac_wva import output
from sagnac_wva.config import config_from_dict
from sagnac_wva.engine import (
    compare_schemes,
    discrepancy_from_results,
    postselected_spectrum,
)
from sagnac_wva.errors import IoError
from sagnac_wva.output import (
    CSV_CHUNK_ROWS,
    CSV_SPECTRUM_HEADER,
    build_run_record,
    format_float,
    record_to_json,
    write_results_json,
    write_spectrum_csv,
    write_table_csv,
)
from sagnac_wva.sagnac import coupling_length
from sagnac_wva.spectrum import GridSpec, gaussian_probe


def _config():
    return config_from_dict(
        {
            "lambda0_nm": 833.0,
            "fwhm_nm": 20.0,
            "area_m2": 1000.0,
            "phi_rad": 1e-4,
            "omega_rad_per_s": 1e-9,
            "scheme": "both",
            "grid": {"points": 401},
        }
    )


def _spectra(config):
    probe = config.probe()
    g = coupling_length(config.omega_rad_per_s, config.area_m2, config.lambda0_m())
    return probe, postselected_spectrum(probe, g, config.phi_rad)


def test_format_float_round_trips():
    rng = np.random.default_rng(31)
    values = list(rng.normal(scale=1e7, size=50)) + [1e-300, -3.5e200, 0.0]
    for x in values:
        assert float(format_float(float(x))) == float(x)


def test_spectrum_csv_layout(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    out = tmp_path / "spec.csv"
    write_spectrum_csv(out, probe, post)
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == CSV_SPECTRUM_HEADER
    assert len(lines) == 1 + probe.p_grid.size


def test_spectrum_csv_values_round_trip(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    out = tmp_path / "spec.csv"
    write_spectrum_csv(out, probe, post)
    table = np.genfromtxt(out, delimiter=",", skip_header=1)
    assert np.array_equal(table[:, 0], probe.p_grid)
    assert np.array_equal(table[:, 2], probe.intensity)
    assert np.array_equal(table[:, 3], post.intensity)
    # wavelength column is 2*pi/p per row
    assert np.allclose(table[:, 1], 2.0 * np.pi / probe.p_grid, rtol=1e-12)


def test_spectrum_csv_rejects_mismatched_grids(tmp_path):
    _, post = _spectra(_config())
    other = gaussian_probe(833e-9, 20e-9, GridSpec(points=801))
    with pytest.raises(ValueError):
        write_spectrum_csv(tmp_path / "x.csv", other, post)


def test_write_into_missing_directory_raises(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    with pytest.raises(IoError):
        write_spectrum_csv(tmp_path / "no" / "dir" / "x.csv", probe, post)


def test_table_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table_csv(tmp_path / "t.csv", "a,b", [np.arange(3.0), np.arange(4.0)])


def test_table_csv_contents(tmp_path):
    out = tmp_path / "t.csv"
    write_table_csv(out, "a,b", [np.array([1.0, 2.0]), np.array([3.0, 4.5])])
    assert out.read_text(encoding="utf-8") == "a,b\n1,3\n2,4.5\n"


#: values whose 17-digit spelling is easiest to get wrong, then one per decade
EDGE_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
] + [1.2345678901234567 * 10.0**e for e in range(-308, 309)]


def _per_value_csv(header, columns):
    """The writer the chunked one replaced: one format_float call per value."""
    rows = [
        ",".join(format_float(float(c[k])) for c in columns) for k in range(len(columns[0]))
    ]
    return "\n".join([header] + rows) + "\n"


@settings(max_examples=30, deadline=None)
@given(
    n_rows=st.sampled_from(
        [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 5]
    ),
    n_cols=st.integers(1, 5),
    pool=st.lists(st.floats() | st.sampled_from(EDGE_VALUES), min_size=1, max_size=40),
)
@example(n_rows=3 * CSV_CHUNK_ROWS + 5, n_cols=5, pool=[-0.0])
@example(n_rows=CSV_CHUNK_ROWS + 1, n_cols=1, pool=[math.nan])
def test_table_csv_matches_per_value_format(tmp_path_factory, n_rows, n_cols, pool):
    values = np.resize(np.array(pool + EDGE_VALUES), n_rows * n_cols)
    columns = list(values.reshape(n_cols, n_rows))
    header = ",".join(f"c{k}" for k in range(n_cols))
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table_csv(out, header, columns)
    assert out.read_bytes() == _per_value_csv(header, columns).encode("utf-8")


#: spellings the vectorised encoder could get wrong: every power of ten and
#: both its neighbours (a decade guessed one too high prints
#: 9.9999999999999995e-08 as 1e-07), so the 1e-5/1e-4 and 1e16/1e17
#: notation switches too; the extremes; the exact ties (%.17g rounds them
#: half-even); signed zero and the non-finite values
TRAP_VALUES = [
    v
    for p in (float(f"1e{k}") for k in range(-323, 309))
    for v in (float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, math.inf)))
] + [
    9.9999999999999995e-08, 99999999999999999.0, 5e-324, 2.2250738585072009e-308,
    sys.float_info.max, 2251799813685247.75, 2251799813685246.25,
    -0.0, math.nan, -math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("n_cols", [1, 3])
def test_trap_values_match_per_value_format(tmp_path, n_cols):
    values = np.array(TRAP_VALUES + [-v for v in TRAP_VALUES])
    values = np.resize(values, -(-values.size // n_cols) * n_cols)
    columns = list(values.reshape(n_cols, -1))
    header = ",".join(f"c{k}" for k in range(n_cols))
    out = tmp_path / "t.csv"
    write_table_csv(out, header, columns)
    assert out.read_bytes() == _per_value_csv(header, columns).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.sampled_from([1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]),
    n_cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=8),
)
def test_table_csv_matches_per_value_format_on_raw_bits(
    tmp_path_factory, n_rows, n_cols, seed, bits
):
    # uniform 64-bit patterns: every exponent, both signs, subnormals, inf
    # and NaN payloads; hypothesis's own patterns lead the table
    raw = np.random.default_rng(seed).integers(0, 2**64, n_rows * n_cols, dtype=np.uint64)
    raw[: len(bits)] = bits[: raw.size]
    columns = list(raw.view(np.float64).reshape(n_cols, n_rows))
    header = ",".join(f"c{k}" for k in range(n_cols))
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table_csv(out, header, columns)
    assert out.read_bytes() == _per_value_csv(header, columns).encode("utf-8")


def test_only_zero_non_finite_and_tie_values_are_formatted_one_by_one(tmp_path, monkeypatch):
    formatted = []

    def recording(x):
        formatted.append(x)
        return format_float(x)

    monkeypatch.setattr(output, "format_float", recording)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 2251799813685247.75, 2251799813685246.25]
    values = np.concatenate([np.random.default_rng(5).normal(size=3000) * 1e-7, special])
    out = tmp_path / "t.csv"
    write_table_csv(out, "a", [values])
    assert sorted(map(repr, formatted)) == sorted(map(repr, special))
    assert out.read_bytes() == _per_value_csv("a", [values]).encode("utf-8")
    assert "2251799813685247.8\n2251799813685246.2\n" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("error", [RuntimeError, OSError])
def test_error_during_write_leaves_no_file(tmp_path, error):
    def chunks():
        yield "a,b\n"
        yield "1,2\n"
        raise error("failed mid-write")

    out = tmp_path / "t.csv"
    with pytest.raises(IoError if error is OSError else RuntimeError):
        output._atomic_write_text(out, chunks())
    assert list(tmp_path.iterdir()) == []


def test_run_record_layout():
    config = _config()
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))
    assert record.config == config.to_dict()
    assert set(record.results) == {"swm", "bwm"}
    for block in record.results.values():
        assert set(block) == {
            "delta_p_numeric",
            "delta_lambda_numeric",
            "delta_p_analytic",
            "delta_lambda_analytic",
            "postselect_prob_numeric",
            "postselect_prob_pointform",
            "amplification_factor",
        }
    assert len(record.discrepancy) == 6
    assert record.tool_version
    # ISO-8601 UTC with a trailing Z
    assert record.timestamp.endswith("Z") and "T" in record.timestamp


def test_record_json_is_canonical(tmp_path):
    config = _config()
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))
    text = record_to_json(record)
    reparsed = json.loads(text)
    assert (
        json.dumps(reparsed, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == text
    )
    out = tmp_path / "run.json"
    write_results_json(out, record)
    assert out.read_text(encoding="utf-8") == text
    assert b"\r" not in out.read_bytes()


def test_infinite_relative_difference_serialized_as_null():
    config = _config()
    results = compare_schemes(config)
    rows = discrepancy_from_results(results)
    rigged = [
        type(row)(
            scheme=row.scheme,
            quantity=row.quantity,
            numeric=row.numeric,
            analytic=row.analytic,
            relative_difference=math.inf,
        )
        for row in rows
    ]
    record = build_run_record(config, results, rigged)
    payload = json.loads(record_to_json(record))
    assert all(row["relative_difference"] is None for row in payload["discrepancy"])
