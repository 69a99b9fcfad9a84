import dataclasses
import json
import math
import os
import stat
import sys
import tracemalloc

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
from sagnac_wva.errors import IoError, NonFiniteResult
from sagnac_wva.output import (
    CSV_CHUNK_VALUES,
    build_run_record,
    format_float,
    record_to_json,
    write_results_json,
    write_table_csv,
)
from sagnac_wva.sagnac import coupling_length
from sagnac_wva.spectrum import momentum_to_wavelength

#: the header of the `spectrum` command's table
SPECTRUM_HEADER = "p_inv_m,lambda_m,intensity_probe,intensity_post"


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
    probe = config.probe
    g = coupling_length(config.omega_rad_per_s, config.area_m2, config.lambda0_m())
    return probe, postselected_spectrum(probe, g, config.phi_rad)


def _write_spectrum(path, probe, post):
    """Write a spectrum table as the `spectrum` command does."""
    columns = [probe.p_grid, momentum_to_wavelength(probe.p_grid), probe.intensity, post]
    write_table_csv(path, SPECTRUM_HEADER, columns)


def test_format_float_round_trips():
    rng = np.random.default_rng(31)
    values = list(rng.normal(scale=1e7, size=50)) + [1e-300, -3.5e200, 0.0]
    for x in values:
        assert float(format_float(float(x))) == float(x)


def test_spectrum_csv_layout(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    out = tmp_path / "spec.csv"
    _write_spectrum(out, probe, post)
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 1 + probe.p_grid.size


def test_spectrum_csv_values_round_trip(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    out = tmp_path / "spec.csv"
    _write_spectrum(out, probe, post)
    table = np.genfromtxt(out, delimiter=",", skip_header=1)
    assert np.array_equal(table[:, 0], probe.p_grid)
    assert np.array_equal(table[:, 2], probe.intensity)
    assert np.array_equal(table[:, 3], post)
    # wavelength column is 2*pi/p per row
    assert np.allclose(table[:, 1], 2.0 * np.pi / probe.p_grid, rtol=1e-12)


def test_write_into_missing_directory_raises(tmp_path):
    config = _config()
    probe, post = _spectra(config)
    with pytest.raises(IoError):
        _write_spectrum(tmp_path / "no" / "dir" / "x.csv", probe, post)


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


def _chunk_rows(n_cols, chunks, extra):
    """`chunks` times the rows of one full chunk of `n_cols` columns, plus `extra`."""
    return max(0, chunks * (CSV_CHUNK_VALUES // n_cols) + extra)


@settings(max_examples=30, deadline=None)
@given(
    n_cols=st.integers(1, 5),
    chunks=st.sampled_from([0, 1, 3]),
    extra=st.sampled_from([-1, 0, 1, 5]),
    pool=st.lists(st.floats() | st.sampled_from(EDGE_VALUES), min_size=1, max_size=40),
)
@example(n_cols=5, chunks=3, extra=5, pool=[-0.0])
@example(n_cols=1, chunks=1, extra=1, pool=[math.nan])
def test_table_csv_matches_per_value_format(tmp_path_factory, n_cols, chunks, extra, pool):
    n_rows = _chunk_rows(n_cols, chunks, extra)
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
    n_cols=st.integers(1, 4),
    chunks_extra=st.sampled_from([(0, 1), (1, 0), (1, 1)]),
    seed=st.integers(0, 2**32 - 1),
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=8),
)
def test_table_csv_matches_per_value_format_on_raw_bits(
    tmp_path_factory, n_cols, chunks_extra, seed, bits
):
    n_rows = _chunk_rows(n_cols, *chunks_extra)
    # uniform 64-bit patterns: every exponent, both signs, subnormals, inf
    # and NaN payloads; hypothesis's own patterns lead the table
    raw = np.random.default_rng(seed).integers(0, 2**64, n_rows * n_cols, dtype=np.uint64)
    raw[: len(bits)] = bits[: raw.size]
    columns = list(raw.view(np.float64).reshape(n_cols, n_rows))
    header = ",".join(f"c{k}" for k in range(n_cols))
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table_csv(out, header, columns)
    assert out.read_bytes() == _per_value_csv(header, columns).encode("utf-8")


@pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("chunks, extra", [(1, 1), (3, -1)], ids=["2-chunks", "3-chunks"])
def test_short_last_chunk_leaves_no_bytes_of_the_one_before(tmp_path, n_cols, chunks, extra):
    # the longest spellings fill every chunk but the last, which is shorter
    # and holds the shortest: none of the earlier fields may show through
    n_rows = _chunk_rows(n_cols, chunks, extra)
    n_chunks = -(-n_rows // (CSV_CHUNK_VALUES // n_cols))
    last_start = (n_chunks - 1) * -(-n_rows // n_chunks)
    assert 0 < last_start < n_rows
    values = np.full((n_rows, n_cols), -1.2345678901234567e-300)
    values[last_start:] = np.resize([0.0, 1.0, math.nan], values[last_start:].shape)
    columns = list(values.T)
    header = ",".join(f"c{k}" for k in range(n_cols))
    out = tmp_path / "t.csv"
    write_table_csv(out, header, columns)
    assert out.read_bytes() == _per_value_csv(header, columns).encode("utf-8")


#: tracemalloc peak of writing the 16001-row spectrum below with the encoder
#: that formatted 1024-row chunks into fresh arrays (numpy 2.4, CPython 3.11)
PEAK_BEFORE_WORKSPACE = 1_456_169


def test_spectrum_csv_memory_peak_stays_within_bound(tmp_path):
    config = config_from_dict({**_config().to_dict(), "scheme": "swm", "grid": {"points": 16001}})
    probe, post = _spectra(config)
    _write_spectrum(tmp_path / "warm.csv", probe, post)  # lookup tables built once
    tracemalloc.start()
    try:
        _write_spectrum(tmp_path / "spec.csv", probe, post)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BEFORE_WORKSPACE


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
        yield b"a,b\n"
        yield b"1,2\n"
        raise error("failed mid-write")

    out = tmp_path / "t.csv"
    with pytest.raises(IoError if error is OSError else RuntimeError):
        output._atomic_write(out, chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_get_the_mode_open_gives(tmp_path, umask, mode):
    config = _config()
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))
    previous = os.umask(umask)
    try:
        write_table_csv(tmp_path / "t.csv", "a", [np.ones(3)])
        write_results_json(tmp_path / "r.json", record)
    finally:
        os.umask(previous)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {
        "t.csv": mode,
        "r.json": mode,
    }


def test_writing_a_file_leaves_the_umask_alone(tmp_path, monkeypatch):
    # setting the process umask, even briefly, would change the mode of
    # files other threads create meanwhile
    config = _config()
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))

    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    write_table_csv(tmp_path / "t.csv", "a", [np.ones(3)])
    write_results_json(tmp_path / "r.json", record)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "a\n1\n1\n1\n"
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8")) == record


def test_run_record_layout():
    config = _config()
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))
    assert record["config"] == config.to_dict()
    assert set(record["results"]) == {"swm", "bwm"}
    for block in record["results"].values():
        assert set(block) == {
            "delta_p_numeric",
            "delta_lambda_numeric",
            "delta_p_analytic",
            "delta_lambda_analytic",
            "postselect_prob_numeric",
            "postselect_prob_pointform",
            "amplification_factor",
        }
    assert len(record["discrepancy"]) == 6
    assert record["tool_version"]
    # ISO-8601 UTC with a trailing Z
    assert record["timestamp"].endswith("Z") and "T" in record["timestamp"]


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


def test_zero_against_zero_is_no_relative_difference():
    # a quantity that is 0.0 both ways differs by 0.0, written as 0.0, not
    # as the null of an infinite difference
    config = _config()
    swm, bwm = compare_schemes(config)
    results = (dataclasses.replace(swm, delta_p_numeric=0.0, delta_p_analytic=0.0), bwm)
    rows = discrepancy_from_results(results)
    assert (rows[0].quantity, rows[0].relative_difference) == ("delta_p", 0.0)
    payload = json.loads(record_to_json(build_run_record(config, results, rows)))
    assert payload["discrepancy"][0]["relative_difference"] == 0.0


def test_run_record_refuses_a_non_finite_result_field():
    # the first non-finite field, schemes in order and fields in dataclass
    # order, is named; the record would otherwise hold an inf
    config = _config()
    swm, bwm = compare_schemes(config)
    results = (
        swm,
        dataclasses.replace(bwm, delta_p_analytic=math.inf, postselect_prob_numeric=math.nan),
    )
    with pytest.raises(NonFiniteResult) as exc:
        build_run_record(config, results, discrepancy_from_results(results))
    assert str(exc.value) == "bwm delta_p_analytic is inf; no record written"
