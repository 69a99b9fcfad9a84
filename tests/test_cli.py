import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sagnac_wva.cli import FIGURE3_FILES, build_parser, cli_main, main

BASE = {
    "lambda0_nm": 833.0,
    "fwhm_nm": 20.0,
    "area_m2": 1000.0,
    "phi_rad": 1e-4,
    "omega_rad_per_s": 1e-9,
    "scheme": "both",
    "grid": {"points": 801},
}


def _scenario(tmp_path, name="scenario.json", **overrides):
    raw = dict(BASE)
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_version_flag():
    assert cli_main(["--version"]) == 0


def test_help_flag():
    assert cli_main(["--help"]) == 0
    assert cli_main(["spectrum", "--help"]) == 0


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 2
    assert capsys.readouterr().err != ""


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_spectrum_writes_csv(tmp_path):
    config = _scenario(tmp_path)
    out = tmp_path / "spec.csv"
    code = cli_main(
        ["spectrum", "--config", str(config), "--out", str(out), "--scheme", "swm"]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p_inv_m,lambda_m,intensity_probe,intensity_post"
    assert len(lines) == 1 + 801


def test_spectrum_needs_single_scheme(tmp_path, capsys):
    config = _scenario(tmp_path)
    code = cli_main(["spectrum", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "scheme" in capsys.readouterr().err


def test_spectrum_scheme_from_scenario(tmp_path):
    config = _scenario(tmp_path, scheme="bwm")
    out = tmp_path / "spec.csv"
    assert cli_main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    assert out.exists()


def test_missing_config_file(tmp_path, capsys):
    code = cli_main(
        ["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli_main(["compare", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_unknown_config_key(tmp_path):
    config = _scenario(tmp_path, lamda0_nm=833.0)
    assert cli_main(["compare", "--config", str(config), "--out", str(tmp_path / "x.json")]) == 2


def test_output_into_missing_directory(tmp_path):
    config = _scenario(tmp_path)
    out = tmp_path / "does" / "not" / "exist.csv"
    code = cli_main(
        ["spectrum", "--config", str(config), "--out", str(out), "--scheme", "swm"]
    )
    assert code == 4


def test_compare_writes_record(tmp_path):
    config = _scenario(tmp_path)
    out = tmp_path / "run.json"
    assert cli_main(["compare", "--config", str(config), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record["results"]) == {"swm", "bwm"}
    assert len(record["discrepancy"]) == 6
    assert record["config"]["lambda0_nm"] == 833.0


def test_sweep_both_schemes(tmp_path):
    config = _scenario(tmp_path)
    out = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep", "--config", str(config), "--omega-min", "1e-10",
            "--omega-max", "1e-8", "--points", "4", "--mode", "analytic",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "omega_rad_per_s,delta_lambda_swm_m,delta_lambda_bwm_m"
    assert len(lines) == 5


def test_sweep_single_scheme(tmp_path):
    config = _scenario(tmp_path, scheme="bwm")
    out = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep", "--config", str(config), "--omega-min", "1e-10",
            "--omega-max", "1e-8", "--points", "3", "--mode", "numeric",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "omega_rad_per_s,delta_lambda_m"


def test_estimate_analytic_round_trip(tmp_path, capsys):
    config = _scenario(tmp_path, scheme="bwm")
    code = cli_main(
        [
            "estimate", "--config", str(config),
            "--delta-lambda-m", "1.6766760119724255e-09", "--method", "analytic",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega_hat_rad_per_s"] == pytest.approx(1e-9, rel=1e-9)
    assert payload["method"] == "analytic-closed-form"
    assert payload["scheme"] == "bwm"


def test_estimate_needs_single_scheme(tmp_path):
    config = _scenario(tmp_path)  # scheme both
    code = cli_main(
        ["estimate", "--config", str(config), "--delta-lambda-m", "1e-9", "--method", "analytic"]
    )
    assert code == 2


def test_estimate_numeric_round_trip(tmp_path, capsys):
    config = _scenario(tmp_path, scheme="swm")
    # forward numeric shift at 3e-9 rad/s, computed with the library
    from sagnac_wva.config import load_scenario
    from sagnac_wva.estimation import calibration_curve

    curve = calibration_curve(load_scenario(config), 1e-10, 1e-8, 6, mode="numeric")
    obs = float(np.interp(3e-9, curve.omega_values, curve.delta_lambda_values))
    code = cli_main(
        [
            "estimate", "--config", str(config), f"--delta-lambda-m={obs!r}",
            "--method", "numeric", "--omega-min", "1e-10", "--omega-max", "1e-8",
            "--points", "6",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "numeric-bisection"
    assert payload["omega_hat_rad_per_s"] == pytest.approx(3e-9, rel=2e-2)


def test_estimate_numeric_literal_biased_curve_fails(tmp_path, capsys):
    # the simplified biased density gives a flat, non-monotone calibration
    config = _scenario(tmp_path, scheme="bwm", paper_literal=True)
    code = cli_main(
        [
            "estimate", "--config", str(config), "--delta-lambda-m", "1e-10",
            "--method", "numeric",
        ]
    )
    assert code == 3
    assert "monotone" in capsys.readouterr().err


def test_figure3_emits_four_files(tmp_path):
    config = _scenario(tmp_path)
    out_dir = tmp_path / "fig3"
    assert cli_main(["figure3", "--config", str(config), "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(FIGURE3_FILES)
    sweep = (out_dir / "sensitivity_ratio_sweep.csv").read_text(encoding="utf-8")
    header, first = sweep.splitlines()[:2]
    assert header.startswith("omega_rad_per_s,")
    # the biased-to-standard analytic ratio column is the amplification factor
    assert float(first.split(",")[3]) == pytest.approx(1734.7225, rel=1e-9)


def test_figure3_output_path_collision(tmp_path):
    config = _scenario(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert cli_main(["figure3", "--config", str(config), "--out", str(blocker)]) == 4


@pytest.mark.skipif(
    shutil.which("sagnac-wva") is None,
    reason="console script 'sagnac-wva' not on PATH; "
    "install with `pip install -e . --no-build-isolation`",
)
def test_console_script_entry_point():
    result = subprocess.run(
        ["sagnac-wva", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "sagnac-wva" in result.stdout


def test_entry_point_declaration_runs_main(monkeypatch, capsys):
    # what the installed console script would run, without installing it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"sagnac-wva": "sagnac_wva.cli:main"}
    monkeypatch.setattr(sys, "argv", ["sagnac-wva", "--version"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"sagnac-wva {project['version']}\n"


@pytest.mark.parametrize("command", ["sweep", "estimate"])
@pytest.mark.parametrize(
    "bounds",
    [
        ["--omega-min", "1e-8", "--omega-max", "1e-10", "--points", "4"],
        ["--omega-min", "1e-8", "--omega-max", "1e-8", "--points", "4"],
        ["--omega-min", "1e-10", "--omega-max", "1e-8", "--points", "1"],
        ["--omega-min", "1e-10", "--omega-max", "1e-8", "--points", "0"],
        ["--omega-min", "0", "--omega-max", "1e-8", "--points", "4"],
        ["--omega-min", "1e-10", "--omega-max", "inf", "--points", "4"],
        ["--omega-min", "1e-10", "--omega-max", "nan", "--points", "4"],
    ],
    ids=[
        "min-above-max", "min-equals-max", "one-point", "zero-points", "zero-min-log",
        "inf-max", "nan-max",
    ],
)
def test_bad_calibration_range_is_config_error(tmp_path, capsys, command, bounds):
    config = _scenario(tmp_path, scheme="swm")
    if command == "sweep":
        argv = ["sweep", "--mode", "analytic", "--out", str(tmp_path / "sweep.csv")]
    else:
        argv = ["estimate", "--method", "numeric", "--delta-lambda-m", "1e-13"]
    code = cli_main(argv + ["--config", str(config)] + bounds)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method", ["analytic", "numeric"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_rejects_non_finite_observation(tmp_path, capsys, method, value):
    config = _scenario(tmp_path, scheme="bwm")
    code = cli_main(
        [
            "estimate", "--config", str(config), f"--delta-lambda-m={value}",
            "--method", method,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "delta_lambda_m" in captured.err
    assert captured.out == ""


def test_figure3_rows_match_compare_schemes(tmp_path):
    # panels C and D and compare_schemes share one forward path: equal bits
    from sagnac_wva.config import load_scenario
    from sagnac_wva.engine import compare_schemes

    config_path = _scenario(tmp_path)
    out_dir = tmp_path / "fig3"
    assert cli_main(["figure3", "--config", str(config_path), "--out", str(out_dir)]) == 0

    def rows(name):
        lines = (out_dir / name).read_text(encoding="utf-8").splitlines()[1:]
        return [[float(x) for x in line.split(",")] for line in lines]

    shifts, probs = rows(FIGURE3_FILES[2]), rows(FIGURE3_FILES[3])
    assert len(shifts) == len(probs) == 25
    config = load_scenario(config_path)
    for k, omega in ((0, 1e-10), (24, 1.9e-8)):
        assert shifts[k][0] == probs[k][0] == omega
        swm, bwm = compare_schemes(dataclasses.replace(config, omega_rad_per_s=omega))
        assert shifts[k][1:3] == [swm.delta_lambda_analytic, bwm.delta_lambda_analytic]
        assert probs[k][1:] == [
            swm.postselect_prob_numeric,
            bwm.postselect_prob_numeric,
            swm.postselect_prob_pointform,
            bwm.postselect_prob_pointform,
        ]


@pytest.mark.parametrize("command", ["compare", "sweep", "estimate"])
def test_tiny_phi_is_numeric_error(tmp_path, capsys, command):
    # 1/tan(1e-310) overflows; the closed form must refuse, not emit inf or NaN
    config = _scenario(tmp_path, phi_rad=1e-310, scheme="swm", grid={"points": 101})
    out = tmp_path / "out"
    argv = {
        "compare": ["--out", str(out)],
        "sweep": [
            "--omega-min", "1e-10", "--omega-max", "1e-8", "--points", "4",
            "--mode", "analytic", "--out", str(out),
        ],
        "estimate": ["--delta-lambda-m", "1e-9", "--method", "analytic"],
    }[command]
    code = cli_main([command, "--config", str(config), *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err
    assert "phi" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "before,flag,value,after",
    [
        (["estimate"], "--delta-lambda-m", "-1.2e-09", ["--method", "analytic"]),
        (["sweep"], "--omega-min", "-1e-08", ["--omega-max", "1e-8"]),
        (["sweep", "--omega-min", "1e-10"], "--omega-max", "-1e-08", []),
    ],
    ids=["delta-lambda-m", "omega-min", "omega-max"],
)
def test_negative_exponent_value_reaches_the_command(
    tmp_path, capsys, before, flag, value, after
):
    # "-1.2e-09" as its own token must behave exactly like "--flag=-1.2e-09"
    rest = after + ["--config", str(_scenario(tmp_path, scheme="swm"))]
    if before[0] == "sweep":
        rest += ["--points", "4", "--mode", "analytic", "--out", str(tmp_path / "s.csv")]
    separate = cli_main(before + [flag, value] + rest), capsys.readouterr()
    joined = cli_main(before + [f"{flag}={value}"] + rest), capsys.readouterr()
    assert separate == joined
    code, captured = separate
    if flag == "--delta-lambda-m":
        assert code == 0
        assert json.loads(captured.out)["omega_hat_rad_per_s"] < 0.0
    else:
        # the negative bound reached the range check, not argparse
        assert code == 2
        assert captured.err.startswith("error: omega_min:")


#: SHA-256 of CLI outputs for the BASE scenario, frozen from the per-value
#: writer and, for the numeric sweep and estimates, from the per-rate
#: numeric forward loop; a change to the writer or the forward path must
#: keep every byte
FROZEN_SHA256 = {
    "spectrum.csv": "0a5162b9682ab66b7a95dcc88f52d158235c5cbcb8d3801bd62c240d64c020c0",
    "sweep.csv": "70bcf1da849868dd4f44c48dedac6638a1fd932ed797fa819403ac45a9f63c5a",
    "sweep_numeric.csv": "fcdeef17a6ab63f98c75832e52a8e0d825ce6d3c1d3ec982eb211364309af932",
    "estimate_swm.stdout": "f8e6bf73875d6298ebc95a37d25eb05cfb989c8a46cb05db3f086cc4006a03bd",
    "estimate_bwm.stdout": "1efa86e1d3951c05ab3417bfcfaedf6770d5cb9481354077fc0e3aa4b46edf19",
    FIGURE3_FILES[0]: "c8e28c681f3a8a8f5e5c8edc5a73d6f55e16f2114226d70a2ca1ed4592293013",
    FIGURE3_FILES[1]: "977509f44e0ec949af6453f28abeeadd1483401873ab9dcd2a41f34d051bae41",
    FIGURE3_FILES[2]: "49205daa2a1b82a3c01898c76b0e86757d817221ee94eee9bb94901756d42cd7",
    FIGURE3_FILES[3]: "751be0c409eb221808671a6bcb4cb6dfdc1838e88b96ac99e6d9ec151c17a687",
    "compare.json": "be08a5ccc3b8d80a18c9db3bc3715b2447b09a85708659fc3bdd517403f589ac",
}


def test_cli_outputs_match_frozen_digests(tmp_path, capsys):
    config = str(_scenario(tmp_path))
    assert cli_main(
        ["spectrum", "--config", config, "--out", str(tmp_path / "spectrum.csv"), "--scheme", "swm"]
    ) == 0
    # 5000 rates: longer than one CSV chunk
    assert cli_main(
        [
            "sweep", "--config", config, "--omega-min", "1e-10", "--omega-max", "1e-8",
            "--points", "5000", "--mode", "analytic", "--out", str(tmp_path / "sweep.csv"),
        ]
    ) == 0
    # 300 rates at 801 nodes: several blocks of the numeric forward model
    assert cli_main(
        [
            "sweep", "--config", config, "--omega-min", "1e-10", "--omega-max", "1e-8",
            "--points", "300", "--mode", "numeric", "--out", str(tmp_path / "sweep_numeric.csv"),
        ]
    ) == 0
    for scheme, observed in (("swm", "-1.2e-13"), ("bwm", "2.5e-9")):
        scheme_config = str(_scenario(tmp_path, f"{scheme}.json", scheme=scheme))
        assert cli_main(
            [
                "estimate", "--config", scheme_config, "--delta-lambda-m", observed,
                "--method", "numeric",
            ]
        ) == 0
        (tmp_path / f"estimate_{scheme}.stdout").write_text(
            capsys.readouterr().out, encoding="utf-8"
        )
    assert cli_main(["figure3", "--config", config, "--out", str(tmp_path)]) == 0
    record = tmp_path / "compare.json"
    assert cli_main(["compare", "--config", config, "--out", str(record)]) == 0
    # the timestamp is the record's one nondeterministic field
    masked, count = re.subn(
        r'"timestamp": "[^"]*"', '"timestamp": "MASKED"', record.read_text(encoding="utf-8")
    )
    assert count == 1
    record.write_text(masked, encoding="utf-8")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FROZEN_SHA256
    }
    assert digests == FROZEN_SHA256


def test_figure3_probabilities_match_per_rate_spectra(tmp_path):
    # panel D's numeric columns against one spectrum per rate and scheme
    from sagnac_wva.config import load_scenario
    from sagnac_wva.engine import SchemeKind, postselection_probability, scheme_spectrum

    config_path = _scenario(tmp_path, bias_order_m=2)
    out_dir = tmp_path / "fig3"
    assert cli_main(["figure3", "--config", str(config_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / FIGURE3_FILES[3]).read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(x) for x in line.split(",")] for line in lines]
    config = load_scenario(config_path)
    probe = config.probe()
    for row in rows:
        expected = [
            postselection_probability(scheme_spectrum(config, scheme, probe, row[0]))
            for scheme in (SchemeKind.SWM, SchemeKind.BWM)
        ]
        assert row[1:3] == expected


def test_zero_intensity_rate_in_a_numeric_sweep_is_numeric_error(tmp_path, capsys):
    # paper-literal bwm survival scales as (area*omega)^2: with this area it
    # underflows the zero-intensity floor at 1e-10 rad/s but not at 1e-8
    config = _scenario(tmp_path, scheme="bwm", paper_literal=True, area_m2=1e-140)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--omega-max", "1e-8", "--points", "5",
            "--mode", "numeric", "--out", str(out)]
    assert cli_main(argv + ["--omega-min", "1e-9"]) == 0
    capsys.readouterr()
    assert cli_main(argv + ["--omega-min", "1e-10"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: intensity integrates to zero on this grid\n"
    assert captured.out == ""


def test_parser_is_built_once_and_calls_do_not_interfere(tmp_path, capsys):
    config = str(_scenario(tmp_path, scheme="swm"))
    calls = [
        ["estimate", "--config", config, "--method"],  # usage error
        ["--version"],
        ["estimate", "--config", config, "--delta-lambda-m", "-1.2e-13", "--method", "numeric"],
        [
            "sweep", "--config", config, "--omega-min", "1e-10", "--omega-max", "1e-8",
            "--points", "4", "--mode", "analytic", "--out", str(tmp_path / "sweep.csv"),
        ],
    ]

    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]
    assert build_parser() is build_parser()
    assert [run(argv) for argv in calls + calls[::-1]] == fresh + fresh[::-1]


def test_compare_with_overflowing_result_is_numeric_error(tmp_path, capsys):
    # at 1e300 rad/s the closed-form delta_p overflows to inf
    config = _scenario(tmp_path, omega_rad_per_s=1e300, grid={"points": 101})
    out = tmp_path / "run.json"
    code = cli_main(["compare", "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: swm delta_p_analytic is inf; no record written\n"
    assert captured.out == ""
    assert not out.exists()


def test_analytic_overflow_prints_no_warning(tmp_path, capsys, recwarn):
    # 2*g*sigma_p^2*cot(phi) overflows for cot(1e-307) at the larger rates;
    # `recwarn` records every warning, which pytest would otherwise keep off stderr
    config = _scenario(tmp_path, phi_rad=1e-307, scheme="swm", grid={"points": 101})
    out = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep", "--config", str(config), "--omega-min", "1e-10", "--omega-max", "1e3",
            "--points", "50", "--mode", "analytic", "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert [str(w.message) for w in recwarn] == []
    # only the unpublished delta_p overflowed; the delta_lambda column is finite
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 50
    assert all(np.isfinite(float(x)) for row in rows for x in row.split(","))


@pytest.mark.parametrize("abbreviation", ["--delta", "--delta-l", "--d"])
def test_abbreviated_float_flag_takes_a_negative_exponent_value(tmp_path, capsys, abbreviation):
    config = str(_scenario(tmp_path, scheme="swm"))
    rest = ["--method", "analytic", "--config", config]
    separate = cli_main(["estimate", abbreviation, "-1.2e-09"] + rest), capsys.readouterr()
    joined = cli_main(["estimate", "--delta-lambda-m=-1.2e-09"] + rest), capsys.readouterr()
    assert separate == joined
    assert separate[0] == 0


def test_ambiguous_float_flag_prefix_stays_a_usage_error(tmp_path, capsys):
    config = str(_scenario(tmp_path, scheme="swm"))
    code = cli_main(
        ["estimate", "--config", config, "--delta-lambda-m", "1e-13", "--method", "numeric",
         "--omega", "1e-9"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "ambiguous option: --omega" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "area,observed,message",
    [
        # the coefficient is tiny but finite: the estimate overflows to inf
        (1e-300, "1e10", "bwm estimate is inf rad/s with residual inf m; no estimate printed"),
        # the coefficient underflows to zero
        (5e-324, "1e-9", "bwm closed-form shift per unit rate is 0.0 m s/rad; "
         "no rate can be inverted"),
        # the coefficient overflows to inf
        (1.7e308, "1e-9", "bwm closed-form shift per unit rate is inf m s/rad; "
         "no rate can be inverted"),
    ],
    ids=["overflowing-estimate", "zero-coefficient", "infinite-coefficient"],
)
def test_analytic_estimate_with_non_finite_result_is_numeric_error(
    tmp_path, capsys, area, observed, message
):
    config = _scenario(tmp_path, scheme="bwm", area_m2=area, grid={"points": 101})
    code = cli_main(
        ["estimate", "--config", str(config), "--delta-lambda-m", observed, "--method", "analytic"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_numeric_estimate_binds_the_forward_model_once(tmp_path, capsys, monkeypatch):
    # the calibration ladder and every bisection step share one bound kernel
    from sagnac_wva import engine, estimation

    binds = []
    original = engine.numeric_forward

    def counting(*args, **kwargs):
        binds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "numeric_forward", counting)
    # also counts a bind made through a name imported into estimation
    monkeypatch.setattr(estimation, "numeric_forward", counting, raising=False)
    config = _scenario(tmp_path, scheme="swm", grid={"points": 401})
    code = cli_main(
        ["estimate", "--config", str(config), "--delta-lambda-m", "-1.2e-13", "--method", "numeric"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["method"] == "numeric-bisection"
    assert binds == [engine.SchemeKind.SWM]


#: a JSON integer with 401 digits, odd so that grid.points fails only on size
HUGE_INTEGER = 10**400 + 1


@pytest.mark.parametrize("command", ["compare", "estimate"])
@pytest.mark.parametrize(
    "field",
    ["omega_rad_per_s", "area_m2", "lambda0_nm", "fwhm_nm",
     "grid.half_width_sigmas", "grid.points", "bias_order_m"],
)
def test_huge_json_integer_is_config_error(tmp_path, capsys, command, field):
    # an integer no float holds is refused by name, not raised as OverflowError
    if field.startswith("grid."):
        overrides = {"grid": {**BASE["grid"], field[5:]: HUGE_INTEGER}}
    else:
        overrides = {field: HUGE_INTEGER}
    config = str(_scenario(tmp_path, scheme="bwm", **overrides))
    argv = {
        "compare": ["compare", "--config", config, "--out", str(tmp_path / "r.json")],
        "estimate": ["estimate", "--config", config, "--delta-lambda-m", "1e-12",
                     "--method", "analytic"],
    }[command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["spectrum", "compare", "estimate"])
@pytest.mark.parametrize(
    "field,value",
    [("lambda0_nm", 1e-320), ("lambda0_nm", 1e-300), ("lambda0_nm", 1e300), ("fwhm_nm", 1e-320)],
)
def test_finite_value_without_an_si_probe_is_config_error(tmp_path, capsys, command, field, value):
    # the SI wavelength or momentum width underflows or overflows: refused
    # by the config, never NonPositiveInput, a grid error or OverflowError
    config = str(_scenario(tmp_path, scheme="swm", **{field: value}))
    argv = {
        "spectrum": ["spectrum", "--config", config, "--out", str(tmp_path / "s.csv")],
        "compare": ["compare", "--config", config, "--out", str(tmp_path / "r.json")],
        "estimate": ["estimate", "--config", config, "--delta-lambda-m", "1e-12",
                     "--method", "analytic"],
    }[command]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not any(tmp_path.glob("[sr].*"))


@pytest.mark.parametrize("command", ["spectrum", "compare", "estimate"])
@pytest.mark.parametrize("field,value", [("fwhm_nm", 1e-12), ("lambda0_nm", 1e150)])
def test_probe_grid_below_float_resolution_is_config_error(tmp_path, capsys, command, field, value):
    # a line so narrow against lambda0 that neighbouring grid nodes round to
    # the same momentum: refused as too narrow, not a p_grid ValueError
    config = str(_scenario(tmp_path, scheme="swm", **{field: value}))
    argv = {
        "spectrum": ["spectrum", "--config", config, "--out", str(tmp_path / "s.csv")],
        "compare": ["compare", "--config", config, "--out", str(tmp_path / "r.json")],
        "estimate": ["estimate", "--config", config, "--delta-lambda-m", "1e-12",
                     "--method", "analytic"],
    }[command]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fwhm_nm: gives a momentum grid step of ")
    assert "which does not separate the grid nodes" in err
    assert not any(tmp_path.glob("[sr].*"))


@pytest.mark.parametrize("points", [10**12 + 1, 10**300 + 1])
def test_grid_points_above_the_cap_is_config_error(tmp_path, capsys, points):
    # counts no machine could allocate; refused before any grid is built
    config = str(_scenario(tmp_path, scheme="swm", grid={"points": points}))
    argv = ["estimate", "--config", config, "--delta-lambda-m", "1e-12", "--method", "analytic"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: grid.points: points must be at most ")


def test_cli_import_loads_every_traced_layer():
    # the benchmark's tracer indexes sys.modules for each of its LAYERS after
    # importing sagnac_wva.cli; read the tuple from its source, not a copy
    import ast

    repo = Path(__file__).resolve().parents[1]
    tree = ast.parse((repo / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    assert "jones" in layers and "sagnac" in layers
    # a fresh interpreter: this one has imported every module already
    probe = (
        "import sys, sagnac_wva.cli; "
        "print(' '.join(n for n in sys.modules if n.startswith('sagnac_wva.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
    )
    loaded = set(result.stdout.split())
    assert {f"sagnac_wva.{layer}" for layer in layers} <= loaded
