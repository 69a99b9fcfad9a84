"""The CLI's exit contract under fuzzed scenarios and flags.

Whatever the scenario, a command exits 0, 2, 3 or 4; stdout is valid JSON
or empty; a failure prints exactly one `error:` line; no warning of any kind
is emitted; and no written file carries a NaN.  Every run goes through
`cli_main` in process, on grids of at most 101 nodes.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sagnac_wva.cli import cli_main  # noqa: E402

README = {
    "lambda0_nm": 833.0,
    "fwhm_nm": 20.0,
    "area_m2": 1000.0,
    "phi_rad": 1e-4,
    "omega_rad_per_s": 1e-9,
    "scheme": "both",
    "grid": {"points": 101},
}


#: a line wide enough for the probe's Python UserWarning (sigma_lambda/lambda0
#: = 0.26); `compare` succeeds on it and a numeric `estimate` is refused
WIDE_LINE = {**README, "fwhm_nm": 500.0, "scheme": "bwm", "paper_literal": True,
             "grid": {"points": 101, "half_width_sigmas": 3.0}}


#: a line so short that p0^2 overflows a double (p0 ~ 6.3e159 1/m)
TINY_LINE = {**README, "lambda0_nm": 1e-150, "fwhm_nm": 1e-152}


def _mostly(typical, extreme):
    """`typical` five draws in six, else `extreme`."""
    return st.integers(0, 5).flatmap(lambda k: extreme if k == 5 else typical)


#: any finite double, of either sign and any decade, subnormals included
ANY_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-323, 307)),
)


def _field(low, high):
    return _mostly(st.floats(low, high), ANY_DOUBLE)


#: every scenario field but fwhm_nm
_FIELDS = st.fixed_dictionaries({
    "lambda0_nm": _field(400.0, 2000.0),
    "area_m2": _field(0.1, 1e4),
    "phi_rad": _field(1e-6, 1.5),
    "omega_rad_per_s": _field(-1e-6, 1e-6),
    "scheme": st.sampled_from(["swm", "bwm", "both"]),
    "bias_order_m": _mostly(st.integers(0, 2), st.integers(-10**15, 10**15)),
    "delta_lambda_means": st.sampled_from(["fwhm", "sigma"]),
    "paper_literal": st.booleans(),
    "grid": st.fixed_dictionaries({
        "points": st.sampled_from([3, 5, 11, 51, 101]),
        "half_width_sigmas": _mostly(st.floats(3.0, 12.0), ANY_DOUBLE),
    }),
})

#: fwhm_nm is drawn as a ratio of lambda0_nm, so that an extreme wavelength
#: mostly comes with a grid the config can build
SCENARIOS = st.builds(
    lambda raw, ratio: {**raw, "fwhm_nm": raw["lambda0_nm"] * ratio},
    _FIELDS, _field(5e-4, 0.15),
)

#: --omega-min, --omega-max and --points of a sweep or a numeric estimate
_RANGE = st.tuples(
    _field(1e-11, 1e-9), _field(1e-9, 1e-6), _mostly(st.integers(2, 20), st.integers(0, 1))
)

#: one scenario's commands: every fixed one, then a drawn sweep and estimate
COMMANDS = st.tuples(
    st.builds(
        lambda r, mode: [
            "sweep", "--omega-min", repr(r[0]), "--omega-max", repr(r[1]),
            "--points", str(r[2]), "--mode", mode, "--out", "out.csv",
        ],
        _RANGE, st.sampled_from(["analytic", "numeric"]),
    ),
    st.builds(
        lambda observed, method, r: [
            "estimate", "--delta-lambda-m", repr(observed), "--method", method,
            "--omega-min", repr(r[0]), "--omega-max", repr(r[1]), "--points", str(r[2]),
        ],
        _field(-1e-9, 1e-9), st.sampled_from(["analytic", "numeric"]), _RANGE,
    ),
).map(lambda drawn: [
    ["spectrum", "--out", "out.csv", "--scheme", "swm"],
    ["spectrum", "--out", "out.csv", "--scheme", "bwm"],
    ["compare", "--out", "out.json"],
    ["figure3", "--out", "figure3"],
    *drawn,
])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_run(work: Path, scenario: Path, command: list) -> None:
    """Run one command in an empty `work` directory and check the contract."""
    argv = [str(work / token) if flag == "--out" else token
            for flag, token in zip([None] + command, command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(argv + ["--config", str(scenario)])
    out, err = stdout.getvalue(), stderr.getvalue()

    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if command[0] == "estimate" and code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
    for path in work.rglob("*"):
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                json.loads(text, parse_constant=_reject_constant)
            else:
                assert "nan" not in re.split(r"[,\n]", text), path.name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw=SCENARIOS, commands=COMMANDS)
@example(raw={**README, "area_m2": 1e10, "omega_rad_per_s": 1e300},
         commands=[["compare", "--out", "out.json"]])
@example(raw={**README, "area_m2": 1e-310}, commands=[["figure3", "--out", "figure3"]])
@example(raw={**README, "area_m2": 1e30, "phi_rad": 1e-300},
         commands=[["figure3", "--out", "figure3"]])
@example(raw=WIDE_LINE, commands=[["compare", "--out", "out.json"]])
@example(raw=WIDE_LINE,
         commands=[["estimate", "--delta-lambda-m", "1e-12", "--method", "numeric"]])
# p0^2 overflows a double on this valid line: compare is refused, the others succeed
@example(raw=TINY_LINE, commands=[["compare", "--out", "out.json"]])
@example(raw={**TINY_LINE, "scheme": "bwm"},
         commands=[["estimate", "--delta-lambda-m", "1e-12", "--method", "analytic"]])
@example(raw=TINY_LINE, commands=[["figure3", "--out", "figure3"]])
def test_every_run_keeps_the_exit_contract(raw, commands):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        for k, command in enumerate(commands):
            work = Path(tmp) / str(k)
            work.mkdir()
            _check_run(work, scenario, command)
