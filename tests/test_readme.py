"""The README's library surface: its quick start runs as written, the
top-level names it lists are the package's `__all__`, and the figures and
`error:` texts it quotes are what the code computes and prints."""

import errno
import functools
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import sagnac_wva
from sagnac_wva.cli import _write_stdout
from sagnac_wva.config import config_from_dict
from sagnac_wva.engine import SchemeKind, _coupling_length, compare_schemes, exact_gaussian
from sagnac_wva.errors import IoError, NonMonotonicCalibration
from sagnac_wva.estimation import calibration_curve, estimate_omega_analytic
from sagnac_wva.output import write_table_csv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def test_quick_start_runs_as_written(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    standard, biased = (float(x) for x in lines[0].split())
    assert standard < 0.0 < biased
    rows = [line.split()[:2] for line in lines[1:]]
    assert rows == [
        [scheme, quantity]
        for scheme in ("swm", "bwm")
        for quantity in ("delta_p", "delta_lambda", "postselect_prob")
    ]


def test_listed_top_level_names_are_the_package_all():
    section = _section("Library quick start")
    start = section.index("The package top level exports this surface:")
    listing = section[start : section.index("Everything else", start)]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(sagnac_wva.__all__)


#: the README's scenario (its "Command line" section); scheme "both", 4001 nodes
SCENARIO = {"lambda0_nm": 833.0, "fwhm_nm": 20.0, "area_m2": 1000.0, "phi_rad": 1e-4,
            "omega_rad_per_s": 1e-9, "scheme": "both"}


def _config(**overrides):
    return config_from_dict({**SCENARIO, **overrides})


@functools.cache
def _compared(paper_literal=False):
    return compare_schemes(_config(paper_literal=paper_literal))


def _probability_gap(result):
    return abs(result.postselect_prob_numeric / result.postselect_prob_pointform - 1.0)


def _bwm_peak_rate():
    rates = np.linspace(0.99e-8, 1.02e-8, 30001)
    return rates[np.argmax(exact_gaussian(_config(), SchemeKind.BWM)(rates).delta_lambda)]


def _swm_working_point_gap():
    # acceptance check 03: the grid's swm delta_p against the weak-value law
    # 2*g*sigma_p^2*cot(phi + g*p0)
    probe, g = _config().probe, float(_coupling_length(_config(), 1e-9))
    law = 2.0 * g * probe.sigma_p**2 / np.tan(1e-4 + g * probe.p0)
    return abs(_compared()[0].delta_p_numeric / law - 1.0)


@functools.cache
def _wide_line_refusal():
    """(smallest step, margin) of the edge-wide-line swm calibration's refusal, m."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the probe's wide-line warning
        config = _config(scheme="swm", fwhm_nm=500.0,
                         grid={"points": 1001, "half_width_sigmas": 3.0})
    with pytest.raises(NonMonotonicCalibration) as exc:
        calibration_curve(config, 1e-10, 1e-8, 10)
    step, margin = re.search(r"as little as (\S+) m, within its margin of (\S+) m",
                             str(exc.value)).groups()
    return float(step), float(margin)


class _FailingStream:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


def _stdout_error(error):
    """The `error:` line of a stdout whose write raises `error`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", _FailingStream(error))
        with pytest.raises(IoError) as exc:
            _write_stdout("{}")
    return f"error: {exc.value}"


def _special_file_error():
    """The `error:` line of an --out that is a directory, with its path as OUT."""
    with tempfile.TemporaryDirectory() as folder:
        with pytest.raises(IoError) as exc:
            write_table_csv(folder, "x", [np.zeros(1)])
    return f"error: {exc.value}".replace(folder, "OUT")


#: (regex with one group that finds one figure in README.md, the call that
#: recomputes it, the significant digits the README prints or None for text)
FIGURES = [
    (r"curve's peak at (\S+) rad/s", _bwm_peak_rate, 5),
    (r"prints Ω̂ ≈ (\S+) rad/s",
     lambda: estimate_omega_analytic(1.68e-9, _config(scheme="bwm")).omega_hat, 4),
    (r"to within (\S+) relative", lambda: _probability_gap(_compared()[0]), 2),
    (r"\((\S+) at the README parameters\)", lambda: _probability_gap(_compared(True)[1]), 3),
    (r"\((\S+) against \S+, a relative", lambda: _compared()[1].postselect_prob_numeric, 5),
    (r"against (\S+), a relative", lambda: _compared()[1].postselect_prob_pointform, 5),
    (r"difference of (\S+)\)", lambda: _probability_gap(_compared()[1]), 4),
    (r"measured gap is ~(\S+), the 6-sigma", _swm_working_point_gap, 2),
    (r"grid, (\S+) m off the", lambda: _wide_line_refusal()[1], 2),
    (r"steps down to (\S+) m", lambda: _wide_line_refusal()[0], 2),
    (r"`(error: cannot write stdout: REASON)`",
     lambda: _stdout_error(OSError(errno.EIO, "REASON")), None),
    (r"`(error: cannot write stdout: Broken pipe)`",
     lambda: _stdout_error(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))), None),
    (r"`(error: cannot write OUT: not a regular file)`", _special_file_error, None),
]


@pytest.mark.parametrize(
    "pattern,recompute,digits", FIGURES,
    ids=[re.sub(r"\W+", "-", f[0]).strip("-") for f in FIGURES],
)
def test_quoted_figure_is_what_the_code_computes(pattern, recompute, digits):
    found = re.findall(pattern, README)
    assert len(found) == 1, found
    figure, value = found[0], recompute()
    if digits is None:
        assert value == figure
    else:
        mantissa = re.sub(r"\D", "", figure.split("e")[0]).lstrip("0")
        assert len(mantissa) == digits
        assert float(f"{value:.{digits}g}") == float(figure)
