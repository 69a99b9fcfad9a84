"""
Command-line interface.

Subcommands: spectrum, compare, sweep, estimate, figure3.  Exit codes:
0 success, 2 configuration or validation problem, 3 numerical failure
(zero intensity, non-monotone or out-of-range inversion), 4 output I/O
failure.  A package error carries its own code (`errors`); of the OS
errors the package passes on unwrapped, a missing scenario file exits 2
and any other 4.  Diagnostics go to stderr, a failure as one `error:` line
and no warning of any kind; machine-readable output goes to files or
stdout only.
An argv that starts with a command name is parsed by that command's
sub-parser alone; any other argv (none, `--help`, `--version`, an unknown
command) goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import load_scenario
from .engine import (
    SchemeKind,
    analytic_shift,
    compare_schemes,
    discrepancy_from_results,
    numeric_forward,
    pointform_probability,
    scheme_spectrum,
    single_scheme,
)
from .errors import IoError, NonFiniteResult, SagnacWvaError, ValidationError
from .estimation import (
    calibration_curve,
    check_observation,
    estimate_omega_analytic,
    estimate_omega_numeric,
    omega_ladder,
)
from .output import build_run_record, record_to_json, write_results_json, write_table_csv
from .spectrum import momentum_to_wavelength, normalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4

#: the two rotation rates the figure3 spectra are evaluated at, rad/s
FIGURE3_OMEGAS = (1.0e-9, 1.9e-8)
#: `omega_ladder` arguments of the figure3 ratio and probability panels'
#: sweep: from and to (rad/s) and the number of rates
FIGURE3_SWEEP = (1e-10, 1.9e-8, 25)

FIGURE3_FILES = (
    "spectra_omega_1.0e-09.csv",
    "spectra_omega_1.9e-08.csv",
    "sensitivity_ratio_sweep.csv",
    "postselection_probability_sweep.csv",
)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's argument parser and its command name -> sub-parser map, built
    on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="sagnac-wva",
        description=(
            "Simulate weak-value amplified rotation sensing in a polarization "
            "Sagnac loop and estimate rotation rates from spectral shifts."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="write probe and post-selected spectra as CSV")
    sp.add_argument("--config", required=True, help="scenario JSON file")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument(
        "--scheme",
        choices=("swm", "bwm"),
        help="override the scenario scheme (required there if the scenario says 'both')",
    )

    cp = sub.add_parser("compare", help="run both schemes and write a JSON run record")
    cp.add_argument("--config", required=True)
    cp.add_argument("--out", required=True, help="output JSON path")

    sw = sub.add_parser("sweep", help="tabulate delta_lambda versus Omega as CSV")
    sw.add_argument("--config", required=True)
    sw.add_argument("--omega-min", type=float, required=True)
    sw.add_argument("--omega-max", type=float, required=True)
    sw.add_argument("--points", type=int, required=True)
    sw.add_argument("--mode", choices=("numeric", "analytic"), required=True)
    sw.add_argument("--out", required=True, help="output CSV path")

    es = sub.add_parser("estimate", help="invert an observed wavelength shift to Omega")
    es.add_argument("--config", required=True)
    es.add_argument("--delta-lambda-m", type=float, required=True, help="observed shift, m")
    es.add_argument("--method", choices=("analytic", "numeric"), required=True)
    es.add_argument("--omega-min", type=float, default=1e-10, help="numeric calibration range")
    es.add_argument("--omega-max", type=float, default=1e-8)
    es.add_argument("--points", type=int, default=10)

    fg = sub.add_parser(
        "figure3", help="emit the four-panel summary datasets (spectra, ratio, probability)"
    )
    fg.add_argument("--config", required=True)
    fg.add_argument("--out", required=True, help="output directory")

    return parser, sub.choices


def _cmd_spectrum(args) -> int:
    config = load_scenario(args.config)
    name = args.scheme or config.scheme
    if name == "both":
        raise ValidationError(
            "scheme", "this subcommand needs a single scheme; pass --scheme swm|bwm"
        )
    scheme = SchemeKind(name)
    intensity = scheme_spectrum(config, scheme, config.omega_rad_per_s)
    if not np.isfinite(intensity).all():
        raise NonFiniteResult(f"{scheme.value} intensity_post is not finite; no file written")
    probe = config.probe
    # positional: perfbench counts output rows from the third argument
    write_table_csv(
        args.out,
        "p_inv_m,lambda_m,intensity_probe,intensity_post",
        [probe.p_grid, momentum_to_wavelength(probe.p_grid), probe.intensity, intensity],
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = load_scenario(args.config)
    results = compare_schemes(config)
    record = build_run_record(config, results, discrepancy_from_results(results))
    write_results_json(args.out, record)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_scenario(args.config)
    schemes = (
        (SchemeKind.SWM, SchemeKind.BWM)
        if config.scheme == "both"
        else (SchemeKind(config.scheme),)
    )
    omegas = omega_ladder(args.omega_min, args.omega_max, args.points)
    if args.mode == "analytic":
        shifts = [analytic_shift(config, s, omegas).delta_lambda for s in schemes]
    else:
        shifts = [numeric_forward(config, s)(omegas).delta_lambda for s in schemes]
    if len(schemes) == 1:
        header = "omega_rad_per_s,delta_lambda_m"
    else:
        header = "omega_rad_per_s,delta_lambda_swm_m,delta_lambda_bwm_m"
    write_table_csv(args.out, header, [omegas, *shifts])
    return EXIT_OK


def _cmd_estimate(args) -> int:
    check_observation(args.delta_lambda_m)
    config = load_scenario(args.config)
    scheme = single_scheme(config)
    if args.method == "analytic":
        estimate = estimate_omega_analytic(args.delta_lambda_m, config)
    else:
        curve = calibration_curve(config, args.omega_min, args.omega_max, args.points)
        estimate = estimate_omega_numeric(args.delta_lambda_m, curve)
    payload = {
        "omega_hat_rad_per_s": estimate.omega_hat,
        "method": estimate.method,
        "residual_m": estimate.residual,
        "scheme": scheme.value,
    }
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(record_to_json(payload))
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; send that flush to
            # devnull, as the Python docs' note on SIGPIPE does, so it is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise IoError(f"cannot write stdout: {exc.strerror or exc}") from exc
    return EXIT_OK


def _cmd_figure3(args) -> int:
    config = load_scenario(args.config)
    probe = config.probe
    schemes = (SchemeKind.SWM, SchemeKind.BWM)
    tables = []  # (header, columns), one per FIGURE3_FILES entry

    # panels A and B: probe plus normalized post-selected spectra, both schemes
    for omega in FIGURE3_OMEGAS:
        posts = [normalize(probe.p_grid, scheme_spectrum(config, s, omega)) for s in schemes]
        tables.append((
            "p_inv_m,lambda_m,intensity_probe,intensity_post_swm,intensity_post_bwm",
            [probe.p_grid, momentum_to_wavelength(probe.p_grid), probe.intensity, *posts],
        ))

    # panel C: analytic shifts of both schemes and their ratio across Omega
    omegas = omega_ladder(*FIGURE3_SWEEP)
    swm_shift, bwm_shift = (analytic_shift(config, s, omegas).delta_lambda for s in schemes)
    ratio = bwm_shift / swm_shift
    if not np.isfinite(ratio).all():
        # e.g. both shifts underflowed to 0 (0/0) or both overflowed (inf/inf)
        raise NonFiniteResult("bwm_to_swm_ratio is not finite; no files written")
    tables.append((
        "omega_rad_per_s,delta_lambda_swm_analytic_m,delta_lambda_bwm_analytic_m,bwm_to_swm_ratio",
        [omegas, swm_shift, bwm_shift, ratio],
    ))

    # panel D: survival probabilities across the same sweep
    numeric = [numeric_forward(config, s)(omegas).probability for s in schemes]
    pointform = [pointform_probability(config, s, omegas) for s in schemes]
    tables.append((
        "omega_rad_per_s,prob_swm_numeric,prob_bwm_numeric,prob_swm_pointform,prob_bwm_pointform",
        [omegas, *numeric, *pointform],
    ))

    # nothing is created until every table is computed, so a numerical
    # failure leaves neither a partial set nor an empty directory behind
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc.strerror or exc}") from exc
    for name, (header, columns) in zip(FIGURE3_FILES, tables):
        write_table_csv(out_dir / name, header, columns)
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "figure3": _cmd_figure3,
}


#: float-valued flags whose value may be negative, e.g. an swm shift of -1.2e-09
_FLOAT_FLAGS = ("--omega-min", "--omega-max", "--delta-lambda-m")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_float_flag(token: str) -> bool:
    """True for one of _FLOAT_FLAGS or a prefix of exactly one of them (`--delta`)."""
    return token.startswith("--") and sum(f.startswith(token) for f in _FLOAT_FLAGS) == 1


def _join_float_values(argv: list[str]) -> list[str]:
    """Fold `FLAG VALUE` into `FLAG=VALUE` for _FLOAT_FLAGS when VALUE parses as a float.

    argparse takes a token such as -1.2e-09 for an option (its negative
    number pattern has no exponent form); the `=` form always reaches `type`.
    FLAG may be abbreviated as argparse allows; an ambiguous prefix such as
    `--omega` is left alone for argparse to reject.
    """
    joined, k = [], 0
    while k < len(argv):
        token = argv[k]
        if _is_float_flag(token) and k + 1 < len(argv) and _is_float(argv[k + 1]):
            token = f"{token}={argv[k + 1]}"
            k += 1
        joined.append(token)
        k += 1
    return joined


def cli_main(argv: list[str]) -> int:
    parser, commands = build_parser()
    argv = _join_float_values(argv)
    try:
        if argv and argv[0] in commands:
            # the top-level parser would hand every token after the command to
            # its sub-parser and refuse what that leaves over; do both directly
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; fold its exit status through
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        # the commands check the non-finite values they refuse themselves, so
        # numpy's own warnings would only add noise next to `error:`; the
        # same holds for Python warnings, such as the probe's wide-line one
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _COMMANDS[args.command](args)
    except SagnacWvaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # passed on unwrapped, as load_scenario's FileNotFoundError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, FileNotFoundError) else EXIT_IO


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
