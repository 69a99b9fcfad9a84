"""Record every CLI output of one checkout, for byte-identity checks between two.

Usage::

    python tools/golden.py SRC OUT

SRC is a checkout of this repository; its `src/` is imported (never an
installed copy).  OUT must not exist yet.  The script runs every command in
process through `sagnac_wva.cli.cli_main` over a fixed scenario matrix:
swm/bwm/both x paper_literal off/on x grids of 1001/4001/16001 nodes, each
once with the README parameters and once with seeded random ones (width
reading, bias order 0-2, grid half-width), plus a few edge scenarios that
take the refusal and overflow paths or that the config refuses.  Per
scenario it runs `spectrum` for both schemes, `compare`, analytic and
numeric `sweep`s (a numeric one up to 1e308 rad/s, where `4*Omega`
overflows, and an analytic one over every decade from 5e-324 to the
largest double), analytic and numeric `estimate`s per scheme (numeric ones
also on an interior ladder sample and on a 2-point ladder), `figure3`
and three usage errors (one a `sweep` of 10**30 rates, more than any
machine could allocate).

For every command it writes the files the command wrote plus a `.run` file
with the exit code, stdout and stderr.  The `compare` record's `timestamp`
is masked, and numpy warnings are recorded as `warning:` lines without the
file and line they came from, so two checkouts of equal behaviour give
identical trees.  Compare two checkouts with::

    python tools/golden.py PARENT_CHECKOUT /tmp/golden-parent
    python tools/golden.py .              /tmp/golden-change
    diff -r /tmp/golden-parent /tmp/golden-change

Needs only the package's own dependencies.  The full matrix runs about
1550 commands, writes about 120 MB and takes 8-13 s on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import warnings
from pathlib import Path

README = {
    "lambda0_nm": 833.0,
    "fwhm_nm": 20.0,
    "area_m2": 1000.0,
    "phi_rad": 1e-4,
    "omega_rad_per_s": 1e-9,
}

#: scenarios that take refusal and overflow paths: (name, overrides)
EDGES = [
    ("edge-huge-rate", {"omega_rad_per_s": 1e300, "scheme": "both"}),
    ("edge-tiny-phi", {"phi_rad": 1e-307, "scheme": "swm"}),
    ("edge-underflow-literal", {"area_m2": 1e-140, "scheme": "bwm", "paper_literal": True}),
    ("edge-tiny-area-literal", {"area_m2": 1e-160, "scheme": "bwm", "paper_literal": True}),
    ("edge-wide-phi", {"phi_rad": 1.5, "scheme": "both", "bias_order_m": 2}),
    ("edge-inf-coupling", {"area_m2": 1e10, "omega_rad_per_s": 1e300, "scheme": "both"}),
    # both closed-form shifts underflow to 0 or both overflow, so figure3's
    # ratio of them is nan
    ("edge-subnormal-area", {"area_m2": 1e-310, "scheme": "both"}),
    ("edge-overflowing-shifts", {"area_m2": 1e30, "phi_rad": 1e-300, "scheme": "both"}),
    # scenario values the config must refuse: an integer no float holds, a
    # wavelength that underflows to 0 m, a line too narrow for the grid to
    # resolve and a node count no machine could allocate
    ("edge-huge-integer", {"area_m2": 10**400, "scheme": "both"}),
    ("edge-subnormal-lambda", {"lambda0_nm": 1e-320, "scheme": "both"}),
    ("edge-narrow-line", {"fwhm_nm": 1e-12, "scheme": "both"}),
    ("edge-huge-grid", {"grid": {"points": 10**300 + 1}, "scheme": "both"}),
]

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def scenarios():
    """(name, scenario dict) for the whole matrix, the same on every run."""
    out = []
    for scheme in ("swm", "bwm", "both"):
        for literal in (False, True):
            for points in (1001, 4001, 16001):
                stem = f"{scheme}-{'literal' if literal else 'full'}-{points}"
                base = {"scheme": scheme, "paper_literal": literal, "grid": {"points": points}}
                out.append((f"{stem}-readme", {**README, **base}))
                rng = random.Random(stem)
                out.append((
                    f"{stem}-random",
                    {
                        "lambda0_nm": rng.uniform(500.0, 1600.0),
                        "fwhm_nm": rng.uniform(1.0, 60.0),
                        "area_m2": 10.0 ** rng.uniform(-1.0, 4.0),
                        "phi_rad": 10.0 ** rng.uniform(-6.0, -0.5),
                        "omega_rad_per_s": 10.0 ** rng.uniform(-11.0, -6.0),
                        "bias_order_m": rng.randrange(3),
                        "delta_lambda_means": rng.choice(["fwhm", "sigma"]),
                        **base,
                        "grid": {"points": points, "half_width_sigmas": rng.uniform(4.0, 10.0)},
                    },
                ))
    for name, overrides in EDGES:
        out.append((name, {**README, "grid": {"points": 1001}, **overrides}))
    return out


def run(cli_main, directory: Path, name: str, argv: list) -> None:
    """Run one command in `directory` and write its outcome to `<name>.run`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = str(cli_main(argv))
            except Exception as exc:  # a traceback is an outcome to record, not to stop on
                code = f"raised {type(exc).__name__}: {exc}"
    noted = "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    (directory / f"{name}.run").write_text(
        f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}{noted}",
        encoding="utf-8",
    )


def sweep_values(path: Path) -> list:
    """The last column of a sweep CSV, or [] when the sweep wrote nothing."""
    if not path.exists():
        return []
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(row.rsplit(",", 1)[1]) for row in rows]


def record_scenario(cli_main, directory: Path, raw: dict) -> None:
    """Run every command on one scenario; `directory` is the working directory."""
    (directory / "scenario.json").write_text(json.dumps(raw), encoding="utf-8")
    cfg = ["--config", "scenario.json"]
    for scheme in ("swm", "bwm"):
        run(cli_main, directory, f"spectrum-{scheme}",
            ["spectrum", *cfg, "--out", f"spectrum-{scheme}.csv", "--scheme", scheme])
    run(cli_main, directory, "compare", ["compare", *cfg, "--out", "compare.json"])
    record = directory / "compare.json"
    if record.exists():
        record.write_text(
            TIMESTAMP.sub('"timestamp": "MASKED"', record.read_text(encoding="utf-8")),
            encoding="utf-8",
        )
    numeric_rates = "300" if raw["grid"]["points"] < 16001 else "60"
    for name, lo, hi, points, mode in (
        ("sweep-analytic", "1e-10", "1e-8", "2100", "analytic"),
        # every decade of the doubles: subnormal rates, both %.17g notation
        # switches and, where 4*Omega overflows, inf rows
        ("sweep-analytic-full-range", "5e-324", "1.7976931348623157e308", "4001", "analytic"),
        ("sweep-numeric", "1e-10", "1e-8", numeric_rates, "numeric"),
        ("sweep-numeric-wide", "1e-12", "1e308", "50", "numeric"),
    ):
        run(cli_main, directory, name,
            ["sweep", *cfg, "--omega-min", lo, "--omega-max", hi, "--points", points,
             "--mode", mode, "--out", f"{name}.csv"])

    # estimates need a single scheme; observations come from this checkout's
    # own 10-point ladder on the estimator's default bracket
    for scheme in ("swm", "bwm") if raw["scheme"] == "both" else (raw["scheme"],):
        single = f"scenario-{scheme}.json"
        (directory / single).write_text(json.dumps({**raw, "scheme": scheme}), encoding="utf-8")
        ladder = f"ladder-{scheme}.csv"
        run(cli_main, directory, f"ladder-{scheme}",
            ["sweep", "--config", single, "--omega-min", "1e-10", "--omega-max", "1e-8",
             "--points", "10", "--mode", "numeric", "--out", ladder])
        values = sweep_values(directory / ladder)
        observations = [1.2e-13, -1.2e-13, 2.5e-9]
        if values:
            observations += [0.5 * (values[3] + values[4]), values[0], values[-1]]
        for k, observed in enumerate(observations):
            for method in ("analytic", "numeric"):
                run(cli_main, directory, f"estimate-{scheme}-{method}-{k}",
                    ["estimate", "--config", single, "--delta-lambda-m", repr(observed),
                     "--method", method])
        run(cli_main, directory, f"estimate-{scheme}-3-point",
            ["estimate", "--config", single, "--delta-lambda-m", repr(observations[-1]),
             "--method", "numeric", "--points", "3"])
        if values:
            # an interior ladder sample, which the inversion returns without a
            # search, and a ladder of one calibration interval
            run(cli_main, directory, f"estimate-{scheme}-sample",
                ["estimate", "--config", single, "--delta-lambda-m", repr(values[4]),
                 "--method", "numeric"])
            run(cli_main, directory, f"estimate-{scheme}-2-point",
                ["estimate", "--config", single, "--delta-lambda-m", repr(observations[3]),
                 "--method", "numeric", "--points", "2"])

    run(cli_main, directory, "figure3", ["figure3", *cfg, "--out", "figure3"])
    run(cli_main, directory, "usage-missing-value", ["estimate", *cfg, "--method"])
    run(cli_main, directory, "usage-bad-range",
        ["sweep", *cfg, "--omega-min", "1e-8", "--omega-max", "1e-10", "--points", "5",
         "--mode", "numeric", "--out", "never.csv"])
    run(cli_main, directory, "usage-huge-points",
        ["sweep", *cfg, "--omega-min", "1e-10", "--omega-max", "1e-8", "--points", str(10**30),
         "--mode", "numeric", "--out", "never.csv"])


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/golden.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src / "src"))
    from sagnac_wva import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported {cli.__file__}, not the checkout at {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        for name, raw in scenarios():
            directory = out / name
            directory.mkdir()
            # relative paths keep OUT out of every message the commands print
            os.chdir(directory)
            record_scenario(cli.cli_main, directory, raw)
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
