"""Seeded op generators and output checks for the three workloads.

An op is one user action: one or more CLI commands run in process, whose
outputs are then checked against `reference`.  Ops come in blocks.  Every
block of a workload has the same op classes at the same grid sizes, in a
seed-shuffled order, with the physics drawn afresh.  So op p50, ops/s and
the per-op layer counts do not depend on how many blocks a run completes.

Block `i` of seed `s` is a pure function of (workload, s, i): its inputs
are generated on first use and the program sees only those files and argv.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import Scenario, close

#: figure3 sweep and spectrum rates, re-typed from the README
FIGURE3_OMEGAS = (1.0e-9, 1.9e-8)
FIGURE3_SWEEP = np.geomspace(1e-10, 1.9e-8, 25)
FIGURE3_FILES = (
    "spectra_omega_1.0e-09.csv",
    "spectra_omega_1.9e-08.csv",
    "sensitivity_ratio_sweep.csv",
    "postselection_probability_sweep.csv",
)
SPECTRUM_HEADER = "p_inv_m,lambda_m,intensity_probe,intensity_post"
FIGURE3_SPECTRA_HEADER = (
    "p_inv_m,lambda_m,intensity_probe,intensity_post_swm,intensity_post_bwm"
)
#: numeric calibration bracket and ladder length passed to `estimate`
LADDER = (1e-10, 1e-8, 10)
LADDER_SAMPLES = np.geomspace(*LADDER)
LADDER_DENSE = np.geomspace(LADDER[0], LADDER[1], 4001)
#: BISECTION_REL_TOL of the program is 1e-6; allow twice that in Omega
OMEGA_RTOL = 2e-6
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ\Z")
RESULT_FIELDS = {
    "delta_p_numeric",
    "delta_lambda_numeric",
    "delta_p_analytic",
    "delta_lambda_analytic",
    "postselect_prob_numeric",
    "postselect_prob_pointform",
    "amplification_factor",
}
QUANTITIES = (
    ("delta_p", "delta_p_numeric", "delta_p_analytic"),
    ("delta_lambda", "delta_lambda_numeric", "delta_lambda_analytic"),
    ("postselect_prob", "postselect_prob_numeric", "postselect_prob_pointform"),
)


@dataclass
class Step:
    """One CLI command, its expected exit code, and the check of its output.

    `check` takes the captured stdout and returns a list of problems; the
    files the command wrote are read from the paths it closes over.
    """

    argv: list
    expect_rc: int
    check: Callable[[str], list]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Op:
    kind: str
    steps: list
    outputs: list = field(default_factory=list)  # paths cleared before the op runs

    def clear_outputs(self) -> None:
        for path in self.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


# -- parsing helpers -----------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    """json.loads that refuses NaN and Infinity, as allow_nan=False would."""
    return json.loads(text, parse_constant=_reject_constant)


def read_csv(path: Path, header: str, columns: int):
    """(array, problems) for a numeric CSV with a fixed header and LF lines."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return None, [f"{path.name}: cannot read: {exc}"]
    lines = text.split("\n")
    if "\r" in text or lines[-1] != "":
        return None, [f"{path.name}: not LF-terminated"]
    if lines[0] != header:
        return None, [f"{path.name}: header {lines[0]!r}"]
    try:
        data = np.loadtxt(lines[1:-1], delimiter=",", ndmin=2)
    except ValueError as exc:
        return None, [f"{path.name}: {exc}"]
    if data.shape[1] != columns:
        return None, [f"{path.name}: {data.shape[1]} columns"]
    return data, []


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# -- scenario generation -------------------------------------------------


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_scenario(rng: random.Random, points: int, scheme: str, paper_literal=None) -> dict:
    """One scenario from the paper's regime (ranges listed in README.md)."""
    return {
        "lambda0_nm": rng.uniform(700.0, 1000.0),
        "fwhm_nm": log_uniform(rng, 5.0, 60.0),
        "area_m2": log_uniform(rng, 1.0, 3000.0),
        "phi_rad": log_uniform(rng, 1e-5, 1e-2),
        "omega_rad_per_s": log_uniform(rng, 1e-10, 1.9e-8),
        "scheme": scheme,
        "bias_order_m": rng.randint(0, 2),
        "delta_lambda_means": rng.choice(("fwhm", "sigma")),
        "paper_literal": rng.random() < 0.5 if paper_literal is None else paper_literal,
        "grid": {"half_width_sigmas": 6.0, "points": points},
    }


def write_scenario(path: Path, raw: dict) -> Scenario:
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return Scenario(raw)


# -- checks ----------------------------------------------------------------


def check_shift_and_probability(s, scheme, omega, p, post, probe, name, problems):
    """Integrated probability and mean shift of a gridded post-selected column."""
    prob_ref, dp_ref = s.exact_gaussian(scheme, omega)
    prob = float(np.trapezoid(post, p))
    _expect(problems, close(prob, prob_ref, ref.P_RTOL), f"{name}: P {prob:.17g} vs {prob_ref:.17g}")
    dp = ref.mean_momentum(p, post) - ref.mean_momentum(p, probe)
    _expect(
        problems,
        close(dp, dp_ref, 0.0, s.dp_tolerance(dp_ref)),
        f"{name}: delta_p {dp:.17g} vs {dp_ref:.17g}",
    )


def check_grid_columns(s, data, name, problems):
    """p, lambda and probe columns against the re-typed grid; returns (p, probe)."""
    p = s.grid()
    if data.shape[0] != p.size:
        problems.append(f"{name}: {data.shape[0]} rows, expected {p.size}")
        return None, None
    probe = s.probe(p)
    _expect(problems, close(data[:, 0], p, 1e-14), f"{name}: p grid")
    _expect(problems, close(data[:, 1], 2.0 * math.pi / p, 1e-14), f"{name}: lambda column")
    _expect(
        problems,
        close(data[:, 2], probe, 1e-10, 1e-12 * probe.max()),
        f"{name}: probe column",
    )
    return p, probe


def check_compare(s: Scenario, path: Path) -> list:
    problems: list = []
    try:
        record = parse_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"compare: {exc}"]
    if set(record) != {"config", "results", "discrepancy", "tool_version", "timestamp"}:
        return [f"compare: keys {sorted(record)}"]
    _expect(problems, record["config"] == s.raw, "compare: config echo differs")
    _expect(problems, isinstance(record["tool_version"], str), "compare: tool_version")
    _expect(
        problems,
        isinstance(record["timestamp"], str) and TIMESTAMP.match(record["timestamp"]),
        "compare: timestamp",
    )
    results = record["results"]
    if set(results) != {"swm", "bwm"} or any(set(r) != RESULT_FIELDS for r in results.values()):
        return problems + ["compare: result fields"]
    for scheme in ("swm", "bwm"):
        res = results[scheme]
        prob_ref, dp_ref = s.exact_gaussian(scheme, s.omega)
        tag = f"compare {scheme}"
        _expect(
            problems,
            close(res["postselect_prob_numeric"], prob_ref, ref.P_RTOL),
            f"{tag}: P {res['postselect_prob_numeric']!r} vs {prob_ref:.17g}",
        )
        _expect(
            problems,
            close(res["delta_p_numeric"], dp_ref, 0.0, s.dp_tolerance(dp_ref)),
            f"{tag}: delta_p {res['delta_p_numeric']!r} vs {dp_ref:.17g}",
        )
        dl_ref = -dp_ref * s.lambda0**2 / (2.0 * math.pi)
        _expect(
            problems,
            close(res["delta_lambda_numeric"], dl_ref, 0.0, s.dlambda_tolerance(dp_ref)),
            f"{tag}: delta_lambda {res['delta_lambda_numeric']!r} vs {dl_ref:.17g}",
        )
        for key, value in (
            ("delta_p_analytic", s.analytic_delta_p(scheme, s.omega)),
            ("delta_lambda_analytic", s.analytic_delta_lambda(scheme, s.omega)),
            ("postselect_prob_pointform", s.pointform_probability(scheme, s.omega)),
            ("amplification_factor", s.amplification()),
        ):
            _expect(problems, close(res[key], value, ref.CLOSED_RTOL), f"{tag}: {key}")
    rows = record["discrepancy"]
    expected = [(sc, q) for sc in ("swm", "bwm") for q, _, _ in QUANTITIES]
    if [(r.get("scheme"), r.get("quantity")) for r in rows] != expected:
        return problems + ["compare: discrepancy rows"]
    for row in rows:
        res = results[row["scheme"]]
        _, numeric_key, analytic_key = next(q for q in QUANTITIES if q[0] == row["quantity"])
        numeric, analytic = res[numeric_key], res[analytic_key]
        _expect(
            problems,
            row["numeric"] == numeric and row["analytic"] == analytic,
            f"compare: discrepancy {row['scheme']} {row['quantity']} values",
        )
        if analytic == 0.0:
            rel_ok = row["relative_difference"] == (0.0 if numeric == 0.0 else None)
        else:
            rel_ok = close(row["relative_difference"], abs(numeric - analytic) / abs(analytic), 1e-12)
        _expect(problems, rel_ok, f"compare: discrepancy {row['scheme']} {row['quantity']} ratio")
    return problems


def check_spectrum(s: Scenario, scheme: str, path: Path) -> list:
    data, problems = read_csv(path, SPECTRUM_HEADER, 4)
    if data is None:
        return problems
    p, probe = check_grid_columns(s, data, "spectrum", problems)
    if p is None:
        return problems
    post = s.post_intensity(scheme, s.omega, p, probe)
    _expect(
        problems,
        close(data[:, 3], post, 1e-9, 1e-9 * post.max()),
        "spectrum: intensity_post column",
    )
    check_shift_and_probability(s, scheme, s.omega, p, data[:, 3], data[:, 2], "spectrum", problems)
    return problems


def check_figure3(s: Scenario, out_dir: Path) -> list:
    problems: list = []
    found = sorted(x.name for x in out_dir.iterdir()) if out_dir.is_dir() else []
    if found != sorted(FIGURE3_FILES):
        return [f"figure3: files {found}"]
    for omega, name in zip(FIGURE3_OMEGAS, FIGURE3_FILES[:2]):
        data, bad = read_csv(out_dir / name, FIGURE3_SPECTRA_HEADER, 5)
        problems += bad
        if data is None:
            continue
        p, probe = check_grid_columns(s, data, name, problems)
        if p is None:
            continue
        for column, scheme in ((3, "swm"), (4, "bwm")):
            post = s.post_intensity(scheme, omega, p, probe)
            post = post / np.trapezoid(post, p)
            _expect(
                problems,
                close(data[:, column], post, 1e-9, 1e-9 * post.max()),
                f"{name}: {scheme} column",
            )
            dp_ref = s.exact_gaussian(scheme, omega)[1]
            dp = ref.mean_momentum(p, data[:, column]) - ref.mean_momentum(p, data[:, 2])
            _expect(
                problems,
                close(dp, dp_ref, 0.0, s.dp_tolerance(dp_ref)),
                f"{name}: {scheme} delta_p {dp:.17g} vs {dp_ref:.17g}",
            )
    omegas = FIGURE3_SWEEP
    data, bad = read_csv(
        out_dir / FIGURE3_FILES[2],
        "omega_rad_per_s,delta_lambda_swm_analytic_m,delta_lambda_bwm_analytic_m,bwm_to_swm_ratio",
        4,
    )
    problems += bad
    if data is not None:
        swm = s.analytic_delta_lambda("swm", omegas)
        bwm = s.analytic_delta_lambda("bwm", omegas)
        for column, value, what in (
            (0, omegas, "omega"),
            (1, swm, "swm shift"),
            (2, bwm, "bwm shift"),
            (3, bwm / swm, "ratio"),
        ):
            _expect(
                problems,
                data.shape[0] == omegas.size and close(data[:, column], value, ref.CLOSED_RTOL),
                f"{FIGURE3_FILES[2]}: {what}",
            )
    data, bad = read_csv(
        out_dir / FIGURE3_FILES[3],
        "omega_rad_per_s,prob_swm_numeric,prob_bwm_numeric,prob_swm_pointform,prob_bwm_pointform",
        5,
    )
    problems += bad
    if data is not None:
        for column, value, rtol, what in (
            (0, omegas, ref.CLOSED_RTOL, "omega"),
            (1, s.exact_gaussian("swm", omegas)[0], ref.P_RTOL, "swm numeric P"),
            (2, s.exact_gaussian("bwm", omegas)[0], ref.P_RTOL, "bwm numeric P"),
            (3, s.pointform_probability("swm", omegas), ref.CLOSED_RTOL, "swm point form"),
            (4, s.pointform_probability("bwm", omegas), ref.CLOSED_RTOL, "bwm point form"),
        ):
            _expect(
                problems,
                data.shape[0] == omegas.size and close(data[:, column], value, rtol),
                f"{FIGURE3_FILES[3]}: {what}",
            )
    return problems


def check_estimate_json(stdout, scheme, method, omega, omega_tol, residual_max) -> list:
    try:
        payload = parse_json(stdout)
    except ValueError as exc:
        return [f"estimate: stdout {exc}"]
    if set(payload) != {"omega_hat_rad_per_s", "method", "residual_m", "scheme"}:
        return [f"estimate: keys {sorted(payload)}"]
    problems: list = []
    _expect(problems, payload["method"] == method, f"estimate: method {payload['method']!r}")
    _expect(problems, payload["scheme"] == scheme, f"estimate: scheme {payload['scheme']!r}")
    omega_hat = payload["omega_hat_rad_per_s"]
    _expect(
        problems,
        close(omega_hat, omega, 0.0, omega_tol),
        f"estimate: omega {omega_hat!r} vs {omega!r} (tol {omega_tol:.3g})",
    )
    residual = payload["residual_m"]
    _expect(
        problems,
        isinstance(residual, float) and 0.0 <= residual <= residual_max,
        f"estimate: residual {residual!r}",
    )
    return problems


def check_refusal(stdout: str) -> list:
    return [] if stdout == "" else ["estimate: refusal printed to stdout"]


# -- the ladder's reference classification ------------------------------


def classify_ladder(s: Scenario, scheme: str) -> str:
    """Expected outcome of a numeric inversion on LADDER, from the reference.

    "invertible": the dense reference curve is strictly monotone and every
    step between calibration samples clears the numeric noise margin.
    "refused": the curve is flat below ulp(p0), so the program's samples are
    rounding noise, or the samples themselves turn by more than the margin.
    "ambiguous": neither; the generator draws again.  Such scenarios are where
    the program's sample-point monotonicity test can pass on a curve that
    turns between samples (ROADMAP direction 3); that defect is a robustness
    question, not this benchmark's.
    """
    dense = s.exact_gaussian(scheme, LADDER_DENSE)[1]
    steps = np.diff(s.exact_gaussian(scheme, LADDER_SAMPLES)[1])
    margin = 64.0 * s.ulp_p0 + 1e-5 * float(np.max(np.abs(dense)))
    if np.ptp(dense) < s.ulp_p0:
        return "refused"
    dense_steps = np.diff(dense)
    if (np.all(dense_steps > 0) or np.all(dense_steps < 0)) and np.min(np.abs(steps)) > margin:
        return "invertible"
    if np.any(steps > margin) and np.any(steps < -margin):
        return "refused"
    return "ambiguous"


# -- workloads -----------------------------------------------------------


class Workload:
    """Generator of seeded blocks of ops inside a work directory.

    A block has one op per entry of SPECS; the warm-up op is SPECS[0].
    """

    name = ""
    trace_blocks = 1
    SPECS: tuple = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def block(self, index: int) -> list:
        """Ops of block `index`, with their input files written."""
        folder = self.work / f"block{index}"
        folder.mkdir(parents=True, exist_ok=True)
        rng = self.rng(index)
        specs = list(self.SPECS)
        rng.shuffle(specs)
        return [self.make_op(rng, folder / f"op{k}", spec) for k, spec in enumerate(specs)]

    def warmup(self) -> Op:
        folder = self.work / "warmup"
        folder.mkdir(parents=True, exist_ok=True)
        return self.make_op(self.rng(-1), folder / "op", self.SPECS[0])

    def make_op(self, rng: random.Random, stem: Path, spec) -> Op:
        raise NotImplementedError


class Forward(Workload):
    """One session per op on a fresh scenario: `compare`, then `spectrum`."""

    name = "forward"
    trace_blocks = 6
    SPECS = (1001, 4001, 16001)

    def make_op(self, rng, stem, points):
        raw = draw_scenario(rng, points, rng.choice(("both", "swm", "bwm")))
        s = write_scenario(stem.with_suffix(".json"), raw)
        record = stem.with_name(stem.name + "_record.json")
        spectrum = stem.with_name(stem.name + "_spectrum.csv")
        argv = ["spectrum", "--config", str(stem.with_suffix(".json")), "--out", str(spectrum)]
        scheme = raw["scheme"]
        if scheme == "both":
            scheme = rng.choice(("swm", "bwm"))
            argv += ["--scheme", scheme]
        return Op(
            kind=f"session-{points}",
            steps=[
                Step(
                    ["compare", "--config", str(stem.with_suffix(".json")), "--out", str(record)],
                    0,
                    lambda _out: check_compare(s, record),
                ),
                Step(argv, 0, lambda _out: check_spectrum(s, scheme, spectrum)),
            ],
            outputs=[record, spectrum],
        )


class Ladder(Workload):
    """Forward model over a ladder of rates: numeric estimates and figure3."""

    name = "ladder"
    trace_blocks = 2
    # Three invertible estimates, one expected refusal (a quarter), one
    # figure3.  Each invertible estimate draws its true rate from a band
    # inside one octave of the bisection (whose stop test is relative to
    # Omega), so every block costs the same number of forward evaluations.
    SPECS = (
        ("refusal", 1501, (LADDER_SAMPLES[1], LADDER_SAMPLES[-2])),
        ("estimate", 1001, (1.55e-10, 2.8e-10)),
        ("estimate", 1501, (1.24e-9, 2.24e-9)),
        ("estimate", 2001, (4.96e-9, 5.95e-9)),
        ("figure3", 2001, None),
    )

    def make_op(self, rng, stem, spec):
        kind, points, band = spec
        config = stem.with_suffix(".json")
        if kind == "figure3":
            s = write_scenario(config, draw_scenario(rng, points, "both"))
            out_dir = stem.with_name(stem.name + "_figure3")
            return Op(
                kind=f"figure3-{points}",
                steps=[
                    Step(
                        ["figure3", "--config", str(config), "--out", str(out_dir)],
                        0,
                        lambda _out: check_figure3(s, out_dir),
                    )
                ],
                outputs=[out_dir],
            )
        while True:
            if kind == "refusal":
                scheme, raw = "bwm", draw_scenario(rng, points, "bwm", paper_literal=True)
            else:
                scheme = rng.choice(("swm", "bwm"))
                literal = False if scheme == "bwm" else None
                raw = draw_scenario(rng, points, scheme, paper_literal=literal)
            s = Scenario(raw)
            verdict = classify_ladder(s, scheme)
            if verdict == ("refused" if kind == "refusal" else "invertible"):
                break
        write_scenario(config, raw)
        # every band sits at least one calibration step inside the bracket
        omega = log_uniform(rng, *band)
        observed = float(s.exact_delta_lambda(scheme, omega))
        lo, hi, n = LADDER
        argv = [
            "estimate",
            "--config",
            str(config),
            "--method",
            "numeric",
            f"--delta-lambda-m={observed!r}",
            f"--omega-min={lo!r}",
            f"--omega-max={hi!r}",
            f"--points={n}",
        ]
        if kind == "refusal":
            return Op(kind=f"refusal-{points}", steps=[Step(argv, 3, check_refusal)])
        dp_ref = s.exact_gaussian(scheme, omega)[1]
        noise = s.dlambda_tolerance(dp_ref)
        h = 1e-3 * omega
        slope = abs(
            float(s.exact_delta_lambda(scheme, omega + h) - s.exact_delta_lambda(scheme, omega - h))
        ) / (2.0 * h)
        omega_tol = OMEGA_RTOL * omega + 2.0 * noise / slope
        residual_max = 2.0 * noise + slope * OMEGA_RTOL * omega
        return Op(
            kind=f"estimate-{points}",
            steps=[
                Step(
                    argv,
                    0,
                    lambda out: check_estimate_json(
                        out, scheme, "numeric-bisection", omega, omega_tol, residual_max
                    ),
                )
            ],
        )


class Export(Workload):
    """Analytic sweeps and analytic estimates: no spectrum is built."""

    name = "export"
    trace_blocks = 20
    SPECS = (
        ("sweep-single", 2000),
        ("sweep-single", 6000),
        ("sweep-both", 20000),
        ("estimate", 0),
        ("estimate", 0),
    )

    def make_op(self, rng, stem, spec):
        kind, points = spec
        config = stem.with_suffix(".json")
        if kind == "estimate":
            scheme = rng.choice(("swm", "bwm"))
            s = write_scenario(config, draw_scenario(rng, 4001, scheme))
            omega = log_uniform(rng, 1e-10, 1.9e-8)
            observed = float(s.analytic_delta_lambda(scheme, omega))
            argv = [
                "estimate",
                "--config",
                str(config),
                "--method",
                "analytic",
                f"--delta-lambda-m={observed!r}",
            ]
            return Op(
                kind="estimate-analytic",
                steps=[
                    Step(
                        argv,
                        0,
                        lambda out: check_estimate_json(
                            out,
                            scheme,
                            "analytic-closed-form",
                            omega,
                            ref.CLOSED_RTOL * omega,
                            ref.CLOSED_RTOL * abs(observed),
                        ),
                    )
                ],
            )
        scheme = "both" if kind == "sweep-both" else rng.choice(("swm", "bwm"))
        s = write_scenario(config, draw_scenario(rng, 4001, scheme))
        lo = log_uniform(rng, 1e-10, 1e-9)
        hi = log_uniform(rng, 2e-9, 1.9e-8)
        table = stem.with_name(stem.name + "_sweep.csv")
        argv = [
            "sweep",
            "--config",
            str(config),
            f"--omega-min={lo!r}",
            f"--omega-max={hi!r}",
            f"--points={points}",
            "--mode",
            "analytic",
            "--out",
            str(table),
        ]
        return Op(
            kind=f"{kind}-{points}",
            steps=[Step(argv, 0, lambda _out: check_sweep(s, scheme, lo, hi, points, table))],
            outputs=[table],
        )


def check_sweep(s: Scenario, scheme: str, lo: float, hi: float, points: int, path: Path) -> list:
    schemes = ("swm", "bwm") if scheme == "both" else (scheme,)
    header = (
        "omega_rad_per_s,delta_lambda_swm_m,delta_lambda_bwm_m"
        if scheme == "both"
        else "omega_rad_per_s,delta_lambda_m"
    )
    data, problems = read_csv(path, header, 1 + len(schemes))
    if data is None:
        return problems
    if data.shape[0] != points:
        return [f"sweep: {data.shape[0]} rows, expected {points}"]
    omegas = np.geomspace(lo, hi, points)
    _expect(problems, close(data[:, 0], omegas, ref.CLOSED_RTOL), "sweep: omega column")
    for column, name in enumerate(schemes, start=1):
        _expect(
            problems,
            close(data[:, column], s.analytic_delta_lambda(name, omegas), ref.CLOSED_RTOL),
            f"sweep: {name} column",
        )
    return problems


WORKLOADS = {w.name: w for w in (Forward, Ladder, Export)}
