"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one block of each workload as the benchmark does, first untouched,
then with one deliberately perturbed output per case (a value nudged past
its tolerance, a CSV row dropped, a refusal that prints a result).  Passes
when every untouched run has ok_ratio 1 and every perturbed run has
failed > 0, i.e. a wrong program reads as failures, not as a gain.
Exits 0 on pass, 1 on fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SEED = 7


def _out_path(step) -> Path:
    return Path(step.argv[step.argv.index("--out") + 1])


def nudge_delta_p(step, stdout):
    """Scale both numeric delta_p values of a compare record by 1 + 1e-4."""
    if step.command == "compare":
        path = _out_path(step)
        record = json.loads(path.read_text(encoding="utf-8"))
        for result in record["results"].values():
            result["delta_p_numeric"] *= 1.0 + 1e-4
        path.write_text(json.dumps(record), encoding="utf-8")
    return stdout


def drop_csv_row(step, stdout):
    """Remove one data row from the middle of a spectrum or sweep CSV."""
    if step.command in ("spectrum", "sweep"):
        path = _out_path(step)
        lines = path.read_text(encoding="utf-8").split("\n")
        del lines[len(lines) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
    return stdout


def nudge_omega(step, stdout):
    """Scale a printed omega estimate by 1 + 1e-4 (numeric) or 1 + 1e-9 (analytic)."""
    if step.command == "estimate" and stdout:
        payload = json.loads(stdout)
        factor = 1e-4 if payload["method"] == "numeric-bisection" else 1e-9
        payload["omega_hat_rad_per_s"] *= 1.0 + factor
        stdout = json.dumps(payload)
    return stdout


def answer_refusal(step, stdout):
    """Make an expected refusal print an estimate, as a silent wrong answer would."""
    if step.command == "estimate" and step.expect_rc == 3:
        stdout = json.dumps({"omega_hat_rad_per_s": 1e-9})
    return stdout


def nudge_figure3_probability(step, stdout):
    """Scale the bwm numeric probability column of figure3 by 1 + 1e-4."""
    if step.command == "figure3":
        path = _out_path(step) / "postselection_probability_sweep.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        for k in range(1, len(lines) - 1):
            cells = lines[k].split(",")
            cells[2] = repr(float(cells[2]) * (1.0 + 1e-4))
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
    return stdout


CASES = (
    ("forward", nudge_delta_p),
    ("forward", drop_csv_row),
    ("ladder", nudge_omega),
    ("ladder", answer_refusal),
    ("ladder", nudge_figure3_probability),
    ("export", drop_csv_row),
    ("export", nudge_omega),
)


def one_block(workload: str, perturb=None) -> dict:
    with run.work_dir(f"selftest-{workload}") as work:
        return run.measure(workload, SEED, 0.0, False, work, perturb=perturb)


def main() -> int:
    if not run.use_source_tree():
        return 1
    passed = True
    for workload in ("forward", "ladder", "export"):
        result = one_block(workload)
        ok = result["correct"] and result["metrics"]["ok_ratio"]["value"] == 1.0
        passed &= ok
        print(f"{'ok ' if ok else 'BAD'} {workload} untouched: failed {result['failed']}/{result['attempted']}")
    for workload, perturb in CASES:
        result = one_block(workload, perturb)
        ok = result["failed"] > 0 and result["metrics"]["ok_ratio"]["value"] < 1.0
        passed &= ok
        print(
            f"{'ok ' if ok else 'BAD'} {workload} {perturb.__name__}: "
            f"failed {result['failed']}/{result['attempted']}, "
            f"ok_ratio {result['metrics']['ok_ratio']['value']:.3f}"
        )
    print("selftest passed" if passed else "selftest FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
