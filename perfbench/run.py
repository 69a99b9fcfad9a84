"""Benchmark of the sagnac-wva CLI, run in process from a source checkout.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

Load is one process, one thread, closed loop: a single caller runs each
command through `sagnac_wva.cli.cli_main(argv)`, waits for it, checks its
outputs against `reference`, then sends the next.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import os

# numpy reads these when it loads; the benchmark measures one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, PACKAGE, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
#: start no block after this many seconds from the start of the measurement
HARD_STOP_S = 140.0
COMMANDS = ("compare", "spectrum", "sweep", "estimate", "figure3")
#: seconds one speed probe takes at the reference host speed
PROBE_REF_S = 6.0e-5
#: host seconds between speed probes while the program runs
PROBE_INTERVAL_S = 0.005
#: probes run back to back before and after each op; their median counts once
BRACKET_PROBES = 8


def speed_probe() -> float:
    """Seconds taken by a fixed sample of interpreter-bound scalar work:
    float arithmetic through `math`, 17-digit float formatting and list
    building, the kind of work the program's per-node and per-rate loops
    and its CSV and JSON writers do.

    It uses no numpy: a probe of small numpy calls run inside an analytic
    sweep took 2.9x its time outside, against 1.2x for this one, because
    it depended on the allocator state the program left behind.  The
    garbage collector is paused meanwhile, so a probe that interrupts the
    program does not pay for collecting the program's young objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        parts = []
        for k in range(60):
            x = 1e-9 * (1.0 + k * 1e-3)
            y = math.sin(2.0e3 * x + 0.1) * math.exp(-x) + x * x / (1.0 + x)
            parts.append(f"{y:.17g}")
        ",".join(parts)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Measures how fast the shared host runs around and during one op.

    The host's speed switches between levels up to 2x apart, in phases
    of tens of milliseconds to tens of seconds (most likely another
    tenant sharing the core), so a timing taken alone is not comparable
    between runs.  `bracket()`, called before and after the op, times
    BRACKET_PROBES probes back to back and keeps their median.  Inside
    `with`, an interval timer interrupts the program every
    PROBE_INTERVAL_S and times one probe, so long ops are sampled
    throughout.  `factor()` is PROBE_REF_S over the mean probe time, i.e.
    reference seconds per host second, and `probe_s` is the host time the
    interrupting probes took, which callers subtract from what they
    measured.
    """

    def __init__(self):
        self.times: list = []
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.times.append(speed_probe())
        self.probe_s += time.perf_counter() - start

    def bracket(self) -> None:
        self.times.append(statistics.median(speed_probe() for _ in range(BRACKET_PROBES)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Reference seconds per host second over the probes taken so far."""
        return PROBE_REF_S / statistics.fmean(self.times)


@dataclass
class OpRecord:
    kind: str
    latency: float  # host seconds, sum of the op's cli_main calls
    scale: float  # reference seconds per host second, measured during the op
    commands: list  # (command, host seconds, refused) per step
    problems: list

    @property
    def ref_latency(self) -> float:
        """Latency at the reference host speed."""
        return self.latency * self.scale


def import_program():
    """Import sagnac_wva.cli afresh, so set-up pays the package import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(f"{PACKAGE}.cli")


def execute(cli, op, tracer=None, perturb=None) -> OpRecord:
    """Run every step of `op`, then check every output."""
    op.clear_outputs()
    speed = HostSpeed()
    speed.bracket()
    captured = []
    for step in op.steps:
        out, err = io.StringIO(), io.StringIO()
        with speed:
            probed = speed.probe_s
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.cli_main(list(step.argv))
            except Exception as exc:  # the console script would exit 1 with a traceback
                rc = 1
                err.write(f"uncaught {exc!r}")
            elapsed = time.perf_counter() - start - (speed.probe_s - probed)
        refused = tracer.fold() if tracer is not None else False
        captured.append((rc, out.getvalue(), err.getvalue(), elapsed, refused))
    speed.bracket()
    scale = speed.factor()
    if tracer is not None:
        tracer.commit(scale)
    problems = []
    for step, (rc, stdout, stderr, _, _) in zip(op.steps, captured):
        if perturb is not None:
            stdout = perturb(step, stdout)
        if rc != step.expect_rc:
            problems.append(
                f"{step.command}: exit {rc}, expected {step.expect_rc}: {stderr.strip()[:300]}"
            )
        else:
            try:
                problems += step.check(stdout)
            except Exception as exc:  # malformed output is a failed op, not a crash
                problems.append(f"{step.command}: check raised {exc!r}")
    return OpRecord(
        kind=op.kind,
        latency=sum(c[3] for c in captured),
        scale=scale,
        commands=[(s.command, c[3], c[4]) for s, c in zip(op.steps, captured)],
        problems=problems,
    )


def run_blocks(cli, workload, deadline, *, until_s=None, min_blocks=1, blocks=None,
               tracer=None, perturb=None) -> list:
    """Run whole blocks from block 0 and return their op records.

    Stops after exactly `blocks` blocks, or once `until_s` seconds have passed
    and at least `min_blocks` blocks are done, and in any case at the
    perf_counter `deadline`.
    """
    records = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() < deadline:
        if blocks is not None and index >= blocks:
            break
        if blocks is None and index >= min_blocks and time.perf_counter() - start >= until_s:
            break
        for op in workload.block(index):
            records.append(execute(cli, op, tracer, perturb))
        index += 1
    return records


def setup(workload_cls, seed, work):
    """Import, generate block 0's inputs and run one warm-up op, SETUP_REPEATS
    times; returns the median set-up time at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_program()
        workload = workload_cls(seed, work)
        workload.block(0)
        prepared = time.perf_counter() - start
        warm = execute(cli, workload.warmup())
        times.append((prepared + warm.latency) * warm.scale)
    return cli, workload, statistics.median(times), warm


def report_problems(records) -> None:
    bad = [r for r in records if r.problems]
    for record in bad[:5]:
        print(f"FAILED {record.kind}: {'; '.join(record.problems[:3])}", file=sys.stderr)


def end_to_end(records, setup_s, ok_ratio) -> dict:
    # Throughput counts each op at the median latency of its class (same
    # command and grid size), so a few ops slowed by a noisy neighbour do
    # not move it; a program-wide change moves every class.
    by_kind = defaultdict(list)
    for record in records:
        by_kind[record.kind].append(record.ref_latency)
    typical_busy = sum(len(v) * statistics.median(v) for v in by_kind.values())
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / typical_busy, "1/s"),
        "op_p50_s": (statistics.median(r.ref_latency for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }


def per_layer(untraced, traced, tracer: Tracer) -> dict:
    ops = len(traced)
    busy = sum(r.ref_latency for r in traced)
    plain = sum(r.ref_latency for r in untraced[:ops])
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    metrics = {}

    def per_op(name, value, unit):
        metrics[name] = (value / ops, unit)

    for qualname in (
        "jones.coupling_unitary",
        "jones.transition_amplitude",
        "engine.postselected_spectrum",
        "spectrum.gaussian_probe",
        "spectrum.moments",
        "sagnac.coupling_chain",
        "config.load_scenario",
        "output.format_float",
    ):
        per_op(f"{qualname}.calls", calls[qualname], "count/op")
    for qualname in (
        "engine.postselected_spectrum",
        "engine.mean_shift_numeric",
        "engine.compare_schemes",
        "spectrum.gaussian_probe",
        "spectrum.moments",
        "estimation.calibration_curve",
        "estimation.estimate_omega_numeric",
        "output.write_spectrum_csv",
        "output.write_table_csv",
        "output.record_to_json",
        "config.load_scenario",
        "cli.cli_main",
    ):
        per_op(f"{qualname}.self_s", self_s[qualname], "s/op")
    for layer in LAYERS:
        layer_s = tracer.layer_self_s(layer)
        per_op(f"{layer}.self_s", layer_s, "s/op")
        metrics[f"{layer}.self_share"] = (layer_s / busy, "ratio")
    per_op("engine.grid_nodes", counters["engine.grid_nodes"], "count/op")
    per_op("engine.computed_bytes", counters["engine.computed_bytes"], "B/op")
    per_op("estimation.forward_evals_per_op", counters["estimation.forward_evals"], "count/op")
    estimates = [c for r in traced for c in r.commands if c[0] == "estimate"]
    refusals = sum(1 for c in estimates if c[2])
    metrics["estimation.refusal_ratio"] = (refusals / len(estimates) if estimates else 0.0, "ratio")
    metrics["estimation.refusal_base"] = (len(estimates), "count")
    per_op("output.rows", counters["output.rows"], "count/op")
    per_op("output.bytes", counters["output.bytes"], "B/op")
    for command in COMMANDS:
        times = [c[1] * r.scale for r in untraced for c in r.commands if c[0] == command]
        metrics[f"cli.{command}.p50_s"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.wall_s_per_op"] = (busy / ops, "s/op")
    metrics["trace.overhead_s_per_op"] = ((busy - plain) / ops, "s/op")
    metrics["trace.overhead_ratio"] = (busy / plain - 1.0, "ratio")
    metrics["trace.host_speed"] = (statistics.median(r.scale for r in untraced + traced), "ratio")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, perturb=None):
    deadline = time.perf_counter() + HARD_STOP_S
    workload_cls = WORKLOADS[name]
    cli, workload, setup_s, warm = setup(workload_cls, seed, work)
    if not trace:
        records = run_blocks(cli, workload, deadline, until_s=seconds, perturb=perturb)
        everything = [warm] + records
        failed = sum(1 for r in everything if r.problems)
        metrics = end_to_end(records, setup_s, 1.0 - failed / len(everything))
    else:
        # untraced first, over at least the blocks the traced pass repeats
        untraced = run_blocks(
            cli, workload, deadline, until_s=seconds / 2.0, min_blocks=workload_cls.trace_blocks
        )
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_blocks(cli, workload, deadline, blocks=workload_cls.trace_blocks, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, tracer)
        everything = [warm] + untraced + traced
    report_problems(everything)
    failed = sum(1 for r in everything if r.problems)
    print(
        f"perfbench {name}: {len(everything)} ops, host speed factor "
        f"{statistics.median(r.scale for r in everything):.3f}, "
        f"raw op p50 {statistics.median(r.latency for r in everything):.4g} s",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_source_tree() -> bool:
    """Put the checkout's src/ first on sys.path; False if it holds no package."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        return 2
    with work_dir(args.workload) as work:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
