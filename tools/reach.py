"""Report the executable lines of the package that the golden matrix never runs.

Usage::

    python tools/reach.py SRC

SRC is a checkout of this repository; its `src/` is imported (never an
installed copy).  The script imports the package and runs every scenario of
`tools/golden.py`'s matrix, and its one-off commands, in process under a
`sys.settrace` line tracer, each in a temporary directory removed after it.
It then prints one line per module of `src/sagnac_wva`: how many executable
lines the module has (the line numbers of its code objects' `co_lines`), how
many of them no command reached, and which.  The last line is the total.

Needs only the standard library and the package's own dependencies.  The
matrix takes about 9 s under the tracer on one core.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import golden  # noqa: E402


def executable_lines(path: Path) -> set:
    """Line numbers of every instruction of every code object compiled from `path`."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines) -> str:
    """Sorted line numbers with each run of consecutive ones as `first-last`."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/reach.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    modules = sorted((src / "src" / "sagnac_wva").glob("*.py"))
    reached = {str(path): set() for path in modules}

    def trace_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(src / "src"))
    cwd = os.getcwd()
    sys.settrace(trace_call)
    try:
        from sagnac_wva import cli

        for name, raw in golden.scenarios():
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    golden.record_scenario(cli.cli_main, Path(tmp), name, raw)
                finally:
                    os.chdir(cwd)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                golden.record_one_offs(cli.cli_main, Path(tmp))
            finally:
                os.chdir(cwd)
    finally:
        sys.settrace(None)
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported {cli.__file__}, not the checkout at {src}", file=sys.stderr)
        return 2

    total = missed = 0
    print(f"{'module':14s} {'lines':>5s} {'unreached':>9s}")
    for path in modules:
        lines = executable_lines(path)
        unreached = lines - reached[str(path)]
        total, missed = total + len(lines), missed + len(unreached)
        print(f"{path.name:14s} {len(lines):5d} {len(unreached):9d}  {spans(unreached)}")
    print(f"{'total':14s} {total:5d} {missed:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
