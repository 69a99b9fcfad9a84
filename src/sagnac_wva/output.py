"""
Result persistence: deterministic CSV spectra and canonical JSON run records.

Numbers are written with 17 significant digits so parsing them back
reproduces the doubles bit for bit.  Files are written atomically
(temp-then-rename), always UTF-8 with LF line endings, so two runs of the
same scenario produce byte-identical output apart from the one timestamp
key in the JSON record.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import IoError

CSV_SPECTRUM_HEADER = "p_inv_m,lambda_m,intensity_probe,intensity_post"


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips to the same double."""
    return f"{x:.17g}"


def _atomic_write_text(path, chunks) -> None:
    """Write an iterable of text chunks in one temp-then-rename step.

    Any OS-level failure (missing directory, permissions, full disk) comes
    back as IoError.  On any failure, an exception raised by `chunks`
    included, the temp file is removed and the target is left as it was.
    """
    target = Path(path)
    tmp_name = None
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp_name, target)
        tmp_name = None
    except OSError as exc:
        raise IoError(f"cannot write {target}: {exc}") from exc
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


#: rows formatted per `%` call; bounds the transient text held in memory
CSV_CHUNK_ROWS = 2048


def _csv_chunks(header: str, columns):
    """Yield the header line, then the rows in chunks of CSV_CHUNK_ROWS.

    Each chunk is one `%.17g` pass over its values; `%.17g` and
    `format_float` share CPython's float-to-string routine, so the bytes
    equal a per-value `format_float` join (nan, inf, -0 and subnormals
    included).
    """
    table = np.column_stack(columns)
    yield header + "\n"
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], CSV_CHUNK_ROWS):
        block = table[start : start + CSV_CHUNK_ROWS]
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def write_spectrum_csv(path, probe, post_spectrum) -> None:
    """Write probe and post-selected intensities that share one grid.

    Columns: p_inv_m, lambda_m (= 2*pi/p), intensity_probe, intensity_post.
    """
    if probe.p_grid.shape != post_spectrum.p_grid.shape or not np.array_equal(
        probe.p_grid, post_spectrum.p_grid
    ):
        raise ValueError("probe and post-selected spectra must share a grid")
    columns = [
        probe.p_grid, 2.0 * np.pi / probe.p_grid, probe.intensity, post_spectrum.intensity
    ]
    _atomic_write_text(path, _csv_chunks(CSV_SPECTRUM_HEADER, columns))


def write_table_csv(path, header: str, columns) -> None:
    """Write equal-length float columns under a fixed header line."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    _atomic_write_text(path, _csv_chunks(header, columns))


@dataclass(frozen=True)
class RunRecord:
    """Everything one `compare` run produced, ready for canonical JSON."""

    config: dict
    results: dict
    discrepancy: list
    tool_version: str
    timestamp: str


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def build_run_record(config, results, discrepancy_rows) -> RunRecord:
    """Flatten engine results into plain JSON-ready values."""
    results_dict = {}
    for res in results:
        results_dict[res.scheme.value] = {
            "delta_p_numeric": res.delta_p_numeric,
            "delta_lambda_numeric": res.delta_lambda_numeric,
            "delta_p_analytic": res.delta_p_analytic,
            "delta_lambda_analytic": res.delta_lambda_analytic,
            "postselect_prob_numeric": res.postselect_prob_numeric,
            "postselect_prob_pointform": res.postselect_prob_pointform,
            "amplification_factor": res.amplification_factor,
        }
    discrepancy = [
        {
            "scheme": row.scheme.value,
            "quantity": row.quantity,
            "numeric": row.numeric,
            "analytic": row.analytic,
            # a zero analytic value against a nonzero numeric one has no
            # finite relative difference; serialize that as null
            "relative_difference": (
                row.relative_difference if math.isfinite(row.relative_difference) else None
            ),
        }
        for row in discrepancy_rows
    ]
    return RunRecord(
        config=config.to_dict(),
        results=results_dict,
        discrepancy=discrepancy,
        tool_version=__version__,
        timestamp=utc_timestamp(),
    )


def record_to_json(record: RunRecord) -> str:
    """Canonical JSON: sorted keys, two-space indent, LF, trailing newline."""
    payload = {
        "config": record.config,
        "results": record.results,
        "discrepancy": record.discrepancy,
        "tool_version": record.tool_version,
        "timestamp": record.timestamp,
    }
    return (
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


def write_results_json(path, record: RunRecord) -> None:
    """Write a run record as canonical JSON (atomic, UTF-8, LF)."""
    _atomic_write_text(path, [record_to_json(record)])
