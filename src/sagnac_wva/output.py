"""
Result persistence: deterministic CSV spectra and canonical JSON run records.

Numbers are written with 17 significant digits so parsing them back
reproduces the doubles bit for bit; CSV tables go through a numpy encoder
whose bytes equal `%.17g` per value (see `_fields`).  Files are written
atomically (temp-then-rename), always UTF-8 with LF line endings, so two
runs of the same scenario produce byte-identical output apart from the one
timestamp key in the JSON record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
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

    The file gets the mode `open()` would give it, 0o666 less the umask.
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
        umask = os.umask(0)  # the only way to read it; set straight back
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
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


#: rows encoded per pass: bounds the transient arrays a pass holds (about
#: 160 bytes per value); larger chunks run no faster
CSV_CHUNK_ROWS = 1024

# -- vectorised %.17g -------------------------------------------------------
#
# A finite nonzero |x| = m * 2**e (np.frexp, 0.5 <= m < 1) lies in decade E
# or E + 1, where E = floor(log10 2**(e-1)) = ((e-1) * 78913) >> 18 (exact
# for every double; np.log10 rounds up just below powers of ten).  Then
# y = m * 2**e * 10**(16 - E) lies in [1e16, 2e17): the 17 significant
# digits are rint(y), or rint(y / 10) in decade E + 1 when rint(y) reaches
# 1e17.  The scale 2**e * 10**k is a double-double hi + lo built from exact
# integers, and m * (hi + lo) is a Dekker product (Numer. Math. 18:224,
# 1971), so y is known to ~1e-14 absolute.

#: frexp exponent of the smallest subnormal, and the count of finite exponents
_EXP_MIN = -1073
_EXP_COUNT = 1024 - _EXP_MIN + 1
#: a rounded fraction this close to 1/2 may be a tie, or rounded the wrong
#: way by the ~1e-14 error of y: such values go to format_float
_TIE_MARGIN = 1e-9
#: 2**27 + 1, Veltkamp's factor that splits a double into two 26-bit halves
_SPLIT = 134217729.0
#: per decade step (E, E + 1): the scale's hi, lo and hi's two halves, per
#: frexp exponent; filled lazily, for the exponents the written values have
_SCALE = np.zeros((2, 4, _EXP_COUNT))
_SCALE_READY = np.zeros(_EXP_COUNT, dtype=bool)


def _start_decade(e):
    """floor(log10 2**(e-1)) for frexp exponents e, ints or arrays."""
    return ((e - 1) * 78913) >> 18


def _fill_scale(offsets) -> None:
    """Fill _SCALE for the given exponents (offsets from _EXP_MIN)."""
    for offset in offsets.tolist():
        e = offset + _EXP_MIN
        decade = _start_decade(e)
        for step, k in enumerate((16 - decade, 15 - decade)):
            # 2**e * 10**k = 5**k * 2**(e + k) as num / den
            num, den = (5**k, 1) if k >= 0 else (1, 5**-k)
            if e + k >= 0:
                num <<= e + k
            else:
                den <<= -(e + k)
            hi = num / den  # int / int true division is correctly rounded
            a, b = hi.as_integer_ratio()
            lo = (num * b - a * den) / (den * b)
            t = _SPLIT * hi
            hi_hi = t - (t - hi)
            _SCALE[step, :, offset] = (hi, lo, hi_hi, hi - hi_hi)
    _SCALE_READY[offsets] = True


def _scaled(m, offset, step):
    """rint(y) and 1/2 - |y - rint(y)| for y = m * 2**e * 10**k (k per step).

    Computed in place where it can be: these arrays are most of the
    transient memory a chunk needs.
    """
    hi, lo, hi_hi, hi_lo = np.take(_SCALE[step], offset, axis=1)
    p = m * hi
    m_hi = _SPLIT * m
    m_hi -= m_hi - m
    m_lo = m - m_hi
    # err = (m_hi*hi_hi - p) + m_hi*hi_lo + m_lo*hi_hi + m_lo*hi_lo + m*lo
    err = m_hi * hi_hi
    err -= p
    err += np.multiply(m_hi, hi_lo, out=m_hi)
    err += np.multiply(m_lo, hi_hi, out=hi_hi)
    err += np.multiply(m_lo, hi_lo, out=hi_lo)
    err += np.multiply(m, lo, out=lo)
    y_hi = p + err  # an integer: y >= 1e16 > 2**53
    err += np.subtract(p, y_hi, out=p)  # the exact remainder y - y_hi
    r = np.rint(err)
    digits = y_hi.astype(np.int64)
    digits += r.astype(np.int64)
    err -= r
    return digits, 0.5 - np.abs(err, out=err)


def _significand(magnitude):
    """17 significant digits as an integer in [1e16, 1e17), the decade of the
    leading one, and the rounded fraction's distance from a tie, per value
    of a finite positive array."""
    m, e = np.frexp(magnitude)
    offset = e - _EXP_MIN
    wanted = np.zeros(_EXP_COUNT, bool)
    wanted[offset] = True
    missing = np.flatnonzero(wanted > _SCALE_READY)
    if missing.size:
        _fill_scale(missing)
    decade = _start_decade(e)
    digits, tie_gap = _scaled(m, offset, 0)
    up = np.flatnonzero(digits >= 10**17)
    if up.size:
        digits[up], gap = _scaled(m[up], offset[up], 1)
        tie_gap[up] = np.minimum(tie_gap[up], gap)
        decade[up] += 1
    return digits, decade, tie_gap


def _notation(decade):
    """%g's choice per decade: fixed notation for -4..16, and within it the
    0.000ddd form for -4..-1; exponent notation otherwise."""
    fixed = (decade >= -4) & (decade < 17)
    return fixed, fixed & (decade < 0)


# Each value is built as a 30-byte field, one slot per row of a
# (30, values) array that is transposed at the end; NUL bytes are padding,
# removed once the chunk is joined.  Slots:
#   sign | "0.000" prefix | 18 mantissa bytes | "e+308" suffix | separator
_FIELD = 30
_SLOT = np.arange(18, dtype=np.uint8)[:, None]


def _write_mantissa(mantissa, significand, decade) -> None:
    """Write the 18 mantissa rows of each value's field: the 17 digits with
    %g's trailing zeros stripped and the point after the integer part."""
    n = significand.size
    high = significand // 10**8
    low = significand - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    limbs = np.empty((4, n), np.uint16)
    for j, half in ((0, high), (2, low)):
        top = half // 10**4
        limbs[j] = top
        limbs[j + 1] = half - top * 10**4
    # a zero row above and below the digits serves the shift for the point;
    # digit k of limb j goes to row 2 + 4 * j + k
    padded = np.empty((19, n), np.uint8)
    padded[0] = padded[18] = 0
    padded[1] = lead
    by_limb = padded[2:18].reshape(4, 4, n)
    tens = limbs // 10
    by_limb[:, 3] = limbs - tens * 10
    hundreds = tens // 10
    by_limb[:, 2] = tens - hundreds * 10
    thousands = hundreds // 10
    by_limb[:, 1] = hundreds - thousands * 10
    by_limb[:, 0] = thousands
    # trailing zeros: within each limb, then across the limbs
    zero = by_limb == 0
    run = zero[:, 3].copy()
    limb_zeros = run.astype(np.uint8)
    for k in (2, 1, 0):
        run &= zero[:, k]
        limb_zeros += run
    zeros = limb_zeros[3].copy()
    run = limb_zeros[3] == 4
    for j in (2, 1, 0):
        zeros += run * limb_zeros[j]
        run &= limb_zeros[j] == 4
    padded[1:18] += ord("0")

    # strip trailing zeros, never those of an integer part; the point goes
    # after the integer part (one digit in exponent notation), or, for
    # 0.000ddd, sits in the prefix and not here (slot 17)
    fixed, small = _notation(decade)
    whole = np.where(small, 0, np.where(fixed, decade + 1, 1)).astype(np.uint8)
    kept = np.maximum(17 - zeros, whole)
    point = np.where(small, 17, whole)
    padded[1:18] *= _SLOT[:17] < kept
    # the digits before the point stay, those after it move down one slot
    np.multiply(padded[1:], _SLOT < point, out=mantissa)
    padded[:-1] *= _SLOT > point
    mantissa += padded[:-1]
    mantissa[point, np.arange(n)] = (kept > point) * ord(".")


def _affix_table(decades):
    """(10, decades) bytes: the "0.000" prefix (rows 0-4) and the "e+308"
    suffix (rows 5-9) of each decade's %.17g spelling, NUL where unused."""
    fixed, small = _notation(decades)
    power = np.abs(decades)
    table = np.zeros((10, decades.size), np.uint8)
    table[:5] = np.frombuffer(b"0.000", np.uint8)[:, None] * (
        np.arange(5)[:, None] < np.where(small, 1 - decades, 0)
    )
    table[5] = ord("e")
    table[6] = np.where(decades < 0, ord("-"), ord("+"))
    table[7] = np.where(power >= 100, power // 100 + ord("0"), 0)
    table[8] = power // 10 % 10 + ord("0")
    table[9] = power % 10 + ord("0")
    table[5:] *= ~fixed
    return table


#: decade of 5e-324, and each decade's prefix and suffix bytes
_DECADE_MIN = -324
_AFFIXES = _affix_table(np.arange(_DECADE_MIN, 309))


def _fields(block: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """(30, values) NUL-padded `%.17g` fields of a (rows, cols) float block,
    each value followed by its column's separator.

    Without the NULs, equal byte for byte to a per-value `format_float`
    join: zero, -0, non-finite and near-tie values are formatted by
    `format_float` itself.
    """
    x = block.ravel()
    regular = np.isfinite(x) & (x != 0.0)
    significand, decade, tie_gap = _significand(np.where(regular, np.abs(x), 1.0))
    fields = np.empty((_FIELD, x.size), np.uint8)
    fields[0] = np.signbit(x) * ord("-")
    affixes = np.take(_AFFIXES, decade - _DECADE_MIN, axis=1)
    fields[1:6] = affixes[:5]
    _write_mantissa(fields[6:24], significand, decade)
    fields[24:29] = affixes[5:]
    fields[29].reshape(block.shape)[:] = separators

    fallback = np.flatnonzero(~regular | (tie_gap < _TIE_MARGIN))
    if fallback.size:
        text = b"".join(
            format_float(v).encode("ascii").ljust(_FIELD - 1, b"\0")
            for v in x[fallback].tolist()
        )
        fields[:-1, fallback] = np.frombuffer(text, np.uint8).reshape(-1, _FIELD - 1).T
    return fields


def _csv_chunks(header: str, columns):
    """Yield the header line, then the rows in chunks of CSV_CHUNK_ROWS.

    The bytes equal a per-value `format_float` join (nan, inf, -0 and
    subnormals included).
    """
    table = np.column_stack(columns)
    yield header + "\n"
    separators = np.full(table.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    for start in range(0, table.shape[0], CSV_CHUNK_ROWS):
        # one expression, so each intermediate is freed once the next is made
        yield (
            _fields(table[start : start + CSV_CHUNK_ROWS], separators)
            .T.tobytes()
            .translate(None, b"\0")
            .decode("ascii")
        )


def write_spectrum_csv(path, probe, intensity) -> None:
    """Write the probe and a post-selected intensity on the probe's grid.

    Columns: p_inv_m, lambda_m (= 2*pi/p), intensity_probe, intensity_post.
    """
    columns = [probe.p_grid, 2.0 * np.pi / probe.p_grid, probe.intensity, intensity]
    _atomic_write_text(path, _csv_chunks(CSV_SPECTRUM_HEADER, columns))


def write_table_csv(path, header: str, columns) -> None:
    """Write equal-length float columns under a fixed header line."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    _atomic_write_text(path, _csv_chunks(header, columns))


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def build_run_record(config, results, discrepancy_rows) -> dict:
    """Everything one `compare` run produced, as the plain dict of its JSON record.

    Keys: `config`, `results` (each scheme's result fields but `scheme`,
    under the scheme's name), `discrepancy`, `tool_version` and `timestamp`.
    """
    results_dict = {}
    for res in results:
        block = dataclasses.asdict(res)
        del block["scheme"]
        results_dict[res.scheme.value] = block
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
    return {
        "config": config.to_dict(),
        "results": results_dict,
        "discrepancy": discrepancy,
        "tool_version": __version__,
        "timestamp": utc_timestamp(),
    }


def record_to_json(record: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, LF, trailing newline."""
    return (
        json.dumps(record, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


def write_results_json(path, record: dict) -> None:
    """Write a run record as canonical JSON (atomic, UTF-8, LF)."""
    _atomic_write_text(path, [record_to_json(record)])
