"""
Result persistence: deterministic CSV tables and canonical JSON run records.

Numbers are written with 17 significant digits so parsing them back
reproduces the doubles bit for bit.  Every CSV table, the `spectrum`
command's included, is written by `write_table_csv` through a numpy
encoder whose bytes equal `%.17g` per value (see `_fields`).  It encodes a
table in chunks of CSV_CHUNK_VALUES values through one `_Workspace`,
allocated once per table and reused by every chunk.  Files are written
atomically (temp-then-rename), always UTF-8 with LF line endings, so two
runs of the same scenario produce byte-identical output apart from the one
timestamp key in the JSON record.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .errors import IoError, NonFiniteResult


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips to the same double."""
    return f"{x:.17g}"


def _atomic_write(path, chunks) -> None:
    """Write an iterable of byte chunks in one temp-then-rename step.

    The temp file, `<name>.<16 random hex digits>.tmp` beside the target, is
    created with mode 0o666 and the kernel takes the umask off, so the file
    gets the mode `open()` would give it.  A target that is a symbolic link
    is written through, as `open()` writes: the link is resolved, and the
    temp file and the rename go to the path it names, so the link stays a
    link (a dangling one gets its target created).  An existing target that
    is not a regular file, links followed (a FIFO, a device, a directory,
    or a link loop, which `realpath` leaves unresolved), is refused before
    the temp file is created, so the rename never replaces it.  Any OS-level failure (missing directory, permissions, full
    disk) comes back as IoError naming the target as given and the reason.
    On any failure, an exception raised by `chunks` included, the temp file
    is removed and the target is left as it was.
    """
    target = Path(path)
    # only a link is resolved: realpath walks every component of the path
    real = Path(os.path.realpath(target)) if os.path.islink(target) else target
    tmp = real.parent / f"{real.name}.{os.urandom(8).hex()}.tmp"
    created = False
    try:
        if os.path.lexists(real) and not os.path.isfile(real):
            raise OSError(None, "not a regular file")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, real)
        created = False
    except OSError as exc:
        raise IoError(f"cannot write {target}: {exc.strerror or exc}") from exc
    finally:
        if created:
            try:
                os.unlink(tmp)
            except OSError:
                pass


#: values encoded per chunk, at most.  One workspace of this many values
#: (152 bytes each, see _Workspace) serves every chunk of a table, so the
#: chunks after the first allocate nothing and fault in no fresh pages, and
#: a larger chunk pays less numpy call overhead per value; the size bounds
#: the memory a table's encoding holds
CSV_CHUNK_VALUES = 6144

# -- vectorised %.17g -------------------------------------------------------
#
# A finite nonzero |x| = m * 2**e (np.frexp, 0.5 <= m < 1) lies in decade E
# or E + 1, where E = floor(log10 2**(e-1)) = ((e-1) * 78913) >> 18 (exact
# for every double; np.log10 rounds up just below powers of ten).  It is in
# decade E + 1 exactly when m reaches the exponent's threshold: the least
# mantissa whose 17-digit rounding is 10**(E+1), found with exact integers.
# Then y = m * 2**e * 10**(16 - D) in the value's decade D rounds to its 17
# significant digits, rint(y) in [1e16, 1e17).  The scale 2**e * 10**k is a
# double-double hi + lo built from exact integers, and m * (hi + lo) is a
# Dekker product (Numer. Math. 18:224, 1971), so y is known to ~1e-14
# absolute.

#: frexp exponent of the smallest subnormal, and the count of finite exponents
_EXP_MIN = -1073
_EXP_COUNT = 1024 - _EXP_MIN + 1
#: a rounded fraction this close to 1/2 may be a tie, or rounded the wrong
#: way by the ~1e-14 error of y: such values go to format_float
_TIE_MARGIN = 1e-9
#: 2**27 + 1, Veltkamp's factor that splits a double into two 26-bit halves
_SPLIT = 134217729.0
#: per frexp exponent and decade step (column 2 * offset + step, for decade
#: E + step): the scale's hi, lo and hi's two halves; and per exponent the
#: mantissa threshold of decade E + 1, 0 until filled.  Filled lazily, for
#: the exponents the written values have
_SCALE = np.zeros((4, 2 * _EXP_COUNT))
_UP = np.zeros(_EXP_COUNT)


def _start_decade(e):
    """floor(log10 2**(e-1)) for frexp exponents e, ints or arrays."""
    return ((e - 1) * 78913) >> 18


def _fill_scale(offsets) -> None:
    """Fill _SCALE and _UP for the given exponents (offsets from _EXP_MIN)."""
    for offset in offsets.tolist():
        e = offset + _EXP_MIN
        decade = _start_decade(e)
        for step in (0, 1):
            # 2**e * 10**k = 5**k * 2**(e + k) as num / den
            k = 16 - decade - step
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
            _SCALE[:, 2 * offset + step] = (hi, lo, hi_hi, hi - hi_hi)
        # the least double m with m * 2**e * 10**(15 - decade) >= 10**16 - 1/20,
        # that is m * num / den >= (2 * 10**17 - 1) / 20
        num, den = (2 * 10**17 - 1) * den, 20 * num
        up = num / den
        a, b = up.as_integer_ratio()
        _UP[offset] = up if a * den >= num * b else math.nextafter(up, math.inf)


# Each value is built as a 32-byte field, four little-endian uint64 words;
# NUL bytes are padding, removed once the chunk is joined.  Bytes:
#   0 NUL | 1 sign | 2-6 "0.000" prefix | 7-24 the 17 digits with the point
#   inserted | 25-29 "e+308" suffix | 30 separator | 31 NUL
_FIELD = 32
#: field bytes the fallback spelling may fill: all before the separator
_TEXT = 30
#: decade of 5e-324
_DECADE_MIN = -324


class _Tables(NamedTuple):
    """The encoder's constant lookup tables; decades count from _DECADE_MIN."""

    start_decade: np.ndarray  # per frexp exponent offset: its decade E (int16)
    affixes: np.ndarray  # per decade: field words holding its prefix and suffix
    whole17: np.ndarray  # per decade: 17 * the digits written before the point
    keep: np.ndarray  # per point index (see _write_mantissa): bytes that stay,
    move: np.ndarray  # bytes that take the byte below them (past the point),
    point: np.ndarray  # and the point itself
    digits: np.ndarray  # per limb 0..9999: its 4 ASCII digits as a "<u4"
    trailing: np.ndarray  # per limb: its trailing zeros (4 for 0)


@functools.cache
def _tables() -> _Tables:
    """Build the tables on first use, so that an import which writes no CSV
    table never holds them."""
    decades = np.arange(_DECADE_MIN, 309)
    fixed = (decades >= -4) & (decades < 17)
    small = fixed & (decades < 0)  # the 0.000ddd form
    power = np.abs(decades)
    affixes = np.zeros((decades.size, _FIELD), np.uint8)
    affixes[:, 2:7] = np.frombuffer(b"0.000", np.uint8) * (
        np.arange(5) < np.where(small, 1 - decades, 0)[:, None]
    )
    suffix = affixes[:, 25:30]
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(decades < 0, ord("-"), ord("+"))
    suffix[:, 2] = np.where(power >= 100, power // 100 + ord("0"), 0)
    suffix[:, 3] = power // 10 % 10 + ord("0")
    suffix[:, 4] = power % 10 + ord("0")
    suffix *= ~fixed[:, None]
    whole_of_decade = np.where(small, 0, np.where(fixed, decades + 1, 1))

    # point index 17 * whole + zeros, for `whole` digits before the point and
    # `zeros` trailing zeros of the 17
    whole = np.arange(18)[:, None, None]
    kept = np.maximum(17 - np.arange(17)[:, None], whole)
    slot = np.arange(_FIELD)
    digit = slot - 7  # the digit a slot holds before the point goes in
    keep = (slot < 7) | ((digit >= 0) & (digit < whole)) | (slot > 24)
    move = (digit - 1 >= whole) & (digit - 1 < kept)
    point = (digit == whole) & (whole > 0) & (kept > whole)

    def words(mask, byte):
        text = np.broadcast_to(mask * np.uint8(byte), (18, 17, _FIELD))
        return text.astype(np.uint8, order="C").view("<u8").reshape(-1, 4).astype(np.uint64)

    # the four digits of every limb 0..9999, most significant first
    limb_digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    text = np.ascontiguousarray((limb_digits + np.uint8(ord("0"))).T)
    zero_runs = np.cumprod(limb_digits[::-1] == 0, axis=0, dtype=np.uint8)
    return _Tables(
        start_decade=(_start_decade(np.arange(_EXP_MIN, 1025)) - _DECADE_MIN).astype(np.int16),
        affixes=affixes.view("<u8"),
        whole17=17 * whole_of_decade,
        keep=words(keep, 0xFF),
        move=words(move, 0xFF),
        point=words(point, ord(".")),
        digits=text.view("<u4").ravel(),
        trailing=zero_runs.sum(axis=0, dtype=np.uint8),
    )


class _Workspace:
    """The work arrays one table is encoded through, reused by every chunk.

    Holds `rows` rows of len(separators) values in two allocations: a block
    of 8-byte rows, 120 bytes per value, and `text`, the values' 32-byte
    fields.  Block rows 2-9 serve one phase after another (see `_scaled`
    and `_write_mantissa`).
    """

    def __init__(self, rows: int, separators: np.ndarray):
        size = rows * separators.size
        block = np.empty((15, size))
        self.x = block[0]  # the chunk's values, row by row
        self.tie_gap = block[1]
        self.scale = block[2:6]  # hi, lo, hi_hi, hi_lo
        self.m, self.p, self.m_hi, self.m_lo = block[6:10]
        # then: the digits, their halves and lead digit, and the limbs
        self.digits = block[6].view(np.int64)
        self.halves = block[7:9].view(np.int64)
        self.lead = block[9].view(np.int64)
        self.limbs = block[2:6].view(np.intp)
        # then: the limbs' text, and two word-sized spare areas (one word
        # per value and field word)
        self.limb_text = block[6:8].view("<u4").reshape(4, size)
        self.shifted = block[2:6].view(np.uint64).reshape(size, 4)
        self.spare = block[6:10].view(np.uint64).reshape(size, 4)
        self.index = block[10].view(np.intp)
        self.decade = block[11].view(np.intp)  # counted from _DECADE_MIN
        self.separator = block[12].view(np.uint64)
        self.separator.reshape(rows, -1)[:] = separators.astype(np.uint64) << np.uint64(48)
        self.exponent = block[13].view(np.intc)[:size]
        small = block[14].view(np.uint8)
        self.flags = small[: 2 * size].view(bool).reshape(2, size)
        self.limb_zeros = small[2 * size : 6 * size].reshape(4, size)
        self.start = small[6 * size :].view(np.int16)
        self.text = bytearray(_FIELD * size)
        self.fields = np.frombuffer(self.text, np.uint8).reshape(size, _FIELD)
        self.words = self.fields.view("<u8")
        self.half_words = self.fields.view("<u4")


def _scaled(ws) -> None:
    """ws.digits = rint(y) and ws.tie_gap = 1/2 - |y - rint(y)| for
    y = m * (hi + lo), the mantissas ws.m times the scales in ws.scale."""
    m, p, m_hi, m_lo, err = ws.m, ws.p, ws.m_hi, ws.m_lo, ws.tie_gap
    hi, lo, hi_hi, hi_lo = ws.scale
    np.multiply(m, hi, out=p)
    np.multiply(m, _SPLIT, out=m_hi)
    m_hi -= np.subtract(m_hi, m, out=m_lo)
    np.subtract(m, m_hi, out=m_lo)
    # err = (m_hi*hi_hi - p) + m_hi*hi_lo + m_lo*hi_hi + m_lo*hi_lo + m*lo
    np.multiply(m_hi, hi_hi, out=err)
    err -= p
    err += np.multiply(m_hi, hi_lo, out=m_hi)
    err += np.multiply(m_lo, hi_hi, out=hi_hi)
    err += np.multiply(m_lo, hi_lo, out=hi_lo)
    err += np.multiply(m, lo, out=lo)
    y_hi = np.add(p, err, out=hi)  # an integer: y >= 1e16 > 2**53
    err += np.subtract(p, y_hi, out=p)  # the exact remainder y - y_hi
    r = np.rint(err, out=m_lo)
    np.copyto(ws.digits, y_hi, casting="unsafe")  # over m, no longer needed
    r_int = lo.view(np.int64)
    np.copyto(r_int, r, casting="unsafe")
    ws.digits += r_int
    err -= r
    np.subtract(0.5, np.abs(err, out=err), out=err)


def _significand(ws) -> None:
    """Per value of ws.x: the 17 significant digits as an integer in
    [1e16, 1e17) (ws.digits), the decade of the leading one (ws.decade,
    counted from _DECADE_MIN) and the rounded fraction's distance from a tie
    (ws.tie_gap).  ws.flags[0] marks zero and non-finite values, which are
    worked as 1.0."""
    x, m, e, index, decade = ws.x, ws.m, ws.exponent, ws.index, ws.decade
    special, up = ws.flags
    np.isfinite(x, out=special)
    special &= np.not_equal(x, 0.0, out=up)
    np.logical_not(special, out=special)
    np.abs(x, out=m)
    np.copyto(m, 1.0, where=special)
    np.frexp(m, out=(m, e))
    np.subtract(e, _EXP_MIN, out=index)
    # mode="clip" (the indices are in range) keeps np.take from buffering out
    threshold = np.take(_UP, index, out=ws.tie_gap, mode="clip")
    if not threshold.all():
        missing = np.zeros(_EXP_COUNT, bool)
        missing[index[threshold == 0.0]] = True
        _fill_scale(np.flatnonzero(missing))
        np.take(_UP, index, out=threshold, mode="clip")
    np.greater_equal(m, threshold, out=up)
    np.add(np.take(_tables().start_decade, index, out=ws.start, mode="clip"), up, out=decade)
    index <<= 1
    index += up
    np.take(_SCALE, index, axis=1, out=ws.scale, mode="clip")
    _scaled(ws)


def _write_mantissa(ws) -> None:
    """Write each value's field in ws.words from ws.digits, ws.decade and
    the sign of ws.x.  The 17 digits lose %g's trailing zeros, never those
    of an integer part, and take the point after the integer part (one
    digit in exponent notation); the 0.000ddd form has its point in the
    prefix.  The digits are written in slots 7-23, then every byte after
    the point's slot moves one slot up, past it: per point index
    17 * whole + zeros (`whole` digits before the point, `zeros` trailing
    zeros of the 17), one table row of masks says which bytes stay, which
    move and where the point goes."""
    tables = _tables()
    words, shifted, spare = ws.words, ws.shifted, ws.spare
    digits, halves, lead, limbs = ws.digits, ws.halves, ws.lead, ws.limbs
    # 17 digits = the lead digit, then limbs l0 l1 | l2 l3 of four digits
    np.floor_divide(digits, 10**8, out=halves[0])
    np.subtract(digits, np.multiply(halves[0], 10**8, out=halves[1]), out=halves[1])
    np.floor_divide(halves[0], 10**8, out=lead)
    halves[0] -= np.multiply(lead, 10**8, out=digits)
    np.floor_divide(halves, 10**4, out=limbs[0::2])
    np.subtract(halves, np.multiply(limbs[0::2], 10**4, out=limbs[1::2]), out=limbs[1::2])
    # a limb's trailing zeros count when all limbs after it are zero (4
    # trailing zeros): z3 + [z3 = 4] * (z2 + [z2 = 4] * (z1 + [z1 = 4] * z0))
    limb_zeros = np.take(tables.trailing, limbs, out=ws.limb_zeros, mode="clip")
    zeros, is_zero = limb_zeros[0], ws.flags[1]
    for later in limb_zeros[1:]:
        zeros *= np.equal(later, 4, out=is_zero)
        zeros += later
    index = np.take(tables.whole17, ws.decade, out=ws.index, mode="clip")
    index += zeros

    np.take(tables.affixes, ws.decade, axis=0, out=words, mode="clip")
    words[:, 3] |= ws.separator
    # word 0: sign and lead digit; words 1 and 2: two limbs each
    sign = np.right_shift(ws.x.view(np.uint64), 63, out=digits.view(np.uint64))
    sign *= ord("-") << 8
    lead += ord("0")
    lead <<= 56
    sign |= lead.view(np.uint64)
    words[:, 0] |= sign
    limb_text = np.take(tables.digits, limbs, out=ws.limb_text, mode="clip")
    for k, text in enumerate(limb_text, 2):
        ws.half_words[:, k] = text
    # the point: the bytes after it move one slot up
    flat, moved = words.ravel(), shifted.ravel()
    np.left_shift(flat, 8, out=moved)
    moved[1:] |= np.right_shift(flat[:-1], 56, out=spare.ravel()[1:])
    words &= np.take(tables.keep, index, axis=0, out=spare, mode="clip")
    shifted &= np.take(tables.move, index, axis=0, out=spare, mode="clip")
    words |= shifted
    words |= np.take(tables.point, index, axis=0, out=spare, mode="clip")


def _fields(ws, count: int) -> bytearray:
    """The first `count` values of ws.x as `%.17g` ASCII text, each followed
    by its column's separator.

    Equal byte for byte to a per-value `format_float` join: zero, -0,
    non-finite and near-tie values are formatted by `format_float` itself.
    """
    _significand(ws)
    _write_mantissa(ws)
    special, fallback = ws.flags
    np.less(ws.tie_gap, _TIE_MARGIN, out=fallback)
    fallback |= special
    rows = np.flatnonzero(fallback[:count])
    if rows.size:
        text = b"".join(
            format_float(v).encode("ascii").ljust(_TEXT, b"\0") for v in ws.x[rows].tolist()
        )
        ws.fields[rows, :_TEXT] = np.frombuffer(text, np.uint8).reshape(-1, _TEXT)
    ws.fields[count:] = 0  # a short last chunk: the fields left from the one before
    return ws.text.translate(None, b"\0")


def _csv_chunks(header: str, columns):
    """Yield the header line, then the rows in equal chunks of at most
    CSV_CHUNK_VALUES values, all encoded through one workspace.

    The bytes equal a per-value `format_float` join (nan, inf, -0 and
    subnormals included).
    """
    yield f"{header}\n".encode("utf-8")
    n_rows, n_cols = columns[0].size, len(columns)
    # an empty table gets one chunk of one row, which no value fills
    chunks = max(1, -(-n_rows // max(1, CSV_CHUNK_VALUES // n_cols)))
    rows = max(1, -(-n_rows // chunks))
    separators = np.full(n_cols, ord(","), np.uint8)
    separators[-1] = ord("\n")
    ws = _Workspace(rows, separators)
    table = ws.x.reshape(rows, n_cols)
    for start in range(0, n_rows, rows):
        count = min(rows, n_rows - start)
        for k, column in enumerate(columns):
            table[:count, k] = column[start : start + count]
        yield _fields(ws, count * n_cols)


def write_table_csv(path, header: str, columns) -> None:
    """Write float columns of one length under a fixed header line.

    The lengths are taken as equal, as in every table a command writes.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    _atomic_write(path, _csv_chunks(header, columns))


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def build_run_record(config, results, discrepancy_rows) -> dict:
    """Everything one `compare` run produced, as the plain dict of its JSON record.

    Keys: `config`, `results` (each scheme's result fields but `scheme`,
    under the scheme's name), `discrepancy` (each row's fields, `scheme` as
    its name), `tool_version` and `timestamp`.  A record holds no inf or
    NaN: a result field that is not finite raises NonFiniteResult naming
    the first one, in scheme order and then field order, and an infinite
    relative difference is written as null.
    """
    results_dict = {}
    for res in results:
        block = dataclasses.asdict(res)
        del block["scheme"]
        for field, value in block.items():
            if not math.isfinite(value):
                raise NonFiniteResult(f"{res.scheme.value} {field} is {value}; no record written")
        results_dict[res.scheme.value] = block
    discrepancy = []
    for row in discrepancy_rows:
        entry = dataclasses.asdict(row) | {"scheme": row.scheme.value}
        # a zero analytic value against a nonzero numeric one has no
        # finite relative difference; serialize that as null
        if not math.isfinite(row.relative_difference):
            entry["relative_difference"] = None
        discrepancy.append(entry)
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
    _atomic_write(path, [record_to_json(record).encode("utf-8")])
