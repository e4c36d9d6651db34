"""On-disk formats: raw binary signals, CSV signals, key-value text.

Raw binary layout (little endian):
  bytes 0..27   header: magic "ICDX", version u32, channels u32,
                length u64, sample_rate f64
  bytes 28..63  zero padding (header block is a fixed 64 bytes)
  bytes 64..    float64 samples, channel-interleaved frames:
                ch0[0], ch1[0], ..., ch0[1], ch1[1], ...

CSV signals carry a "# sample_rate_hz = <value>" comment, a header row
"t,ch0,ch1,...", and one row per frame. Values use %.17g so float64
round-trips exactly. The writer lays that text out with numpy
(_format_rows): where numpy's long double is the x87 80-bit or the IEEE
binary128 format, each value's 17 digits come from one extended-precision
product, and only the values it cannot certify (zeros, subnormals, |x|
outside about [1e-11, 1e44], near ties) go through Python's %.

The key-value text format is line oriented: "key = value" pairs, "#"
full-line comments, blank lines ignored. Readers report the offending
line number on malformed input. Infinite metric values are written as
the tokens neg-inf / pos-inf, never as bare floats.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import format_metric_value, parse_metric_value
from .signalgen import Adopted, MultichannelSignal

__all__ = [
    "ConfigError",
    "FormatError",
    "read_kv",
    "read_signal",
    "write_kv",
    "write_signal",
]

MAGIC = b"ICDX"
VERSION = 1
_HEADER = struct.Struct("<4sIIQd")
HEADER_SIZE = 64
# Rows per formatted chunk in the CSV writer and per parse in the reader:
# their digit arrays, text and parsed tables are O(chunk).
_CSV_CHUNK_ROWS = 8192
# Frames per readinto or write of raw samples: the interleaved copy is O(chunk).
_RAW_CHUNK_FRAMES = 2**16

# The %.17g kernel's constants, derived from the long double format (see _format_rows).
_LONG = np.finfo(np.longdouble)
# 10^k = 2^k 5^k is exact while 5^k fits the significand: k <= 27 for the 64-bit one.
_POW_MAX = max(k for k in range(64) if (5**k).bit_length() <= _LONG.nmant + 1)
_POW10 = np.cumprod([1] + [10] * _POW_MAX, dtype=np.longdouble)
# Half an ulp of a product in [2^56, 2^57), which holds [1e16, 1e17): 2^-8 for the 64-bit one.
_TIE_MARGIN = 2.0 ** (55 - _LONG.nmant)
# The x87 80-bit and IEEE binary128 formats, the two with 15 exponent bits, round each
# product once; a plain double (margin 8) or IBM double-double long double does not.
_KERNEL = _LONG.nexp == 15 and _TIE_MARGIN < 0.5
# Each value's text sits in one 32-byte slot: byte 0 its separator, bytes 8..23 its
# last 16 digits as four uint32 words from _QUADS, bytes 24..27 any "e+XX" suffix.
_SLOT = 32
_QUADS = np.frombuffer(("%04d" * 10000 % tuple(range(10000))).encode(), np.uint32)
_QUAD_ZEROS = np.array([4 - len(("%04d" % i).rstrip("0")) for i in range(10000)], np.intp)
# Bytes 0..7 by layout and lead digit: "d." before the digits for the exponent form,
# the lead digit at byte 7 for the fixed form (its integer part moves left one byte
# to make room for the point), "0.", zeros and the lead digit for 1e-4 <= |x| < 1.
_PREFIXES = np.frombuffer(b"".join(
    (form % d).rjust(8) for form in (b"-%d.", b"-?%d", b"-0.%d", b"-0.0%d", b"-0.00%d",
                                     b"-0.000%d") for d in range(10)), np.uint64)
# Byte masks by key (first, last, exponent form): the separator, first..last, "e+XX".
_COLUMNS = np.arange(_SLOT)
_MASKS = ((_COLUMNS == 0)
          | (_COLUMNS >= np.arange(7)[:, None, None, None])
          & (_COLUMNS <= np.arange(25)[:, None, None])
          | (_COLUMNS >= 24) & (_COLUMNS < 28) & np.array([False, True])[:, None]
          ).reshape(-1, _SLOT).view(np.dtype((np.void, _SLOT))).ravel()


class FormatError(ValueError):
    """A signal file violates the binary or CSV layout."""


class ConfigError(ValueError):
    """A key-value file is malformed or holds an invalid value.

    line is the 1-based offending line number when known, else 0.
    """

    def __init__(self, message: str, path: str | Path | None = None, line: int = 0):
        where = f"{path}:{line}: " if path and line else (f"{path}: " if path else "")
        super().__init__(f"{where}{message}")
        self.path = str(path) if path is not None else None
        self.line = line


def write_signal(path: str | Path, signal: MultichannelSignal) -> None:
    """Write a signal, choosing CSV for .csv paths and raw binary otherwise."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(path, signal)
    else:
        _write_raw(path, signal)


def read_signal(path: str | Path) -> MultichannelSignal:
    """Read a signal written by write_signal, dispatching on the suffix.

    Samples MultichannelSignal rejects (non-finite ones), and CSV bytes
    that do not decode as text, raise FormatError.
    """
    path = Path(path)
    reader = _read_csv if path.suffix.lower() == ".csv" else _read_raw
    try:
        data, rate = reader(path)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {_not_text(exc)}") from exc
    try:
        return MultichannelSignal(Adopted(data), rate)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _not_text(exc: UnicodeDecodeError) -> str:
    # exc.start counts from the decoder's buffer, not the file, so it is not named.
    return f"not text: byte 0x{exc.object[exc.start]:02x} does not decode as {exc.encoding}"


def _write_raw(path: Path, signal: MultichannelSignal) -> None:
    header = _HEADER.pack(
        MAGIC, VERSION, signal.channels, signal.length, signal.sample_rate)
    frames = np.empty((min(_RAW_CHUNK_FRAMES, signal.length), signal.channels), "<f8")
    with open(path, "wb") as fh:
        fh.write(header.ljust(HEADER_SIZE, b"\0"))
        for start in range(0, signal.length, _RAW_CHUNK_FRAMES):
            block = signal.data[:, start:start + _RAW_CHUNK_FRAMES]
            chunk = frames[:block.shape[1]]
            # One strided column per channel: for 2 or 3 channels about twice as fast
            # as copying the transposed block.
            for column, row in zip(chunk.T, block):
                column[...] = row
            fh.write(chunk)


def _read_raw(path: Path) -> tuple[np.ndarray, float]:
    """(channel-major samples, rate); the samples are a fresh array no one else holds."""
    with open(path, "rb") as fh:
        block = fh.read(HEADER_SIZE)
        if len(block) != HEADER_SIZE:
            raise FormatError(f"{path}: truncated header ({len(block)} bytes)")
        magic, version, channels, length, rate = _HEADER.unpack_from(block)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if channels < 1 or length < 1:
            raise FormatError(f"{path}: invalid shape {channels} x {length}")
        if not (math.isfinite(rate) and rate > 0):
            raise FormatError(f"{path}: invalid sample rate {rate!r}")
        # Sized from the file before anything is allocated: a corrupt
        # length must not become a huge allocation.
        payload = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        expected = channels * length * 8
        if payload != expected:
            raise FormatError(f"{path}: payload is {payload} bytes, header implies {expected}")
        data = np.empty((channels, length))
        frames = np.empty((min(_RAW_CHUNK_FRAMES, length), channels), "<f8")
        for start in range(0, length, _RAW_CHUNK_FRAMES):
            chunk = frames[:min(_RAW_CHUNK_FRAMES, length - start)]
            if fh.readinto(chunk) != chunk.nbytes:
                raise FormatError(f"{path}: payload truncated while reading")
            data[:, start:start + chunk.shape[0]] = chunk.T
    return data, rate


def _write_csv(path: Path, signal: MultichannelSignal) -> None:
    header = "t," + ",".join(f"ch{i}" for i in range(signal.channels))
    with open(path, "wb") as fh:
        fh.write(f"# sample_rate_hz = {signal.sample_rate!r}\n{header}\n".encode())
        # The bytes np.savetxt(fmt="%.17g") writes, formatted a chunk of rows at a time.
        for start in range(0, signal.length, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, signal.length)
            t = np.arange(start, stop) / signal.sample_rate
            fh.write(_format_rows(np.column_stack([t, signal.data[:, start:stop].T])))


def _format_rows(table: np.ndarray) -> bytes:
    """The bytes of (row * rows) % tuple(table.ravel().tolist()), row = "%.17g,...%.17g\n".

    Each value's 17 digits come from _seventeen_digits, in order of its
    decimal exponent X, so every layout fills contiguous slices: fixed for
    -4 <= X < 17, else d.ddde+XX, with trailing zeros and a bare point
    dropped. The values it cannot certify go through one "%-24.17g" % per
    chunk, %.17g padded to 24 bytes. Where the long double cannot certify
    any (_KERNEL false), the whole table goes through the % row format.
    """
    rows, cols = table.shape
    if not _KERNEL:
        row = ",".join(["%.17g"] * cols) + "\n"
        return ((row * rows) % tuple(table.ravel().tolist())).encode()
    n = table.size
    order, groups, digits = _seventeen_digits(table.ravel())
    values = table.ravel()[order]
    fallback = np.flatnonzero(digits == 0)
    digits[fallback] = 10**16  # any 17 digits: their text is replaced below

    head, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(head, 10**8)
    quads = np.stack(np.divmod(np.stack([high, low], axis=1), 10**4), axis=2).reshape(n, 4)
    zeros = _QUAD_ZEROS[quads[:, 3]]  # trailing zeros of the 17 digits
    open_ = np.flatnonzero(quads[:, 3] == 0)
    for k in (2, 1, 0):
        zeros[open_] += _QUAD_ZEROS[quads[open_, k]]
        open_ = open_[quads[open_, k] == 0]
    slots = np.empty((n, _SLOT), np.uint8)
    slots.view(np.uint32)[:, 2:6] = _QUADS[quads]
    # key = (first, last, exponent form): the text is bytes first..last, then any suffix
    key = np.empty(n, np.intp)
    unsigned = values >= 0
    for a, b, x in groups:
        part = slots[a:b]
        if x > 16 or x < -4:  # d.ddd: last 6 keeps only d
            layout, first, keep, short = 0, 5, 16, 6
            part.view(np.uint32)[:, 6] = np.frombuffer(b"e%+03d" % x, np.uint32)[0]
        elif x >= 0:  # the integer part moves left over byte 6, the point follows it
            layout, first, keep, short = 1, 5, 16 - x, 6 + x
        else:  # 0.000ddd: always some digit after the point
            layout, first, keep, short = 1 - x, 5 + x, 17, 0
        part.view(np.uint64)[:, 0] = _PREFIXES[10 * layout + lead[a:b]]
        if layout == 1:
            part[:, 6:7 + x] = part[:, 7:8 + x]
            part[:, 7 + x] = ord(".")
        last = np.where(zeros[a:b] < keep, 23 - zeros[a:b], short)
        key[a:b] = ((first + unsigned[a:b]) * 25 + last) * 2 + (layout == 0)
    if fallback.size:
        text = ("%-24.17g" * fallback.size) % tuple(values[fallback].tolist())
        block = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
        slots[fallback, 1:25] = block
        key[fallback] = (25 + np.count_nonzero(block != ord(" "), axis=1)) * 2
    inverse = np.empty(n, np.intp)
    inverse[order] = np.arange(n)
    slots = slots.view(_MASKS.dtype).ravel().take(inverse).view(np.uint8).reshape(rows, cols, -1)
    slots[:, :, 0] = ord(",")
    slots[:, 0, 0] = ord("\n")
    # Each value follows its separator, so the chunk's first byte is its last newline.
    text = slots[_MASKS.take(key.take(inverse)).view(bool).reshape(slots.shape)]
    return np.roll(text, -1).tobytes()


def _seventeen_digits(values: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]],
                                                    np.ndarray]:
    """(order, groups, digits) for a 1-D float64 array, where _KERNEL holds.

    values[order] runs in groups (a, b, X) of one decimal exponent X, and
    digits[i] is the 17 correctly rounded significant digits D of
    values[order][i] (10^16 <= D < 10^17), or 0 where they are not
    certified: zeros, subnormals, X outside [16 - _POW_MAX, 16 + _POW_MAX]
    and near ties.

    %.17g prints D = round(|x| 10^s), s = 16 - X, rounding half to even.
    That product is formed as p = |x| * 10^s (or |x| / 10^-s) in long
    double: |x| and 10^|s| <= 10^_POW_MAX are exact, so p carries one
    rounding, at most half an ulp, _TIE_MARGIN, below 2^57 > 10^17. X
    comes from a float log10, which can be one off next to a power of
    ten, so D is certified only when floor(p) >= 10^16 and round(p) < 10^17:
    if X is then one too high, |x| 10^s lies within _TIE_MARGIN below
    10^16, and its true 17 digits round up to 10^16 at X as well. round(p) is
    round(|x| 10^s) unless p lies within _TIE_MARGIN of a half-integer.
    There, an exact tie |x| 10^s = k + 1/2 holds iff |x| 2^(s+1) is odd:
    5^s is odd for s >= 0, and for s < 0 a tie would need an |x| >= 10^17
    with more than 53 significant bits. A tie rounds half to even; any
    other value that near is left uncertified.
    """
    with np.errstate(divide="ignore"):  # log10(0) = -inf: out of range
        exp10 = np.floor(np.log10(np.abs(values)))
    in_range = np.abs(16.0 - exp10) <= _POW_MAX
    exp10 = np.where(in_range, exp10, 16.0).astype(np.int16)
    order = np.argsort(exp10, kind="stable")
    exp10, in_range = exp10[order], in_range[order]
    edges = [0, *(np.flatnonzero(np.diff(exp10)) + 1).tolist(), values.size]
    groups = [(a, b, int(exp10[a])) for a, b in zip(edges[:-1], edges[1:])]
    mag = np.where(in_range, np.abs(values[order]), 1.0)
    p = mag.astype(np.longdouble)
    for a, b, x in groups:
        if x <= 16:
            p[a:b] *= _POW10[16 - x]
        else:
            p[a:b] /= _POW10[x - 16]
    floor = p.astype(np.uint64)
    frac = (p - floor).astype(np.float64)  # keeps its side of 0.5, and 0.5 itself
    digits = floor + (frac > 0.5)
    near = np.flatnonzero(np.abs(frac - 0.5) <= _TIE_MARGIN)
    s = 16 - exp10[near].astype(np.intp)
    tie = (s >= 0) & (np.fmod(np.ldexp(mag[near], s + 1), 2.0) == 1.0)
    digits[near[tie]] += floor[near[tie]] & 1
    certified = in_range & (floor >= 10**16) & (digits < 10**17)
    certified[near[~tie]] = False
    return order, groups, np.where(certified, digits, 0)


def _read_csv(path: Path) -> tuple[np.ndarray, float]:
    """(channel-major samples, rate); the samples are a fresh array no one else holds.

    The rows after the header are counted first, then parsed
    _CSV_CHUNK_ROWS lines at a time into one array of that many columns,
    so the scratch memory is O(chunk), not a copy of the file.
    """
    rate = None
    with open(path, "r") as fh:
        lineno = 0
        while True:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: missing 't,ch0,...' header row")
            lineno += 1
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text.lstrip("#").strip()
                if body.startswith("sample_rate_hz"):
                    _, _, token = body.partition("=")
                    try:
                        rate = float(token.strip())
                    except ValueError as exc:
                        raise FormatError(f"{path}: bad sample_rate_hz comment") from exc
                continue
            if text.startswith("t,"):
                columns = text.count(",") + 1
                break
            raise FormatError(f"{path}: line {lineno} is neither comment nor header")
        body_start = fh.tell()
        capacity, last = 0, "\n"
        for block in iter(lambda: fh.read(1 << 20), ""):
            capacity += block.count("\n")
            last = block[-1]
        capacity += last != "\n"  # a last line with no newline
        fh.seek(body_start)
        data = np.empty((columns - 1, capacity))
        rows = 0
        head_times: list[float] = []
        while lines := list(itertools.islice(fh, _CSV_CHUNK_ROWS)):
            start, lineno = lineno + 1, lineno + len(lines)
            try:
                with warnings.catch_warnings():  # a chunk of blank lines: no rows, no warning
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(lines, delimiter=",", ndmin=2)
            except ValueError as exc:
                _check_columns(path, lines, start, columns)
                raise FormatError(f"{path}: malformed numeric row: {exc} "
                                  f"(chunk starting at line {start})") from exc
            if not table.shape[0]:
                continue
            if not rows and table.shape[1] < 2:
                raise FormatError(f"{path}: need a time column plus at least one channel")
            if table.shape[1] != columns:
                _check_columns(path, lines, start, columns)
            data[:, rows:rows + table.shape[0]] = table[:, 1:].T
            rows += table.shape[0]
            head_times.extend(table[:2 - len(head_times), 0].tolist())
    if not rows:
        raise FormatError(f"{path}: no data rows")
    if rate is None:
        if rows < 2:
            raise FormatError(f"{path}: cannot infer sample rate from one row")
        dt = head_times[1] - head_times[0]
        if dt <= 0:
            raise FormatError(f"{path}: non-increasing time column")
        rate = 1.0 / dt
    return data[:, :rows], rate


def _check_columns(path: Path, lines: list[str], first: int, columns: int) -> None:
    """Raise FormatError at the first of lines, numbered from first, without columns columns."""
    for lineno, line in enumerate(lines, first):
        text = line.partition("#")[0].strip()
        if text and text.count(",") + 1 != columns:
            raise FormatError(f"{path}: malformed numeric row: line {lineno} has "
                              f"{text.count(',') + 1} columns, the header {columns}")


def format_matrix(mat: np.ndarray) -> str:
    """Rows joined by ';', entries by ',' as metric tokens: "1.0,0.4;0.3,pos-inf"."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    return ";".join(_format_value(row) for row in mat)


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of format_matrix. Raises ValueError on ragged rows."""
    rows = [
        [parse_metric_value(tok) for tok in row.split(",")]
        for row in text.strip().split(";")
    ]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged matrix rows in {text!r}")
    return np.array(rows, dtype=np.float64)


def _format_value(value: object) -> str:
    if isinstance(value, str):
        if "\n" in value:
            raise ValueError("values must be single-line")
        return value
    if isinstance(value, (int, np.integer)):  # bool included: 0/1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_metric_value(float(value))
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return format_matrix(value)
        if value.ndim != 1:
            raise ValueError(f"cannot serialize array of rank {value.ndim}")
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    raise TypeError(f"cannot serialize {type(value).__name__} values")


def write_kv(path: str | Path, mapping: dict[str, object]) -> None:
    """Write "key = value" lines in the mapping's order.

    Booleans are written as 0/1 and floats go through the metric
    formatter, so infinities appear as the neg-inf / pos-inf tokens.
    Tuples, lists and 1-D arrays join their entries' forms with ',';
    2-D arrays are format_matrix rows.
    """
    lines = []
    for key, value in mapping.items():
        if not key or any(ch.isspace() for ch in key) or "=" in key or key.startswith("#"):
            raise ValueError(f"invalid key {key!r}")
        lines.append(f"{key} = {_format_value(value)}\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


@dataclass(frozen=True)
class KeyValueFile:
    """Parsed key-value file: raw string values plus source line numbers."""

    path: str
    values: dict[str, str]
    lines: dict[str, int]


def read_kv(path: str | Path) -> KeyValueFile:
    """Parse a key-value file, reporting line numbers on any violation."""
    path = Path(path)
    values: dict[str, str] = {}
    line_numbers: dict[str, int] = {}
    with open(path, "r") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(_not_text(exc), path) from exc
        for lineno, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError("expected 'key = value'", path, lineno)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError("empty key", path, lineno)
            if key in values:
                raise ConfigError(f"duplicate key {key!r}", path, lineno)
            values[key] = value
            line_numbers[key] = lineno
    return KeyValueFile(path=str(path), values=values, lines=line_numbers)
