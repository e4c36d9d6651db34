"""On-disk formats: raw binary signals, CSV signals, key-value text.

Raw binary layout (little endian):
  bytes 0..27   header: magic "ICDX", version u32, channels u32,
                length u64, sample_rate f64
  bytes 28..63  zero padding (header block is a fixed 64 bytes)
  bytes 64..    float64 samples, channel-interleaved frames:
                ch0[0], ch1[0], ..., ch0[1], ch1[1], ...

CSV signals carry a "# sample_rate_hz = <value>" comment, a header row
"t,ch0,ch1,...", and one row per frame. Values use %.17g so float64
round-trips exactly.

The key-value text format is line oriented: "key = value" pairs, "#"
full-line comments, blank lines ignored. Readers report the offending
line number on malformed input. Infinite metric values are written as
the tokens neg-inf / pos-inf, never as bare floats.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import format_metric_value, parse_metric_value
from .signalgen import MultichannelSignal

__all__ = [
    "ConfigError",
    "FormatError",
    "KeyValueFile",
    "format_matrix",
    "parse_matrix",
    "read_kv",
    "read_signal",
    "write_kv",
    "write_signal",
]

MAGIC = b"ICDX"
VERSION = 1
_HEADER = struct.Struct("<4sIIQd")
HEADER_SIZE = 64


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

    Samples MultichannelSignal rejects (non-finite ones) raise FormatError.
    """
    path = Path(path)
    reader = _read_csv if path.suffix.lower() == ".csv" else _read_raw
    data, rate = reader(path)
    try:
        return MultichannelSignal(data, rate)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _write_raw(path: Path, signal: MultichannelSignal) -> None:
    header = _HEADER.pack(
        MAGIC, VERSION, signal.channels, signal.length, signal.sample_rate)
    frames = np.ascontiguousarray(signal.data.T, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.ljust(HEADER_SIZE, b"\0"))
        fh.write(frames.tobytes())


def _read_raw(path: Path) -> tuple[np.ndarray, float]:
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
        payload = fh.read()
    expected = channels * length * 8
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    frames = np.frombuffer(payload, dtype="<f8").reshape(length, channels)
    return frames.T, rate


def _write_csv(path: Path, signal: MultichannelSignal) -> None:
    t = signal.times()
    table = np.column_stack([t, signal.data.T])
    header = "t," + ",".join(f"ch{i}" for i in range(signal.channels))
    # One %-format over the whole table: the bytes np.savetxt(fmt="%.17g")
    # writes, without its per-row Python loop.
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# sample_rate_hz = {signal.sample_rate!r}\n")
        fh.write(header + "\n")
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


def _read_csv(path: Path) -> tuple[np.ndarray, float]:
    rate = None
    header_index = None
    with open(path, "r") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
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
            header_index = i
            break
        raise FormatError(f"{path}: line {i + 1} is neither comment nor header")
    if header_index is None:
        raise FormatError(f"{path}: missing 't,ch0,...' header row")
    body = "".join(lines[header_index + 1:])
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed numeric row: {exc}") from exc
    if table.shape[1] < 2:
        raise FormatError(f"{path}: need a time column plus at least one channel")
    if rate is None:
        if table.shape[0] < 2:
            raise FormatError(f"{path}: cannot infer sample rate from one row")
        dt = table[1, 0] - table[0, 0]
        if dt <= 0:
            raise FormatError(f"{path}: non-increasing time column")
        rate = 1.0 / dt
    return table[:, 1:].T, rate


def format_matrix(mat: np.ndarray) -> str:
    """Rows joined by ';', entries by ',': "1,0.4;0.3,1"."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    return ";".join(",".join(repr(float(v)) for v in row) for row in mat)


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of format_matrix. Raises ValueError on ragged rows."""
    rows = [
        [float(tok) for tok in row.split(",")]
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

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required key {key!r}", self.path)
        return self.values[key]

    def get_float(self, key: str) -> float:
        token = self.require(key)
        try:
            return parse_metric_value(token)
        except ValueError as exc:
            raise ConfigError(
                f"key {key!r}: {token!r} is not a number",
                self.path, self.lines[key]) from exc


def read_kv(path: str | Path) -> KeyValueFile:
    """Parse a key-value file, reporting line numbers on any violation."""
    path = Path(path)
    values: dict[str, str] = {}
    line_numbers: dict[str, int] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
