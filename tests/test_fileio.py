"""Raw binary and CSV signal files, key-value text files."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

import icdx
from icdx import fileio
from icdx.fileio import (_CSV_CHUNK_ROWS, _RAW_CHUNK_FRAMES, HEADER_SIZE, KeyValueFile,
                         _seventeen_digits, format_matrix, parse_matrix)

from helpers import RATE


def _signal(channels=2, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return icdx.MultichannelSignal(rng.standard_normal((channels, n)), RATE)


def test_raw_round_trip_exact(tmp_path):
    path = tmp_path / "sig.bin"
    original = _signal(3, 1000)
    icdx.write_signal(path, original)
    loaded = icdx.read_signal(path)
    assert np.array_equal(loaded.data, original.data)
    assert loaded.sample_rate == original.sample_rate


def test_raw_layout_frozen(tmp_path):
    # The first frame of samples must appear channel-interleaved right
    # after the fixed 64-byte header, little endian float64.
    path = tmp_path / "sig.bin"
    data = np.array([[1.5, 2.5], [-3.0, 4.0]])
    icdx.write_signal(path, icdx.MultichannelSignal(data, 125.0))
    blob = path.read_bytes()
    assert blob[:4] == b"ICDX"
    version, channels, length = struct.unpack_from("<IIQ", blob, 4)
    (rate,) = struct.unpack_from("<d", blob, 20)
    assert (version, channels, length, rate) == (1, 2, 2, 125.0)
    assert blob[28:HEADER_SIZE] == b"\0" * (HEADER_SIZE - 28)
    frames = struct.unpack_from("<4d", blob, HEADER_SIZE)
    assert frames == (1.5, -3.0, 2.5, 4.0)
    assert len(blob) == HEADER_SIZE + 4 * 8


def test_raw_rejects_corruption(tmp_path):
    path = tmp_path / "sig.bin"
    icdx.write_signal(path, _signal())
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"JUNK" + bytes(blob[4:]))
    with pytest.raises(icdx.FormatError, match="magic"):
        icdx.read_signal(bad_magic)

    bad_version = tmp_path / "version.bin"
    corrupted = bytearray(blob)
    struct.pack_into("<I", corrupted, 4, 99)
    bad_version.write_bytes(bytes(corrupted))
    with pytest.raises(icdx.FormatError, match="version"):
        icdx.read_signal(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(bytes(blob[:-8]))
    with pytest.raises(icdx.FormatError, match="payload"):
        icdx.read_signal(truncated)

    stub = tmp_path / "stub.bin"
    stub.write_bytes(bytes(blob[:10]))
    with pytest.raises(icdx.FormatError, match="truncated"):
        icdx.read_signal(stub)


@pytest.mark.parametrize("damage", ["extra_byte", "extra_frame", "huge_length", "nan_sample"])
def test_raw_reader_rejects_a_damaged_file_before_trusting_it(tmp_path, damage):
    # The payload must be exactly channels x length x 8 bytes, checked
    # before anything is allocated: a length of 2^40 frames is a format
    # error, not an attempt at a 32 TB array.
    path = tmp_path / "sig.bin"
    icdx.write_signal(path, _signal(2, 64))
    blob = bytearray(path.read_bytes())
    if damage == "extra_byte":
        blob += b"\0"
    elif damage == "extra_frame":
        blob += np.zeros(2, dtype="<f8").tobytes()
    elif damage == "huge_length":
        struct.pack_into("<Q", blob, 12, 2**40)
    else:
        struct.pack_into("<d", blob, HEADER_SIZE + 8 * 77, math.nan)
    path.write_bytes(bytes(blob))
    match = "finite" if damage == "nan_sample" else "payload"
    with pytest.raises(icdx.FormatError, match=match):
        icdx.read_signal(path)


_CHUNK_EDGES = (1, _RAW_CHUNK_FRAMES - 1, _RAW_CHUNK_FRAMES, _RAW_CHUNK_FRAMES + 1,
                2 * _RAW_CHUNK_FRAMES + 3)


@pytest.mark.parametrize("channels,n", [(1, 70_000)] + [
    (channels, n) for channels in (1, 2, 3) for n in _CHUNK_EDGES])
def test_raw_round_trip_across_the_frame_chunks(tmp_path, channels, n):
    # The reader and writer move 2^16 frames at a time, the writer one
    # channel column at a time; records below, at and past one chunk are
    # the header then the frames in order, and read back bit for bit.
    path = tmp_path / "sig.bin"
    original = _signal(channels, n, seed=n)
    icdx.write_signal(path, original)
    header = struct.pack("<4sIIQd", b"ICDX", 1, channels, n, RATE).ljust(HEADER_SIZE, b"\0")
    assert path.read_bytes() == header + original.data.T.astype("<f8").tobytes()
    loaded = icdx.read_signal(path)
    assert loaded.data.tobytes() == original.data.tobytes()
    assert loaded.sample_rate == original.sample_rate
    assert not loaded.data.flags.writeable and loaded.data.flags.c_contiguous


def test_raw_read_peaks_at_the_record_plus_chunks(tmp_path):
    # Past the record itself the reader holds one 2^16-frame buffer (1 MB
    # here) and the finite check a mask of 2^16 entries, not of the record.
    path = tmp_path / "sig.bin"
    icdx.write_signal(path, _signal(2, 2**20))
    tracemalloc.start()
    try:
        loaded = icdx.read_signal(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < loaded.data.nbytes + 2**20 + 2**19


def test_csv_round_trip_exact(tmp_path):
    # %.17g representation round-trips float64 exactly.
    path = tmp_path / "sig.csv"
    original = _signal(2, 50)
    icdx.write_signal(path, original)
    loaded = icdx.read_signal(path)
    assert np.array_equal(loaded.data, original.data)
    assert loaded.sample_rate == original.sample_rate


def test_csv_layout(tmp_path):
    path = tmp_path / "sig.csv"
    icdx.write_signal(
        path, icdx.MultichannelSignal(np.array([[1.0, 2.0], [3.0, 4.0]]), 10.0))
    lines = path.read_text().splitlines()
    assert lines[0] == "# sample_rate_hz = 10.0"
    assert lines[1] == "t,ch0,ch1"
    first = [float(tok) for tok in lines[2].split(",")]
    assert first == [0.0, 1.0, 3.0]


def _percent_csv(signal):
    """The CSV file's bytes with every row formatted by one Python %."""
    table = np.column_stack([np.arange(signal.length) / signal.sample_rate, signal.data.T])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    header = "t," + ",".join(f"ch{i}" for i in range(signal.channels))
    return (f"# sample_rate_hz = {signal.sample_rate!r}\n{header}\n"
            + (row * table.shape[0]) % tuple(table.ravel().tolist())).encode()


# Where %g switches layout, where 10^s stops being exact in a double, exact
# halves, the ends of the float64 range, and (below) each one's neighbours.
_CSV_BOUNDARY = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                          1e-4, 1e-5, 1e16, 1e17, 1e-6, 1e22, 1e23,
                          0.5, 2.5, 2.0**53, 2.0**60])


@pytest.mark.parametrize("kernel", [True, False])
def test_csv_bytes_at_boundary_values_are_the_percent_format(tmp_path, monkeypatch, kernel):
    # kernel=False is the route of a long double no wider than a double.
    monkeypatch.setattr(fileio, "_KERNEL", fileio._KERNEL and kernel)
    below = np.nextafter(_CSV_BOUNDARY, -np.inf)
    above = np.nextafter(_CSV_BOUNDARY[:3], np.inf), np.nextafter(_CSV_BOUNDARY[4:], np.inf)
    column = np.concatenate([_CSV_BOUNDARY, below, *above])
    signal = icdx.MultichannelSignal(np.stack([column, -column]), 3.0e6 / 7)
    path = tmp_path / "boundary.csv"
    icdx.write_signal(path, signal)
    assert path.read_bytes() == _percent_csv(signal)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_csv_bytes_across_the_chunk_edge_are_the_percent_format(tmp_path, channels):
    # Each sample is drawn from one of four kinds: magnitudes over the whole
    # certified range and past it, raw bit patterns, dyadic values (exact
    # ties), and short decimals.
    rng = np.random.default_rng(channels)
    n = _CSV_CHUNK_ROWS + 500
    bits = rng.integers(0, 2**64, (channels, n), dtype=np.uint64).view(np.float64)
    kinds = np.stack([
        rng.standard_normal((channels, n)) * 10.0 ** rng.integers(-14, 48, (channels, n)),
        np.where(np.isfinite(bits), bits, 1.0),
        rng.integers(-2**40, 2**40, (channels, n)) / 2.0 ** rng.integers(0, 60, (channels, n)),
        rng.integers(-10**6, 10**6, (channels, n)) / 10.0 ** rng.integers(0, 9, (channels, n)),
    ])
    data = np.take_along_axis(kinds, rng.integers(0, 4, (1, channels, n)), axis=0)[0]
    signal = icdx.MultichannelSignal(data, 1.0e6 / 3)
    path = tmp_path / "drawn.csv"
    icdx.write_signal(path, signal)
    assert path.read_bytes() == _percent_csv(signal)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the share is sized for the 64-bit x87 significand")
def test_csv_writer_certifies_most_time_and_density_values(tmp_path, monkeypatch):
    # A change that sends every value through % still writes the same bytes;
    # only the certified share per column shows it.
    certified = np.zeros(2, int)

    def recording(values):
        order, groups, digits = _seventeen_digits(values)
        chunk = np.empty(values.size, bool)
        chunk[order] = digits != 0
        certified[:] += chunk.reshape(-1, 2).sum(axis=0)
        return order, groups, digits

    monkeypatch.setattr(fileio, "_seventeen_digits", recording)
    rng = np.random.default_rng(0)
    density = rng.uniform(1e17, 7e19, 131072) * rng.choice([-1.0, 1.0], 131072)
    icdx.write_signal(tmp_path / "density.csv", icdx.MultichannelSignal(density[None], 1e6))
    assert np.all(certified >= 0.95 * density.size), certified


@pytest.mark.parametrize("rate", [np.float64(8e6), np.float32(8e6), 8_000_000])
@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_a_numpy_or_int_rate_is_stored_as_a_float_and_read_back(tmp_path, rate, suffix):
    # repr(np.float64(8e6)) is "np.float64(8000000.0)", which the CSV
    # reader refused as a bad sample_rate_hz comment.
    signal = icdx.MultichannelSignal(np.ones((1, 4)), rate)
    series = (icdx.PhaseTrack(np.zeros(4), rate, "density"),
              icdx.PhaseSeries(np.zeros(4), rate, 1.0, 1, 0),
              icdx.DensitySeries(np.zeros(4), rate, 0))
    assert all(type(obj.sample_rate) is float for obj in (signal, *series))
    path = tmp_path / f"sig{suffix}"
    icdx.write_signal(path, signal)
    loaded = icdx.read_signal(path)
    assert loaded.sample_rate == 8e6
    assert np.array_equal(loaded.data, signal.data)


def test_csv_rate_inferred_from_time_column(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("t,ch0\n0,1.0\n0.25,2.0\n0.5,3.0\n")
    loaded = icdx.read_signal(path)
    assert loaded.sample_rate == 4.0
    assert np.array_equal(loaded.data, [[1.0, 2.0, 3.0]])


def test_csv_rejects_malformed(tmp_path):
    missing_header = tmp_path / "bad1.csv"
    missing_header.write_text("# sample_rate_hz = 10.0\n")
    with pytest.raises(icdx.FormatError, match="header"):
        icdx.read_signal(missing_header)

    bad_row = tmp_path / "bad2.csv"
    bad_row.write_text("t,ch0\n0,1.0\n0.1,oops\n")
    with pytest.raises(icdx.FormatError, match="malformed"):
        icdx.read_signal(bad_row)

    stray = tmp_path / "bad3.csv"
    stray.write_text("hello\nt,ch0\n0,1\n")
    with pytest.raises(icdx.FormatError, match="neither comment nor header"):
        icdx.read_signal(stray)


@pytest.mark.parametrize("body, line, found, header", [
    ("0,1\n1,2\n", 3, 2, 3),  # every row one channel short
    ("0,1,2\n\n# note\n1,2\n", 6, 2, 3),  # blank and comment lines count
    ("0,1,2,3\n1,2,3,4\n", 3, 4, 3),  # every row one channel long
    ("".join(f"{k},1,2\n" for k in range(_CSV_CHUNK_ROWS)) + "9,1\n",
     _CSV_CHUNK_ROWS + 3, 2, 3),  # the only short row opens the second chunk
])
def test_csv_rows_must_have_the_header_column_count(tmp_path, body, line, found, header):
    path = tmp_path / "rows.csv"
    path.write_text("# sample_rate_hz = 8e6\nt,ch0,ch1\n" + body)
    with pytest.raises(icdx.FormatError,
                       match=f"line {line} has {found} columns, the header {header}$"):
        icdx.read_signal(path)


@pytest.mark.parametrize("body", ["", "\n\n", "# only a comment\n"])
def test_csv_without_data_rows_says_so(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("t,ch0,ch1\n" + body)
    with pytest.raises(icdx.FormatError, match="no data rows$"):
        icdx.read_signal(path)


def test_matrix_text_round_trip():
    mat = np.array([[1.0, 0.4], [0.3, 1.0]])
    text = format_matrix(mat)
    assert text == "1.0,0.4;0.3,1.0"
    assert np.array_equal(parse_matrix(text), mat)
    assert np.array_equal(parse_matrix("1,0.4;0.3,1"), mat)
    with pytest.raises(ValueError, match="ragged"):
        parse_matrix("1,2;3")
    assert format_matrix(np.array([[-np.inf, 0.5], [1.0, np.inf]])) == "neg-inf,0.5;1.0,pos-inf"
    assert np.array_equal(parse_matrix("neg-inf,0.5;1.0,pos-inf"),
                          [[-np.inf, 0.5], [1.0, np.inf]])
    with pytest.raises(ValueError, match="NaN"):
        format_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_kv_round_trip_with_sentinels(tmp_path):
    path = tmp_path / "report.cfg"
    icdx.write_kv(path, {
        "name": "run-1",
        "enabled": True,
        "count": 42,
        "level_db": -math.inf,
        "ceiling_db": math.inf,
        "gain": 0.1 + 0.2,
        "weights": np.array([1.0, -2.5]),
        "coupling": np.array([[1.0, 0.4], [0.3, 1.0]]),
    })
    kv = icdx.read_kv(path)
    assert kv.values["name"] == "run-1"
    assert kv.values["enabled"] == "1"
    assert kv.values["count"] == "42"
    assert icdx.parse_metric_value(kv.values["level_db"]) == -math.inf
    assert icdx.parse_metric_value(kv.values["ceiling_db"]) == math.inf
    # repr round-trips exactly
    assert icdx.parse_metric_value(kv.values["gain"]) == 0.1 + 0.2
    assert kv.values["weights"] == "1.0,-2.5"
    assert np.array_equal(parse_matrix(kv.values["coupling"]),
                          [[1.0, 0.4], [0.3, 1.0]])
    # No bare inf text anywhere in the file.
    text = path.read_text()
    assert "inf" not in text.replace("neg-inf", "").replace("pos-inf", "")


def test_kv_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\na = 1\n\nnot a pair\n")
    with pytest.raises(icdx.ConfigError, match=r"bad\.cfg:4: ") as info:
        icdx.read_kv(path)
    assert info.value.line == 4

    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\nb = 2\na = 3\n")
    with pytest.raises(icdx.ConfigError, match="duplicate key 'a'") as info:
        icdx.read_kv(dup)
    assert info.value.line == 3


def test_undecodable_text_files_raise_errors_naming_the_file(tmp_path):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(b"a = 1\nb = \xff\n")
    with pytest.raises(icdx.ConfigError, match=r"bytes\.cfg: not text: byte 0xff ") as info:
        icdx.read_kv(cfg)
    assert info.value.path == str(cfg)
    csv = tmp_path / "bytes.csv"
    csv.write_bytes(b"# sample_rate_hz = 8000000.0\nt,ch0\n0,1\n1,\xff\n")
    with pytest.raises(icdx.FormatError, match=r"bytes\.csv: not text: byte 0xff "):
        icdx.read_signal(csv)


def test_kv_file_accessors(tmp_path):
    path = tmp_path / "vals.cfg"
    path.write_text("# header comment\nrate = 8000000.0\nlabel = three words here\n")
    kv = icdx.read_kv(path)
    assert icdx.parse_metric_value(kv.values["rate"]) == 8.0e6
    assert kv.values["label"] == "three words here"
    assert kv.lines == {"rate": 2, "label": 3}
    assert "absent" not in kv.values


def test_write_kv_rejects_bad_keys(tmp_path):
    path = tmp_path / "out.cfg"
    for key in ("", "two words", "a=b", "#lead"):
        with pytest.raises(ValueError, match="invalid key"):
            icdx.write_kv(path, {key: 1})
    with pytest.raises(ValueError, match="single-line"):
        icdx.write_kv(path, {"ok": "line1\nline2"})
    with pytest.raises(TypeError):
        icdx.write_kv(path, {"ok": object()})


def test_kv_value_types_frozen_format(tmp_path):
    # The exact serialized text is part of the format contract.
    path = tmp_path / "fmt.cfg"
    icdx.write_kv(path, {"a": 1.5, "b": -math.inf, "c": 7, "d": "text"})
    assert path.read_text() == "a = 1.5\nb = neg-inf\nc = 7\nd = text\n"


def test_keyvaluefile_is_plain_data():
    kv = KeyValueFile(path="x.cfg", values={"k": "1"}, lines={"k": 1})
    assert kv.values["k"] == "1"
    assert icdx.parse_metric_value(kv.values["k"]) == 1.0
    assert kv.lines["k"] == 1
