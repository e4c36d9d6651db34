"""In-process exercises of the command-line pipeline driver."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import icdx
from icdx.cli import RunConfig, main
from icdx.fileio import parse_matrix, read_kv

from helpers import RATE


def _float(kv, key):
    return icdx.parse_metric_value(kv.values[key])


def _floats(kv, key):
    return [icdx.parse_metric_value(tok) for tok in kv.values[key].split(",")]


def _gen(out, *extra):
    return main(["gen", "--out-dir", str(out), "--samples", "65536", *extra])


def test_gen_writes_expected_files(tmp_path, capsys):
    assert _gen(tmp_path) == 0
    names = ("clean.bin", "mixed.bin", "tracks.csv", "density_truth.csv", "manifest.cfg")
    for name in names:
        assert (tmp_path / name).exists(), name
    # Every written file is listed once, in write order, manifest last.
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {tmp_path / name}" for name in names]
    mixed = icdx.read_signal(tmp_path / "mixed.bin")
    assert mixed.channels == 2 and mixed.length == 65536
    tracks = icdx.read_signal(tmp_path / "tracks.csv")
    assert tracks.channels == 2
    density = icdx.read_signal(tmp_path / "density_truth.csv")
    assert density.channels == 1


def test_manifest_echoes_every_field(tmp_path):
    assert _gen(tmp_path) == 0
    kv = read_kv(tmp_path / "manifest.cfg")
    expected = {"format_version"} | {
        spec.name for spec in dataclasses.fields(RunConfig)}
    assert set(kv.values) == expected
    assert kv.values["format_version"] == "1"
    assert kv.values["samples"] == "65536"
    assert kv.values["snr_db"] == "pos-inf"
    assert np.array_equal(
        parse_matrix(kv.values["coupling"]), [[1.0, 0.4], [0.3, 1.0]])


def test_gen_csv_format(tmp_path):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "16384",
                 "--file-format", "csv"]) == 0
    assert (tmp_path / "clean.csv").exists()
    assert (tmp_path / "mixed.csv").exists()
    assert not (tmp_path / "clean.bin").exists()


def test_config_file_then_flags_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("samples = 32768\nseed = 9\n")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(config), "--out-dir", str(out),
                 "--samples", "16384"]) == 0
    kv = read_kv(out / "manifest.cfg")
    assert kv.values["samples"] == "16384"  # flag beats file
    assert kv.values["seed"] == "9"         # file beats default


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert _gen(first) == 0
    assert main(["gen", "--config", str(first / "manifest.cfg"),
                 "--out-dir", str(second)]) == 0
    for name in ("clean.bin", "mixed.bin", "tracks.csv",
                 "density_truth.csv", "manifest.cfg"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_noisy_quantized_gen_reruns_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert _gen(first, "--snr-db", "30", "--adc-bits", "12") == 0
    assert main(["gen", "--config", str(first / "manifest.cfg"),
                 "--out-dir", str(second)]) == 0
    for name in ("clean.bin", "mixed.bin", "manifest.cfg"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # Noise and the 12-bit quantizer (step 2 * 2.0 / 2^12) both reached mixed.bin.
    clean, mixed = (icdx.read_signal(first / name) for name in ("clean.bin", "mixed.bin"))
    codes = mixed.data / (4.0 / 2**12)
    assert np.array_equal(codes, np.round(codes))
    expected = np.array([[1.0, 0.4], [0.3, 1.0]]) @ clean.data
    assert 0.0 < np.max(np.abs(mixed.data - expected)) < 0.2


def test_unknown_config_key_reports_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("samples = 32768\n# fine\nbogus_knob = 3\n")
    assert main(["gen", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:3:" in err
    assert "bogus_knob" in err


def test_bad_field_values_exit_2(tmp_path, capsys):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "8"]) == 2
    assert "samples" in capsys.readouterr().err
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "many"]) == 2
    assert main(["gen", "--out-dir", str(tmp_path), "--coupling", "1,2;3"]) == 2
    with pytest.raises(SystemExit):  # argparse rejects unknown choices itself
        main(["gen", "--out-dir", str(tmp_path), "--scenario", "nova"])


@pytest.mark.parametrize("line, name", [
    ("scenario = nova", "scenario"), ("file_format = hdf5", "file_format")])
def test_config_file_choice_exit_2_before_writing(tmp_path, capsys, line, name):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--config", str(config), "--out-dir", str(out)]) == 2
    assert f"{name} must be one of" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unsupported_format_version_exit_2(tmp_path, capsys):
    config = tmp_path / "old.cfg"
    config.write_text("format_version = 99\n")
    assert main(["gen", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert "format_version" in capsys.readouterr().err


def test_missing_input_exit_4(tmp_path, capsys):
    assert main(["unmix", "--in", str(tmp_path / "absent.bin"),
                 "--out-dir", str(tmp_path)]) == 4
    assert "error" in capsys.readouterr().err


def test_non_finite_input_exit_4(tmp_path, capsys):
    csv_path = tmp_path / "nan.csv"
    csv_path.write_text("t,ch0,ch1\n0,1,2\n1,nan,2\n2,1,2\n")
    icdx.write_signal(tmp_path / "ok.bin", icdx.MultichannelSignal(np.ones((2, 4)), RATE))
    raw = bytearray((tmp_path / "ok.bin").read_bytes())
    raw[-8:] = np.array([np.inf], dtype="<f8").tobytes()
    (tmp_path / "inf.bin").write_bytes(bytes(raw))
    for path in (csv_path, tmp_path / "inf.bin"):
        assert main(["unmix", "--in", str(path), "--out-dir", str(tmp_path)]) == 4
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff,ch0\n0,1\n1,1\n", b"t,ch0\n0,1\n1,\xff\n"],
                         ids=["header", "row"])
def test_undecodable_csv_input_exit_4(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["unmix", "--in", str(path), "--out-dir", str(out)]) == 4
    assert f"icdx: error: {path}: not text: byte 0xff does not decode" in capsys.readouterr().err
    assert _written(out) is None


def _patched_raw(path, offset, value):
    """A valid one-channel raw file at path, with one header field overwritten."""
    icdx.write_signal(path, icdx.MultichannelSignal(np.ones((1, 4)), RATE))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("name, content, message", [
    ("version.bin", (4, 99), "unsupported version 99"),
    ("shape.bin", (8, 0), "invalid shape 0 x 4"),
    ("rate.csv", "# sample_rate_hz = fast\nt,ch0\n0,1\n1,1\n", "bad sample_rate_hz comment"),
    ("columns.csv", "t,ch0\n0\n1\n", "need a time column plus at least one channel"),
    ("one_row.csv", "t,ch0\n0,1\n", "cannot infer sample rate from one row"),
    ("time.csv", "t,ch0\n0,1\n0,2\n", "non-increasing time column"),
])
def test_malformed_signal_file_exit_4_makes_no_directory(tmp_path, capsys, name, content,
                                                          message):
    path = tmp_path / name
    if isinstance(content, tuple):
        _patched_raw(path, *content)
    else:
        path.write_text(content)
    out = tmp_path / "out"
    assert main(["unmix", "--in", str(path), "--out-dir", str(out)]) == 4
    assert f"icdx: error: {path}: {message}" in capsys.readouterr().err
    assert _written(out) is None


def test_raw_header_claiming_huge_length_exit_4(tmp_path, capsys):
    path = tmp_path / "huge.bin"
    icdx.write_signal(path, icdx.MultichannelSignal(np.ones((2, 4)), RATE))
    raw = bytearray(path.read_bytes())
    raw[12:20] = (2**40).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    assert main(["unmix", "--in", str(path), "--out-dir", str(tmp_path)]) == 4
    assert "payload" in capsys.readouterr().err


def test_density_on_record_shorter_than_filter_exit_2(tmp_path, capsys):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "16"]) == 0
    assert main(["density", "--in", str(tmp_path / "clean.bin"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "shorter than the demodulation filter" in capsys.readouterr().err
    assert not (tmp_path / "density_report.cfg").exists()


@pytest.mark.parametrize("extra", [
    (), ("--decimation", "100000"), ("--decimation", "1000000000000")])
def test_density_without_steady_samples_exit_2(tmp_path, capsys, extra):
    # 336 samples decimate to 42, all inside the 21-sample settle at each
    # end of the 335-tap ch2 filter; at decimation 100000, 4096 samples
    # leave one sample, and no allocation grows with the decimation.
    samples = "4096" if extra else "336"
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", samples]) == 0
    assert main(["density", "--in", str(tmp_path / "clean.bin"),
                 "--out-dir", str(tmp_path), *extra]) == 2
    assert "no steady density" in capsys.readouterr().err
    assert not (tmp_path / "density.csv").exists()
    assert not (tmp_path / "density_report.cfg").exists()


@pytest.mark.parametrize("extra, name", [
    (("--filter-order", "1000000000000"), "demodulation"),
    (("--envelope-order", "1000000000000"), "envelope"),
    (("--envelope-order", "100000"), "envelope")])
def test_density_filter_longer_than_record_exit_2(tmp_path, capsys, extra, name):
    # Orders are compared with the record before any taps are designed,
    # so even 10^12 taps fail as a config error and write nothing.
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "4096"]) == 0
    assert main(["density", "--in", str(tmp_path / "clean.bin"),
                 "--out-dir", str(tmp_path / "out"), *extra]) == 2
    assert f"shorter than the {name} filter" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", ["337", "4096"])
def test_density_on_short_record_past_the_settle(tmp_path, samples):
    # 337 samples decimate to 43: one sample clears the 21-sample settle.
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", samples]) == 0
    assert main(["density", "--in", str(tmp_path / "clean.bin"),
                 "--out-dir", str(tmp_path)]) == 0
    report = read_kv(tmp_path / "density_report.cfg")
    assert report.values["status"] == "ok" and report.values["settle"] == "21"


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ICDX_OUT_DIR", str(tmp_path / "envout"))
    assert main(["gen", "--samples", "16384"]) == 0
    assert (tmp_path / "envout" / "manifest.cfg").exists()


def test_mix_applies_coupling_exactly(tmp_path):
    assert _gen(tmp_path, "--coupling", "1,0;0,1") == 0
    out = tmp_path / "mixed_strong"
    assert main(["mix", "--in", str(tmp_path / "clean.bin"),
                 "--out-dir", str(out), "--coupling", "1,0.9;0.9,1"]) == 0
    clean = icdx.read_signal(tmp_path / "clean.bin")
    mixed = icdx.read_signal(out / "mixed.bin")
    expected = np.array([[1.0, 0.9], [0.9, 1.0]]) @ clean.data
    assert np.array_equal(mixed.data, expected)
    kv = read_kv(out / "mix_manifest.cfg")
    assert kv.values["coupling"] == "1.0,0.9;0.9,1.0"


def test_full_pipeline_noiseless(tmp_path):
    run = tmp_path / "run"
    assert _gen(run) == 0
    assert main(["unmix", "--in", str(run / "mixed.bin"),
                 "--truth", str(run / "clean.bin"), "--out-dir", str(run)]) == 0
    for name in ("corrected.bin", "separation.cfg", "whitening.cfg",
                 "quality.cfg", "unmix_manifest.cfg"):
        assert (run / name).exists(), name

    quality = read_kv(run / "quality.cfg")
    assert list(quality.values) == [
        "iterations", "converged", "isr_db", "envelope_depth_raw",
        "envelope_depth_corrected", "gain_error"]
    assert quality.values["converged"] == "1,1"
    isr_db = _floats(quality, "isr_db")
    assert all(v <= -40.0 for v in isr_db)
    assert _float(quality, "gain_error") < 1e-3
    raw = _floats(quality, "envelope_depth_raw")
    fixed = _floats(quality, "envelope_depth_corrected")
    assert all(r > 10.0 * f for r, f in zip(raw, fixed))

    separation = read_kv(run / "separation.cfg")
    w = parse_matrix(separation.values["w"])
    assert w.shape == (2, 2)
    assert np.max(np.abs(w @ w.T - np.eye(2))) < 1e-8

    assert main(["density", "--in", str(run / "corrected.bin"),
                 "--truth", str(run / "density_truth.csv"),
                 "--out-dir", str(run)]) == 0
    report = read_kv(run / "density_report.cfg")
    assert report.values["status"] == "ok"
    assert report.values["ch1_lost_ranges"] == "none"
    rel = _float(report, "rms_error") / _float(report, "truth_rms")
    assert rel < 1e-3
    density = icdx.read_signal(run / "density.csv")
    assert density.length == 65536 // 8


def test_unmix_reruns_byte_identical(tmp_path, capsys):
    run = tmp_path / "run"
    assert _gen(run) == 0
    first, second = tmp_path / "u1", tmp_path / "u2"
    names = ("corrected.bin", "separation.cfg", "whitening.cfg",
             "quality.cfg", "unmix_manifest.cfg")
    for out in (first, second):
        capsys.readouterr()
        assert main(["unmix", "--in", str(run / "mixed.bin"),
                     "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # Without --truth, quality.cfg has no truth-dependent keys.
    assert list(read_kv(first / "quality.cfg").values) == [
        "iterations", "converged", "envelope_depth_raw", "envelope_depth_corrected"]


def _written(out):
    """The names in out, or None where no directory was made."""
    return sorted(path.name for path in out.iterdir()) if out.exists() else None


@pytest.mark.parametrize("truth, code", [("absent.bin", 4), ("run/clean_short.bin", 2)])
def test_unmix_reads_truth_before_writing(tmp_path, capsys, truth, code):
    # A missing or misshapen --truth fails when it is read, after the
    # separation and before anything is written, so no output is left
    # without its quality.cfg and manifest.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    clean = icdx.read_signal(run / "clean.bin")
    icdx.write_signal(run / "clean_short.bin", clean.with_data(clean.data[:, :2048]))
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(tmp_path / truth),
                 "--out-dir", str(out)]) == code
    assert "error" in capsys.readouterr().err
    assert _written(out) is None


def test_unmix_refuses_a_constant_truth_channel_before_writing(tmp_path, capsys):
    # A constant truth channel leaves the gain's centred Gram matrix singular;
    # it is refused, file and channel named, not scored.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    clean = icdx.read_signal(run / "clean.bin")
    data = clean.data.copy()
    data[1] = 1.0
    icdx.write_signal(run / "clean_flat.bin", clean.with_data(data))
    capsys.readouterr()
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(run / "clean_flat.bin"),
                 "--out-dir", str(out)]) == 2
    assert f"{run / 'clean_flat.bin'} channel 2 is constant" in capsys.readouterr().err
    assert _written(out) is None


@pytest.mark.parametrize("scale", [1.0, -2.0, 0.3])
def test_unmix_refuses_collinear_truth_channels_before_writing(tmp_path, capsys, scale):
    # ch2 = scale * ch1 leaves the centred truth pair no second dimension:
    # 1 - r^2 is 0 for the exact scales and about 1e-15 for 0.3, far below
    # the 1e-12 floor. It is refused, file named, not scored.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "8192") == 0
    clean = icdx.read_signal(run / "clean.bin")
    truth = run / "clean_collinear.bin"
    icdx.write_signal(truth, clean.with_data(np.vstack([clean.data[0], scale * clean.data[0]])))
    capsys.readouterr()
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(truth),
                 "--out-dir", str(out)]) == 2
    assert f"{truth} channels are collinear" in capsys.readouterr().err
    assert _written(out) is None


def test_unmix_refuses_a_mean_whitening_cannot_remove_before_writing(tmp_path, capsys):
    # A 1e9 DC offset survives centering in float64 at 7e-8 of the rms;
    # whiten refuses it, naming the channel.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "8192") == 0
    mixed = icdx.read_signal(run / "mixed.bin")
    icdx.write_signal(run / "mixed_dc.bin", mixed.with_data(mixed.data + 1e9))
    capsys.readouterr()
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed_dc.bin"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"channel \d mean \S+ after centering", err) and "center()" not in err
    assert _written(out) is None


def test_unmix_scores_a_truth_channel_with_a_large_dc_offset(tmp_path):
    # Only an exactly constant channel is refused. An offset of 2e6 rms puts
    # the channel's centred power at 2.5e-13 of its total, under 4096 eps,
    # and it is still scored: its column's rms, offset included, sets the
    # gain error to about the offset in rms units.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    clean = icdx.read_signal(run / "clean.bin")
    data = clean.data.copy()
    data[1] += 2e6 * np.std(data[1])
    icdx.write_signal(run / "clean_dc.bin", clean.with_data(data))
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(run / "clean_dc.bin"),
                 "--out-dir", str(out)]) == 0
    assert _float(read_kv(out / "quality.cfg"), "gain_error") == pytest.approx(2e6, rel=1e-2)


def test_unmix_on_an_all_zero_channel_exit_3_before_its_depth(tmp_path, capsys):
    # The separation's rank-deficiency refusal (exit 3) comes before the
    # raw depth's refusal of a channel with no carrier energy (exit 2).
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    mixed = icdx.read_signal(run / "mixed.bin")
    data = mixed.data.copy()
    data[1] = 0.0
    icdx.write_signal(run / "mixed_zero.bin", mixed.with_data(data))
    capsys.readouterr()
    out = tmp_path / "u"
    for truth in ([], ["--truth", str(tmp_path / "absent.bin")]):
        assert main(["unmix", "--in", str(run / "mixed_zero.bin"), *truth,
                     "--out-dir", str(out)]) == 3
        assert re.search(r"error: covariance eigenvalues \[0\.5\d*, 0\.0\] .* rank deficient",
                         capsys.readouterr().err)
        assert _written(out) is None


def test_truth_at_another_rate_exit_2_before_writing(tmp_path, capsys):
    # A truth of the input's shape taken at 4 MHz is refused against an
    # 8 MHz input, not scored, and nothing is written.
    a, b = tmp_path / "a", tmp_path / "b"
    assert _gen(a) == 0
    assert _gen(b, "--sample-rate", "4e6", "--f-het1", "0.5e6", "--f-het2", "0.55e6") == 0
    capsys.readouterr()
    for command, given, truth in (("unmix", "mixed.bin", "clean.bin"),
                                  ("density", "clean.bin", "density_truth.csv")):
        out = tmp_path / command
        assert main([command, "--in", str(a / given), "--truth", str(b / truth),
                     "--out-dir", str(out)]) == 2
        assert "truth rate 4000000.0 != input rate 8000000.0" in capsys.readouterr().err
        assert _written(out) is None


@pytest.mark.parametrize("command", ["mix", "unmix", "density", "diplex", "report"])
def test_missing_input_exit_4_makes_no_directory(tmp_path, capsys, command):
    # Inputs are read and checked before the output directory is made.
    out = tmp_path / "out"
    given = ["--in", str(tmp_path / "absent.bin")] if command != "report" else []
    assert main([command, *given, "--out-dir", str(out)]) == 4
    assert "icdx: error: " in capsys.readouterr().err
    assert _written(out) is None


@pytest.mark.parametrize("command, given, message", [
    ("mix", ["--in", "a/density_truth.csv"], "must hold 2 channel(s), got 1"),
    ("unmix", ["--in", "a/density_truth.csv"], "must hold 2 channel(s), got 1"),
    ("unmix", ["--in", "a/mixed.bin", "--truth", "a/density_truth.csv"],
     "must hold 2 channel(s), got 1"),
    ("density", ["--in", "a/density_truth.csv"], "must hold 2 channel(s), got 1"),
    ("density", ["--in", "a/clean.bin", "--truth", "a/clean.bin"],
     "must hold 1 channel(s), got 2"),
    ("density", ["--in", "a/clean.bin", "--truth", "b/density_truth.csv"],
     "must hold 4096 samples, got 8192"),
    ("diplex", ["--in", "a/clean.bin"], "must hold 1 channel(s), got 2"),
])
def test_input_of_the_wrong_shape_exit_2_makes_no_directory(tmp_path, capsys, command,
                                                             given, message):
    assert _gen(tmp_path / "a", "--samples", "4096") == 0
    assert _gen(tmp_path / "b", "--samples", "8192") == 0
    capsys.readouterr()
    out = tmp_path / "out"
    args = [str(tmp_path / token) if "/" in token else token for token in given]
    assert main([command, *args, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert _written(out) is None


def test_non_finite_coupling_exit_2(tmp_path, capsys):
    # Neither a flag nor a manifest line can carry a non-finite coupling
    # into a run, and the error names the field and, from a file, its line.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    manifest = tmp_path / "inf_manifest.cfg"
    lines = (run / "manifest.cfg").read_text().splitlines()
    line = lines.index("coupling = 1.0,0.4;0.3,1.0")
    lines[line] = "coupling = pos-inf,0.0;0.0,1.0"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "u"
    for source, where in ((["--coupling", "nan,0;0,1"], "icdx: error: field 'coupling'"),
                          (["--config", str(manifest)], f"{manifest}:{line + 1}: field 'coupling'")):
        capsys.readouterr()
        assert main(["unmix", "--in", str(run / "mixed.bin"), "--out-dir", str(out),
                     *source]) == 2
        err = capsys.readouterr().err
        assert where in err and "coupling must be finite" in err
        assert _written(out) is None


def test_unmix_truth_gain_error_measured_from_the_truth(tmp_path):
    # The gain error comes from the truth, not from --coupling: a record
    # made with another coupling scores the same as under its own manifest.
    run = tmp_path / "run"
    assert _gen(run, "--coupling", "1,0.7;0.6,1") == 0
    errors = []
    for extra in ([], ["--config", str(run / "manifest.cfg")]):
        out = tmp_path / f"u{len(errors)}"
        assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(run / "clean.bin"),
                     "--out-dir", str(out), *extra]) == 0
        errors.append(_float(read_kv(out / "quality.cfg"), "gain_error"))
    assert errors[0] < 1e-3
    assert errors[0] == pytest.approx(errors[1], rel=1e-9)


def test_unmix_nonconvergence_exit_3(tmp_path, capsys):
    run = tmp_path / "run"
    assert _gen(run) == 0
    capsys.readouterr()
    rc = main(["unmix", "--in", str(run / "mixed.bin"),
               "--out-dir", str(tmp_path / "u"),
               "--max-iter", "1", "--tol", "1e-15"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("icdx: error: separation did not converge (iterations ")
    # The outputs are still written for inspection, and listed.
    for name in ("corrected.bin", "separation.cfg", "quality.cfg", "unmix_manifest.cfg"):
        assert (tmp_path / "u" / name).exists(), name
        assert f"wrote {tmp_path / 'u' / name}\n" in captured.out


def test_density_on_strong_coupling_partial_exit_3(tmp_path, capsys):
    run = tmp_path / "run"
    assert _gen(run, "--coupling", "1,0.9;0.9,1") == 0
    rc = main(["density", "--in", str(run / "mixed.bin"), "--out-dir", str(run)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("icdx: error: phase tracking lost (partial): ch1 ((")
    assert f"wrote {run / 'density_report.cfg'}\n" in captured.out
    report = read_kv(run / "density_report.cfg")
    assert report.values["status"] == "partial"
    lost = _float(report, "lost_fraction")
    assert 0.0 < lost < 0.5
    assert report.values["ch1_lost_ranges"] != "none"
    # The density series itself is still written for inspection.
    assert (run / "density.csv").exists()


def test_diplex_subcommand(tmp_path):
    out = tmp_path / "dx"
    assert main(["diplex", "--out-dir", str(out),
                 "--diplex-samples", "16384"]) == 0
    for name in ("diplex_fir_only.bin", "diplex_separated.bin",
                 "diplex_report.cfg", "diplex_manifest.cfg"):
        assert (out / name).exists(), name
    report = read_kv(out / "diplex_report.cfg")
    for tone in ("tone_a", "tone_b"):
        fir_db = _float(report, f"{tone}_fir_residual_db")
        ica_db = _float(report, f"{tone}_ica_residual_db")
        assert fir_db > -20.0
        assert ica_db <= -40.0
        assert abs(_float(report, f"{tone}_mean")) <= 1e-6
        assert abs(_float(report, f"{tone}_peak") - 1.0) <= 1e-3


def test_diplex_reads_a_composite_in_either_format(tmp_path):
    # The same composite from a raw or a CSV file, or synthesized, gives the same bytes.
    n, rate = 16384, 200.0e6
    t = np.arange(n) / rate
    composite = np.sin(2.0 * np.pi * 25.0e6 * t) + np.sin(2.0 * np.pi * 40.0e6 * t)
    names = ("diplex_fir_only.bin", "diplex_separated.bin", "diplex_report.cfg")
    outputs = []
    for given in ("composite.bin", "composite.csv", None):
        out = tmp_path / f"out{len(outputs)}"
        if given is None:
            args = ["--diplex-samples", str(n)]
        else:
            icdx.write_signal(tmp_path / given, icdx.MultichannelSignal(composite[None, :], rate))
            args = ["--in", str(tmp_path / given)]
        assert main(["diplex", *args, "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.filterwarnings("error")
def test_diplex_on_a_huge_composite_reports_the_unscaled_residuals(tmp_path):
    # At amplitude 1e150 the squared tone-band bins of 2^17 samples overflowed
    # and the FIR residuals read neg-inf; the covariance's norm overflowed too.
    n, rate = 2**17, 200.0e6
    t = np.arange(n) / rate
    composite = np.sin(2.0 * np.pi * 25.0e6 * t) + np.sin(2.0 * np.pi * 40.0e6 * t)
    reports = []
    for scale in (1.0, 1e150):
        path, out = tmp_path / f"composite_{scale:g}.bin", tmp_path / f"out_{scale:g}"
        icdx.write_signal(path, icdx.MultichannelSignal(scale * composite[None, :], rate))
        assert main(["diplex", "--in", str(path), "--out-dir", str(out)]) == 0
        reports.append(read_kv(out / "diplex_report.cfg"))
    for tone in ("tone_a", "tone_b"):
        fir_db = [_float(report, f"{tone}_fir_residual_db") for report in reports]
        assert fir_db[0] > -20.0
        assert abs(fir_db[1] - fir_db[0]) <= 1e-9
        # Scaling by 1e150 rounds each sample, which moves the separation by
        # rounding; at about -106 dB that is a few 1e-9 dB.
        ica_db = [_float(report, f"{tone}_ica_residual_db") for report in reports]
        assert ica_db[0] <= -40.0
        assert abs(ica_db[1] - ica_db[0]) <= 1e-6


@pytest.mark.parametrize("command", ["unmix", "diplex"])
def test_record_past_the_float64_range_exit_2_makes_no_directory(tmp_path, capsys, command):
    # At 1e160 whitening's sum of squares over 2^16 samples passes the float64
    # range: the run is refused (exit 2) with the bound, and no warning (an
    # error here) comes first.
    n, rate = 2**16, 200.0e6
    if command == "unmix":
        assert _gen(tmp_path / "run") == 0
        record = icdx.read_signal(tmp_path / "run" / "mixed.bin")
    else:
        t = np.arange(n) / rate
        record = icdx.MultichannelSignal(
            np.sin(2.0 * np.pi * 25.0e6 * t) + np.sin(2.0 * np.pi * 40.0e6 * t)[None], rate)
    assert record.length == n
    path, out = tmp_path / "huge.bin", tmp_path / "out"
    icdx.write_signal(path, record.with_data(1e160 * record.data))
    capsys.readouterr()
    assert main([command, "--in", str(path), "--out-dir", str(out)]) == 2
    assert re.search(r"error: .* rms times sqrt\(length\) must stay below 1\.34e\+154",
                     capsys.readouterr().err)
    assert _written(out) is None


def test_density_on_a_record_past_the_transforms_range_exit_2(tmp_path, capsys):
    # At 1e306 the overlap-save transforms of 8192-sample blocks overflow: the
    # channel is refused with the bound before any transform, and no warning
    # (an error here) comes first.
    t = np.arange(2**14) / RATE
    carriers = np.vstack([np.sin(2.0 * np.pi * 1.0e6 * t), np.sin(2.0 * np.pi * 1.1e6 * t)])
    path, out = tmp_path / "huge.bin", tmp_path / "out"
    icdx.write_signal(path, icdx.MultichannelSignal(1e306 * carriers, RATE))
    assert main(["density", "--in", str(path), "--out-dir", str(out)]) == 2
    assert re.search(r"error: channel peak 1e\+306 passes the float64 range of the "
                     r"8192-sample transforms: it must stay below \d\.\d\de\+303",
                     capsys.readouterr().err)
    assert _written(out) is None


@pytest.mark.parametrize("order, left", [("1022", 2), ("1023", 1)])
def test_diplex_order_leaving_too_few_samples_exit_3(tmp_path, capsys, order, left):
    # The separation skips the first `order` samples; what remains cannot hold
    # two independent directions, and the message says so instead of naming
    # the covariance's zero eigenvalues.
    out = tmp_path / "dx"
    assert main(["diplex", "--out-dir", str(out), "--diplex-samples", "1024",
                 "--diplex-order", order]) == 3
    err = capsys.readouterr().err
    assert f"only {left} of 1024 samples remain after skipping {order}" in err
    assert "eigenvalues" not in err


@pytest.mark.parametrize("order", ["1000000000000", "16384"])
def test_diplex_filter_longer_than_record_exit_2(tmp_path, capsys, order):
    # The order is compared with the composite before either bandpass is
    # designed, so 10^12 taps fail as a config error and write nothing.
    out = tmp_path / "dx"
    assert main(["diplex", "--out-dir", str(out), "--diplex-samples", "16384",
                 "--diplex-order", order]) == 2
    assert "shorter than filter" in capsys.readouterr().err
    assert not out.exists()


def test_report_subcommand(tmp_path, capsys):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "16384"]) == 0
    capsys.readouterr()
    assert main(["report", "--in-dir", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "[manifest.cfg]" in text
    assert "clean.bin: 2 channel(s) x 16384 samples" in text

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--in-dir", str(empty)]) == 0
    assert "nothing to report" in capsys.readouterr().out


def test_report_lists_an_unreadable_signal_and_goes_on(tmp_path, capsys):
    (tmp_path / "broken.bin").write_bytes(b"ICDX")
    (tmp_path / "run.cfg").write_text("samples = 4096\n")
    assert main(["report", "--in-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("broken.bin: unreadable (")
    assert "truncated header (4 bytes)" in out and "[run.cfg]" in out


def test_report_lists_a_malformed_config_and_goes_on(tmp_path, capsys):
    (tmp_path / "clean.bin").write_bytes(b"ICDX")
    (tmp_path / "bad.cfg").write_text("samples = 4096\nbroken line\n")
    (tmp_path / "good.cfg").write_text("seed = 7\n")
    assert main(["report", "--in-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"bad.cfg: unreadable ({tmp_path / 'bad.cfg'}:2: expected 'key = value')" in out
    assert out.index("bad.cfg") < out.index("[good.cfg]") and "seed  7" in out


def test_report_lists_undecodable_files_and_goes_on(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_bytes(b"seed = \xff\n")
    (tmp_path / "bad.csv").write_bytes(b"t,ch0\n0,\xff\n")
    (tmp_path / "good.cfg").write_text("seed = 7\n")
    assert main(["report", "--in-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in ("bad.csv", "bad.cfg"):
        assert f"{name}: unreadable ({tmp_path / name}: not text: byte 0xff does not" in out
    assert "[good.cfg]" in out and "seed  7" in out


_FLOAT_FIELDS = [spec.name for spec in dataclasses.fields(RunConfig) if spec.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_run_config_validate_rejects_non_finite_floats(name, value):
    cfg = dataclasses.replace(RunConfig(), **{name: value})
    if name == "snr_db" and value == math.inf:
        cfg.validate()  # pos-inf is the documented "no noise"
        return
    with pytest.raises(ValueError, match=name):
        cfg.validate()


@pytest.mark.parametrize("flag, token", [
    ("--snr-db", "neg-inf"), ("--snr-db", "-4000"), ("--adc-full-scale", "nan"),
    ("--adc-full-scale", "pos-inf"), ("--diplex-rate", "pos-inf")])
def test_gen_rejects_non_finite_settings_before_writing(tmp_path, capsys, flag, token):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--out-dir", str(out), "--samples", "4096", flag, token]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name, args", [
    ("adc_bits", ["--adc-bits", "1"]), ("adc_bits", ["--adc-bits", "25"]),
    ("adc_full_scale", ["--adc-bits", "12", "--adc-full-scale", "0"])])
def test_gen_refuses_adc_settings_out_of_range_before_writing(tmp_path, capsys, name, args):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--out-dir", str(out), "--samples", "4096", *args]) == 2
    assert f"error: {name} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, flag, token, value", [
    # Above the 400 kHz envelope cutoff at f_het1 = 1 MHz, though below the carrier.
    ("lowpass_cutoff", "--lowpass-cutoff", "450000", 4.5e5),
    # Below the 100 MHz Nyquist rate, but its passband reaches 108 MHz.
    ("tone_b", "--tone-b", "90e6", 90.0e6),
    ("coupling", "--coupling", "1,1;1,1", np.ones((2, 2))),
    # Relative determinant 1e-300, though the row sum 1e300 squared overflows float64.
    ("coupling", "--coupling", "1e300,0;0,1", np.diag([1e300, 1.0])),
    # Subnormal band edges: the windowed-sinc angle 2 pi f / rate underflows.
    ("lowpass_cutoff", "--lowpass-cutoff", "1e-320", 1e-320),
    ("tone_b", "--tone-b", "1e-322", 1e-322),
    # Band edges a rounding apart: every bandpass tap is zero, so no gain scales them.
    ("diplex_band_frac", "--diplex-band-frac", "6e-17", 6e-17),
    # Entries near the float64 limit: the mixed record would overflow the
    # whitening, and the second's row sums must not overflow the singularity check.
    ("coupling", "--coupling", "1e308,0;0,1e308", np.diag([1e308, 1e308])),
    ("coupling", "--coupling", "1e308,1e308;1e308,-1e308",
     np.array([[1e308, 1e308], [1e308, -1e308]])),
    # The noise generator refuses a negative seed.
    ("seed", "--seed", "-1", -1),
    # Noise whose amplitude, times the coupling's largest absolute row sum,
    # passes the same bound: at the default coupling even -1280 dB does.
    ("snr_db", "--snr-db", "-2000", -2000.0),
    ("snr_db", "--snr-db", "-1280", -1280.0),
])
def test_validate_refuses_what_a_stage_refuses(tmp_path, capsys, name, flag, token, value):
    with pytest.raises(ValueError, match=rf"^{name} "):
        dataclasses.replace(RunConfig(), **{name: value}).validate()
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--out-dir", str(out), "--samples", "4096", flag, token]) == 2
    assert f"error: {name} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_coupling_at_the_row_sum_bound_runs_the_chain(tmp_path):
    # The largest accepted coupling runs gen, unmix and density with no overflow.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096", "--coupling", "1e64,0;0,1e64") == 0
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(run / "clean.bin"),
                 "--out-dir", str(run)]) == 0
    assert main(["density", "--in", str(run / "corrected.bin"), "--out-dir", str(run),
                 "--truth", str(run / "density_truth.csv")]) == 0
    with pytest.raises(ValueError, match="^coupling absolute row sums must be at most 1e"):
        RunConfig(coupling=np.array([[1e64, 1e63], [0.0, 1e64]])).validate()


@pytest.mark.filterwarnings("error")
def test_snr_at_the_amplitude_bound_runs_unmix(tmp_path):
    # Noise 1e64 times the signal's rms under a unit coupling is the largest
    # accepted. unmix runs it with no overflow; the noise leaves both
    # components peaked at one carrier, so identification fails (exit 3).
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096", "--coupling", "1,0;0,1", "--snr-db", "-1280") == 0
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(run / "clean.bin"),
                 "--out-dir", str(run)]) == 3
    with pytest.raises(ValueError, match="^snr_db -1280.001 takes the noise amplitude"):
        RunConfig(coupling=np.eye(2), snr_db=-1280.001).validate()


def test_run_config_validate_catches_cross_field_violations():
    with pytest.raises(ValueError, match="lowpass_cutoff"):
        RunConfig(lowpass_cutoff=2.0e6).validate()
    with pytest.raises(ValueError, match="tone"):
        RunConfig(tone_a=30.0e6, tone_b=30.0e6).validate()
    with pytest.raises(ValueError, match="coupling"):
        RunConfig(coupling=np.eye(3)).validate()
    RunConfig().validate()  # defaults are self-consistent


def _non_default(spec):
    """A valid RunConfig value for spec other than its default."""
    choices = spec.metadata.get("choices")
    if choices:
        return next(choice for choice in choices if choice != spec.default)
    return spec.default + 1 if spec.type == "int" else spec.default * 1.25


@pytest.mark.parametrize("kind, build", [
    (icdx.FastIcaConfig, RunConfig.ica),
    (icdx.InterferometerParams, RunConfig.interferometer)])
def test_value_types_take_run_config_fields_by_name(kind, build):
    settings = {spec.name: spec for spec in dataclasses.fields(RunConfig)}
    names = [spec.name for spec in dataclasses.fields(kind) if spec.name != "electron_radius"]
    assert set(names) <= set(settings)
    cfg = RunConfig(**{name: _non_default(settings[name]) for name in names})
    cfg.validate()
    built, default = build(cfg), kind()
    for name in names:
        assert getattr(built, name) == getattr(cfg, name) != getattr(default, name), name
    assert build(RunConfig()) == default  # the shared fields take the kind's defaults


@pytest.mark.parametrize("stage, names", [
    (icdx.demodulate, {name: name for name in (
        "filter_order", "envelope_order", "envelope_floor", "envelope_min_run")}),
    (icdx.fir_split, {"diplex_band_frac": "band_frac"}),
    (icdx.diplex, {"diplex_band_frac": "band_frac"}),
], ids=["demodulate", "fir_split", "diplex"])
def test_run_config_takes_the_stages_defaults(stage, names):
    # The settings the CLI passes to a stage by keyword default to that
    # stage's own keyword defaults.
    defaults = {name: spec.default for name, spec in inspect.signature(stage).parameters.items()}
    cfg = RunConfig()
    for name, keyword in names.items():
        assert getattr(cfg, name) == defaults[keyword], name


@pytest.mark.parametrize("command", ["gen", "mix", "unmix", "density", "diplex", "report"])
def test_help_lists_every_setting(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    for spec in dataclasses.fields(RunConfig):
        flag, text = "--" + spec.name.replace("_", "-"), spec.metadata["help"]
        # A flag with fixed choices shows them, such as {raw,csv}, in place of V.
        choices = spec.metadata.get("choices")
        shown = "{" + ",".join(choices) + "}" if choices else "V"
        assert text and re.search(
            rf"^  {flag} {re.escape(shown)}\s+{re.escape(text.split()[0])}", out, re.M), flag
    # The choices reach argparse too: a value outside them is refused by name.
    with pytest.raises(SystemExit) as stop:
        main([command, "--file-format", "hdf5"])
    assert stop.value.code == 2
    assert re.search(r"choose from '?raw'?, '?csv'?\)", capsys.readouterr().err)
