"""In-process exercises of the command-line pipeline driver."""

import dataclasses
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
    # A missing or misshapen --truth fails before the separation runs,
    # so no output is left without its quality.cfg and manifest.
    run = tmp_path / "run"
    assert _gen(run, "--samples", "4096") == 0
    clean = icdx.read_signal(run / "clean.bin")
    icdx.write_signal(run / "clean_short.bin", clean.with_data(clean.data[:, :2048]))
    out = tmp_path / "u"
    assert main(["unmix", "--in", str(run / "mixed.bin"), "--truth", str(tmp_path / truth),
                 "--out-dir", str(out)]) == code
    assert "error" in capsys.readouterr().err
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
])
def test_validate_refuses_what_a_stage_refuses(tmp_path, capsys, name, flag, token, value):
    with pytest.raises(ValueError, match=rf"^{name} "):
        dataclasses.replace(RunConfig(), **{name: value}).validate()
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--out-dir", str(out), "--samples", "4096", flag, token]) == 2
    assert f"error: {name} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
