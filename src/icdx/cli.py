"""Command-line pipeline driver.

Subcommands:
  gen      synthesize a scenario: clean pair, mixed pair, ground-truth
           phase tracks, ground-truth density, and a manifest
  mix      re-mix an existing clean pair (coupling, noise, quantization)
  unmix    whiten + fixed-point ICA + component identification
  density  demodulate a corrected pair and form line-integrated density
  diplex   two-tone FIR split with ICA cleanup
  report   pretty-print the key-value and signal files in a directory

Configuration fields live in one flat namespace, the RunConfig fields;
each declares its default, its --help text and any fixed choices
together. A --config file overrides defaults; long-form flags override
the file. Before anything is written, RunConfig.validate() runs each
stage's own check on the settings it uses. Every run writes a manifest
echoing each resolved field, and re-running any subcommand from the
same manifest and seed reproduces outputs byte for byte (outputs carry
no timestamps).

Exit codes: 0 success, 2 configuration error, 3 numeric failure
(rank-deficient input, non-convergence, identification collision, lost
phase tracking), 4 file I/O or format error.

The output directory resolves in order: --out-dir flag, ICDX_OUT_DIR
environment variable, current directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import demod, diplexer, fastica, fileio, metrics, preprocess, signalgen

__all__ = ["RunConfig", "main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4


def _setting(default: object, help: str, choices: tuple[str, ...] | None = None) -> Any:
    """A RunConfig field: its default, its --help text and any fixed choices."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Every tunable of the pipeline, with its default."""

    scenario: str = _setting(
        "shot-ramp", "signal scenario to synthesize", signalgen.SCENARIO_KINDS)
    samples: int = _setting(262144, "record length in samples")
    sample_rate: float = _setting(8.0e6, "acquisition rate in Hz")
    f_het1: float = _setting(1.0e6, "heterodyne carrier of channel 1 (long wavelength), Hz")
    f_het2: float = _setting(1.1e6, "heterodyne carrier of channel 2 (short wavelength), Hz")
    wavelength1: float = _setting(10.591e-6, "probe wavelength of channel 1, m")
    wavelength2: float = _setting(1.064e-6, "probe wavelength of channel 2, m")
    coupling: np.ndarray = field(
        default_factory=lambda: [[1.0, 0.4], [0.3, 1.0]],
        metadata={"help": "channel coupling matrix, rows ';'-separated: \"1,0.4;0.3,1\""})
    snr_db: float = _setting(
        math.inf, "additive white noise level per channel, dB (pos-inf disables)")
    adc_bits: int = _setting(0, "quantizer resolution in bits (0 disables quantization)")
    adc_full_scale: float = _setting(2.0, "quantizer full-scale amplitude")
    seed: int = _setting(0, "seed for every pseudo-random draw in the run")
    contrast: str = _setting("logcosh", "ICA contrast function", fastica.CONTRASTS)
    contrast_shape: float = _setting(1.0, "log-cosh contrast shape parameter, in [1, 2]")
    tol: float = _setting(1e-8, "ICA convergence tolerance on 1 - |<w_new, w_old>|")
    max_iter: int = _setting(200, "ICA iteration budget per unit")
    ortho: str = _setting("deflation", "ICA orthogonalization strategy", fastica.ORTHO_MODES)
    lowpass_cutoff: float = _setting(4.0e4, "demodulation lowpass cutoff, Hz")
    decimation: int = _setting(8, "demodulation decimation factor")
    filter_order: int = _setting(256, "demodulation lowpass FIR order")
    envelope_order: int = _setting(128, "envelope-supervision FIR order")
    envelope_floor: float = _setting(0.2, "tracking-lost threshold, fraction of median envelope")
    envelope_min_run: int = _setting(4, "minimum consecutive below-floor samples to flag")
    tone_a: float = _setting(25.0e6, "diplexer tone A frequency, Hz")
    tone_b: float = _setting(40.0e6, "diplexer tone B frequency, Hz")
    diplex_rate: float = _setting(200.0e6, "diplexer sample rate, Hz")
    diplex_order: int = _setting(5, "diplexer bandpass FIR order")
    diplex_band_frac: float = _setting(
        0.2, "diplexer passband half-width as a fraction of the tone")
    diplex_samples: int = _setting(
        131072, "diplexer record length when synthesizing the composite")
    file_format: str = _setting("raw", "signal file format for outputs", ("raw", "csv"))

    def __post_init__(self) -> None:
        signalgen.own_arrays(self, coupling=2)

    def validate(self) -> None:
        """Range-check every field; raises ValueError naming the first bad field."""
        for name, low in (("samples", 16), ("diplex_samples", 1024)):
            value = getattr(self, name)
            if not (low <= value <= 1 << 26):
                raise ValueError(f"{name} must be in [{low}, {1 << 26}], got {value}")
        for spec in fields(self):
            choices = spec.metadata.get("choices")
            if choices is not None and getattr(self, spec.name) not in choices:
                raise ValueError(
                    f"{spec.name} must be one of {choices}, got {getattr(self, spec.name)!r}")
        # The value types and the stages range-check their own settings.
        self.interferometer()
        self.ica()
        signalgen._check_coupling(self.coupling, 2)
        signalgen._noise_power_ratio(self.snr_db)
        if self.adc_bits:  # 0 turns the quantizer off
            signalgen._check_adc(self.adc_bits, self.adc_full_scale)
        for name in ("adc_full_scale", "diplex_rate"):
            signalgen._check_positive(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for carrier in (self.f_het1, self.f_het2):
            demod._check_settings(carrier, self.lowpass_cutoff, self.decimation,
                                  self.sample_rate, self.filter_order, self.envelope_order,
                                  self.envelope_floor, self.envelope_min_run)
        try:
            diplexer._check_split(self.tone_a, self.tone_b, self.diplex_order,
                                  self.diplex_rate, self.diplex_band_frac)
        except ValueError as exc:  # named for fir_split, where two fields drop "diplex_"
            name, _, rest = str(exc).partition(" ")
            raise ValueError(f"diplex_{name} {rest}" if name in ("order", "band_frac")
                             else str(exc)) from exc

    def _shared(self, kind: type) -> Any:
        """A kind built from the fields it shares with RunConfig by name."""
        mine = {spec.name for spec in fields(self)}
        return kind(**{spec.name: getattr(self, spec.name)
                       for spec in fields(kind) if spec.name in mine})

    def interferometer(self) -> signalgen.InterferometerParams:
        return self._shared(signalgen.InterferometerParams)

    def ica(self) -> fastica.FastIcaConfig:
        return self._shared(fastica.FastIcaConfig)

    def to_mapping(self) -> dict[str, object]:
        out: dict[str, object] = {"format_version": fileio.VERSION}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
        return out

    @staticmethod
    def parse_field(spec: Field, token: str) -> object:
        """Parse one field's text token; raises ValueError with context."""
        name, kind = spec.name, spec.type  # annotation text: annotations are postponed
        # Remaining fields are floats; sentinel tokens allowed.
        parse = {"np.ndarray": fileio.parse_matrix, "int": int, "str": str}.get(
            kind, metrics.parse_metric_value)
        try:
            value = parse(token)
        except ValueError as exc:
            raise ValueError(f"field {name!r}: cannot parse {token!r}") from exc
        if kind == "np.ndarray" and not np.all(np.isfinite(value)):
            raise ValueError(f"field {name!r}: {name} must be finite, got {token!r}")
        return value

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        kvf = fileio.read_kv(path)
        known = {spec.name: spec for spec in fields(cls)}
        updates: dict[str, object] = {}
        for key, token in kvf.values.items():
            if key == "format_version":
                if token != str(fileio.VERSION):
                    raise fileio.ConfigError(
                        f"unsupported format_version {token!r}",
                        kvf.path, kvf.lines[key])
                continue
            if key not in known:
                raise fileio.ConfigError(
                    f"unknown configuration key {key!r}", kvf.path, kvf.lines[key])
            try:
                updates[key] = cls.parse_field(known[key], token)
            except ValueError as exc:
                raise fileio.ConfigError(str(exc), kvf.path, kvf.lines[key]) from exc
        return cls(**updates)

    def with_flag_overrides(self, args: argparse.Namespace) -> "RunConfig":
        updates: dict[str, object] = {}
        for spec in fields(self):
            token = getattr(args, spec.name, None)
            if token is not None:
                updates[spec.name] = self.parse_field(spec, token)
        return replace(self, **updates) if updates else self


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key-value configuration file")
    common.add_argument("--out-dir", metavar="DIR",
                        help="output directory (default: $ICDX_OUT_DIR or '.')")
    for spec in fields(RunConfig):
        common.add_argument("--" + spec.name.replace("_", "-"), dest=spec.name,
                            metavar=None if spec.metadata.get("choices") else "V", **spec.metadata)

    parser = argparse.ArgumentParser(
        prog="icdx",
        description="Two-color interferometer crosstalk removal pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="synthesize a scenario and its ground truth")
    p_gen.set_defaults(handler=_cmd_gen)

    p_mix = sub.add_parser("mix", parents=[common],
                           help="apply coupling, noise, and quantization to a clean pair")
    p_mix.add_argument("--in", dest="input", required=True, metavar="PATH",
                       help="clean two-channel signal file")
    p_mix.set_defaults(handler=_cmd_mix)

    p_unmix = sub.add_parser("unmix", parents=[common],
                             help="separate a mixed pair with fixed-point ICA")
    p_unmix.add_argument("--in", dest="input", required=True, metavar="PATH",
                         help="mixed two-channel signal file")
    p_unmix.add_argument("--truth", metavar="PATH",
                         help="clean pair for quality metrics (optional)")
    p_unmix.set_defaults(handler=_cmd_unmix)

    p_density = sub.add_parser("density", parents=[common],
                               help="demodulate a pair and form line-integrated density")
    p_density.add_argument("--in", dest="input", required=True, metavar="PATH",
                           help="corrected two-channel signal file")
    p_density.add_argument("--truth", metavar="PATH",
                           help="ground-truth density CSV for error metrics (optional)")
    p_density.set_defaults(handler=_cmd_density)

    p_diplex = sub.add_parser("diplex", parents=[common],
                              help="split a two-tone composite, FIR plus ICA")
    p_diplex.add_argument("--in", dest="input", metavar="PATH",
                          help="single-channel composite (synthesized when omitted)")
    p_diplex.set_defaults(handler=_cmd_diplex)

    p_report = sub.add_parser("report", parents=[common],
                              help="pretty-print result files in a directory")
    p_report.add_argument("--in-dir", dest="input_dir", metavar="DIR",
                          help="directory to inspect (default: the output directory)")
    p_report.set_defaults(handler=_cmd_report)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_flag_overrides(args)
    cfg.validate()
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(args.out_dir or os.environ.get("ICDX_OUT_DIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _signal_name(stem: str, cfg: RunConfig) -> str:
    return f"{stem}.{'csv' if cfg.file_format == 'csv' else 'bin'}"


def _finish(cfg: RunConfig, manifest: Path, *written: Path) -> None:
    """Write the run's manifest, then list every file written, manifest last."""
    fileio.write_kv(manifest, cfg.to_mapping())
    for path in (*written, manifest):
        print(f"wrote {path}")


def _read(path: str, channels: int) -> signalgen.MultichannelSignal:
    """The signal file at path; ValueError unless it holds that many channels."""
    signal = fileio.read_signal(path)
    if signal.channels != channels:
        raise ValueError(f"{path} must hold {channels} channel(s), got {signal.channels}")
    return signal


def _corrupt(clean: signalgen.MultichannelSignal, cfg: RunConfig) -> signalgen.MultichannelSignal:
    """The measurement chain: coupling, then noise, then quantization."""
    mixed = signalgen.apply_crosstalk(clean, cfg.coupling)
    if math.isfinite(cfg.snr_db):
        mixed = signalgen.add_awgn(mixed, cfg.snr_db, cfg.seed)
    if cfg.adc_bits:
        mixed = signalgen.quantize_adc(mixed, cfg.adc_bits, cfg.adc_full_scale)
    return mixed


def _cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    params = cfg.interferometer()
    track1, track2 = signalgen.make_scenario_tracks(
        cfg.scenario, cfg.samples, cfg.sample_rate, params)
    clean = signalgen.synth_clean_pair(params, track1, track2)
    mixed = _corrupt(clean, cfg)

    clean_path = out / _signal_name("clean", cfg)
    mixed_path = out / _signal_name("mixed", cfg)
    fileio.write_signal(clean_path, clean)
    fileio.write_signal(mixed_path, mixed)
    tracks = signalgen.MultichannelSignal(
        np.vstack([track1.samples, track2.samples]), cfg.sample_rate)
    tracks_path = out / "tracks.csv"
    fileio.write_signal(tracks_path, tracks)
    density = signalgen.MultichannelSignal(
        params.line_density(track1.samples, track2.samples)[None, :], cfg.sample_rate)
    density_path = out / "density_truth.csv"
    fileio.write_signal(density_path, density)
    _finish(cfg, out / "manifest.cfg", clean_path, mixed_path, tracks_path, density_path)
    return _EXIT_OK


def _cmd_mix(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    mixed = _corrupt(fileio.read_signal(args.input), cfg)
    mixed_path = out / _signal_name("mixed", cfg)
    fileio.write_signal(mixed_path, mixed)
    _finish(cfg, out / "mix_manifest.cfg", mixed_path)
    return _EXIT_OK


def _cmd_unmix(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    mixed = _read(args.input, 2)
    truth = fileio.read_signal(args.truth) if args.truth else None
    if truth is not None and truth.data.shape != mixed.data.shape:
        raise ValueError("truth signal shape does not match the input")
    # One transform per input channel serves all four depths: above DC, the
    # corrected channels' bins are w_full times these. Taken first, it lets
    # the depths' buffers reuse heap pages instead of faulting in fresh ones.
    spectrum = mixed.spectrum()
    corrected, result, transform = fastica.separate(
        mixed, cfg.ica(), {"ch1": cfg.f_het1, "ch2": cfg.f_het2})

    corrected_path = out / _signal_name("corrected", cfg)
    fileio.write_signal(corrected_path, corrected)
    fileio.write_kv(out / "separation.cfg", result.to_mapping())
    fileio.write_kv(out / "whitening.cfg", transform.to_mapping())

    unmixing = result.assignment.apply_rows(result.w_full)
    depth_raw, depth_fixed = [], []
    for i, carrier in enumerate((cfg.f_het1, cfg.f_het2)):
        band = metrics.carrier_band(mixed.length, mixed.sample_rate, carrier)
        depth_raw.append(metrics.envelope_depth(
            mixed.data[i], carrier, mixed.sample_rate, band_spectrum=spectrum[i, band]))
        depth_fixed.append(metrics.envelope_depth(
            corrected.data[i], carrier, corrected.sample_rate,
            band_spectrum=unmixing[i] @ spectrum[:, band]))
    isr_db = None
    gain_error = None
    if truth is not None:
        isr_db = tuple(
            metrics.isr(corrected.data[i], truth.data[i]) for i in range(2))
        scales = np.sqrt(np.mean(truth.data**2, axis=1))
        gain = result.w_full @ cfg.coupling @ np.diag(scales)
        gain_error = metrics.signed_permutation_error(
            result.assignment.apply_rows(gain))[2]
    # Truth-dependent entries (None without --truth) are left out.
    report = {
        "iterations": result.iterations,
        "converged": result.converged,
        "isr_db": isr_db,
        "envelope_depth_raw": depth_raw,
        "envelope_depth_corrected": depth_fixed,
        "gain_error": gain_error,
    }
    fileio.write_kv(out / "quality.cfg",
                    {key: value for key, value in report.items() if value is not None})
    _finish(cfg, out / "unmix_manifest.cfg", corrected_path, out / "separation.cfg",
            out / "whitening.cfg", out / "quality.cfg")
    if not all(result.converged):
        raise fastica.ConvergenceError(
            f"separation did not converge (iterations {result.iterations})")
    return _EXIT_OK


def _mask_lost(keep: np.ndarray, lost: tuple[tuple[int, int], ...], decimation: int) -> None:
    """Clear keep at every decimated sample taken inside a lost input range."""
    for start, stop in lost:
        keep[(start + decimation - 1) // decimation: (stop - 1) // decimation + 1] = False


def _cmd_density(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    corrected = _read(args.input, 2)
    params = cfg.interferometer()
    carriers = (cfg.f_het1, cfg.f_het2)
    phases = []
    for i in range(2):
        phases.append(demod.demodulate(
            corrected.data[i], carriers[i], cfg.lowpass_cutoff, cfg.decimation,
            corrected.sample_rate,
            filter_order=cfg.filter_order,
            envelope_order=cfg.envelope_order,
            envelope_floor=cfg.envelope_floor,
            envelope_min_run=cfg.envelope_min_run,
            strict=False,
        ))
    density = demod.line_integrated_density(phases[0], phases[1], params)
    if density.steady().size == 0:
        raise ValueError(
            f"no steady density: {len(density)} decimated samples, {density.settle} "
            "settle at each end; use a longer record or a smaller decimation")

    lost_samples = [
        sum(stop - start for start, stop in phase.lost_ranges) for phase in phases]
    lost_fraction = max(lost_samples) / corrected.length
    if lost_fraction == 0.0:
        status = "ok"
    elif lost_fraction < 0.5:
        status = "partial"
    else:
        status = "failed"

    density_path = out / "density.csv"
    fileio.write_signal(density_path, signalgen.MultichannelSignal(
        density.samples[None, :], density.sample_rate))

    report: dict[str, object] = {
        "status": status,
        "settle": density.settle,
        "decimation": cfg.decimation,
        "lost_fraction": lost_fraction,
    }
    for i, phase in enumerate(phases, start=1):
        report[f"ch{i}_lost_ranges"] = " ".join(
            f"{start}:{stop}" for start, stop in phase.lost_ranges) or "none"
    if args.truth:
        truth = _read(args.truth, 1).data[0][::cfg.decimation]
        if truth.shape[0] != len(density):
            raise ValueError("truth density length does not match the input record")
        keep = np.zeros(len(density), dtype=bool)
        keep[density.settle: len(density) - density.settle] = True
        for phase in phases:
            _mask_lost(keep, phase.lost_ranges, cfg.decimation)
        if np.any(keep):
            err = density.samples[keep] - truth[keep]
            report["rms_error"] = float(np.sqrt(np.mean(err**2)))
            report["truth_rms"] = float(np.sqrt(np.mean(truth[keep] ** 2)))
    fileio.write_kv(out / "density_report.cfg", report)
    _finish(cfg, out / "density_manifest.cfg", density_path, out / "density_report.cfg")
    if status != "ok":
        ranges = "; ".join(f"ch{i} {phase.lost_ranges}"
                           for i, phase in enumerate(phases, start=1) if phase.lost_ranges)
        raise demod.PhaseTrackingLostError(f"phase tracking lost ({status}): {ranges}",
                                           phases[0].lost_ranges + phases[1].lost_ranges)
    return _EXIT_OK


def _cmd_diplex(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    if args.input:
        signal = _read(args.input, 1)
        composite, rate = signal.data[0], signal.sample_rate
    else:
        t = np.arange(cfg.diplex_samples) / cfg.diplex_rate
        composite = (np.sin(2.0 * np.pi * cfg.tone_a * t)
                     + np.sin(2.0 * np.pi * cfg.tone_b * t))
        rate = cfg.diplex_rate

    fir_only, separated, residual_db = diplexer.diplex(
        composite, cfg.tone_a, cfg.tone_b, cfg.diplex_order, cfg.ica(), rate,
        band_frac=cfg.diplex_band_frac)

    fir_path = out / _signal_name("diplex_fir_only", cfg)
    sep_path = out / _signal_name("diplex_separated", cfg)
    fileio.write_signal(fir_path, fir_only)
    fileio.write_signal(sep_path, separated)

    report: dict[str, object] = {}
    for i, name in enumerate(("tone_a", "tone_b")):
        report[f"{name}_fir_residual_db"] = residual_db["fir"][i]
        report[f"{name}_ica_residual_db"] = residual_db["ica"][i]
        report[f"{name}_mean"] = float(np.mean(separated.data[i]))
        report[f"{name}_peak"] = float(np.max(np.abs(separated.data[i])))
    fileio.write_kv(out / "diplex_report.cfg", report)
    _finish(cfg, out / "diplex_manifest.cfg", fir_path, sep_path, out / "diplex_report.cfg")
    return _EXIT_OK


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    directory = Path(args.input_dir) if args.input_dir else _out_dir(args)
    if not directory.is_dir():
        raise OSError(f"not a directory: {directory}")
    kv_paths = sorted(directory.glob("*.cfg"))
    signal_paths = sorted([*directory.glob("*.bin"), *directory.glob("*.csv")])
    if not kv_paths and not signal_paths:
        print(f"nothing to report in {directory}")
        return _EXIT_OK
    for path in signal_paths:
        try:
            signal = fileio.read_signal(path)
        except (fileio.FormatError, OSError) as exc:
            print(f"{path.name}: unreadable ({exc})")
            continue
        print(f"{path.name}: {signal.channels} channel(s) x {signal.length} "
              f"samples @ {signal.sample_rate:g} Hz")
    for path in kv_paths:
        kvf = fileio.read_kv(path)
        print(f"\n[{path.name}]")
        width = max((len(k) for k in kvf.values), default=0)
        for key, value in kvf.values.items():
            print(f"  {key:<{width}}  {value}")
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except (preprocess.RankDeficientError, fastica.ConvergenceError,
            fastica.IdentificationError, demod.PhaseTrackingLostError) as exc:
        print(f"icdx: error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (fileio.FormatError, OSError) as exc:
        print(f"icdx: error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ValueError as exc:  # fileio.ConfigError included
        print(f"icdx: error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
