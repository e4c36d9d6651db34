"""Command-line pipeline driver.

Subcommands:
  gen      synthesize a scenario: clean pair, mixed pair, ground-truth
           phase tracks, ground-truth density, and a manifest
  mix      re-mix an existing clean pair (coupling, noise, quantization)
  unmix    whiten + fixed-point ICA + component identification
  density  demodulate a corrected pair and form line-integrated density
  diplex   two-tone FIR split with ICA cleanup
  report   pretty-print the key-value and signal files in a directory

Configuration fields live in one flat namespace with documented
defaults. A --config file overrides defaults; long-form flags override
the file. Every run writes a manifest echoing each resolved field, and
re-running any subcommand from the same manifest and seed reproduces
outputs byte for byte (outputs carry no timestamps).

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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import demod, diplexer, fastica, fileio, metrics, preprocess, signalgen

__all__ = ["RunConfig", "main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4

_CHOICE_FIELDS = {
    "scenario": signalgen.SCENARIO_KINDS,
    "contrast": fastica.CONTRASTS,
    "ortho": fastica.ORTHO_MODES,
    "file_format": ("raw", "csv"),
}

_FIELD_HELP = {
    "scenario": "signal scenario to synthesize",
    "samples": "record length in samples",
    "sample_rate": "acquisition rate in Hz",
    "f_het1": "heterodyne carrier of channel 1 (long wavelength), Hz",
    "f_het2": "heterodyne carrier of channel 2 (short wavelength), Hz",
    "wavelength1": "probe wavelength of channel 1, m",
    "wavelength2": "probe wavelength of channel 2, m",
    "coupling": "channel coupling matrix, rows ';'-separated: \"1,0.4;0.3,1\"",
    "snr_db": "additive white noise level per channel, dB (pos-inf disables)",
    "adc_bits": "quantizer resolution in bits (0 disables quantization)",
    "adc_full_scale": "quantizer full-scale amplitude",
    "seed": "seed for every pseudo-random draw in the run",
    "contrast": "ICA contrast function",
    "contrast_shape": "log-cosh contrast shape parameter, in [1, 2]",
    "tol": "ICA convergence tolerance on 1 - |<w_new, w_old>|",
    "max_iter": "ICA iteration budget per unit",
    "ortho": "ICA orthogonalization strategy",
    "lowpass_cutoff": "demodulation lowpass cutoff, Hz",
    "decimation": "demodulation decimation factor",
    "filter_order": "demodulation lowpass FIR order",
    "envelope_order": "envelope-supervision FIR order",
    "envelope_floor": "tracking-lost threshold, fraction of median envelope",
    "envelope_min_run": "minimum consecutive below-floor samples to flag",
    "tone_a": "diplexer tone A frequency, Hz",
    "tone_b": "diplexer tone B frequency, Hz",
    "diplex_rate": "diplexer sample rate, Hz",
    "diplex_order": "diplexer bandpass FIR order",
    "diplex_band_frac": "diplexer passband half-width as a fraction of the tone",
    "diplex_samples": "diplexer record length when synthesizing the composite",
    "file_format": "signal file format for outputs",
}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Every tunable of the pipeline, with its default."""

    scenario: str = "shot-ramp"
    samples: int = 262144
    sample_rate: float = 8.0e6
    f_het1: float = 1.0e6
    f_het2: float = 1.1e6
    wavelength1: float = 10.591e-6
    wavelength2: float = 1.064e-6
    coupling: np.ndarray = None  # replaced in __post_init__
    snr_db: float = math.inf
    adc_bits: int = 0
    adc_full_scale: float = 2.0
    seed: int = 0
    contrast: str = "logcosh"
    contrast_shape: float = 1.0
    tol: float = 1e-8
    max_iter: int = 200
    ortho: str = "deflation"
    lowpass_cutoff: float = 4.0e4
    decimation: int = 8
    filter_order: int = 256
    envelope_order: int = 128
    envelope_floor: float = 0.2
    envelope_min_run: int = 4
    tone_a: float = 25.0e6
    tone_b: float = 40.0e6
    diplex_rate: float = 200.0e6
    diplex_order: int = 5
    diplex_band_frac: float = 0.2
    diplex_samples: int = 131072
    file_format: str = "raw"

    def __post_init__(self) -> None:
        coupling = [[1.0, 0.4], [0.3, 1.0]] if self.coupling is None else self.coupling
        coupling = np.asarray(coupling, dtype=np.float64)
        coupling.flags.writeable = False
        object.__setattr__(self, "coupling", coupling)

    def validate(self) -> None:
        """Range-check every field; raises ValueError on the first violation."""
        if not (16 <= self.samples <= 1 << 26):
            raise ValueError(f"samples must be in [16, {1 << 26}], got {self.samples}")
        for name, choices in _CHOICE_FIELDS.items():
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        # Interferometer geometry and ICA settings validate themselves.
        self.interferometer()
        self.ica()
        if self.coupling.shape != (2, 2):
            raise ValueError(f"coupling must be 2x2, got {self.coupling.shape}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.adc_bits != 0 and not (2 <= self.adc_bits <= 24):
            raise ValueError(f"adc_bits must be 0 or in [2, 24], got {self.adc_bits}")
        if self.adc_full_scale <= 0:
            raise ValueError(f"adc_full_scale must be positive, got {self.adc_full_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        low_carrier = min(self.f_het1, self.f_het2)
        if not (0.0 < self.lowpass_cutoff < low_carrier):
            raise ValueError(
                f"lowpass_cutoff must be in (0, {low_carrier}), got {self.lowpass_cutoff}")
        if self.decimation < 1:
            raise ValueError(f"decimation must be >= 1, got {self.decimation}")
        for name in ("filter_order", "envelope_order"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be >= 8, got {getattr(self, name)}")
        if not (0.0 < self.envelope_floor < 1.0):
            raise ValueError(
                f"envelope_floor must be in (0, 1), got {self.envelope_floor}")
        if self.envelope_min_run < 1:
            raise ValueError(
                f"envelope_min_run must be >= 1, got {self.envelope_min_run}")
        if self.tone_a == self.tone_b:
            raise ValueError("tone_a and tone_b must be distinct")
        nyq = 0.5 * self.diplex_rate
        for name in ("tone_a", "tone_b"):
            freq = getattr(self, name)
            if not (0.0 < freq < nyq):
                raise ValueError(f"{name} must be in (0, {nyq}), got {freq}")
        if not (0.0 < self.diplex_band_frac < 1.0):
            raise ValueError(
                f"diplex_band_frac must be in (0, 1), got {self.diplex_band_frac}")
        if self.diplex_order < 2:
            raise ValueError(f"diplex_order must be >= 2, got {self.diplex_order}")
        if not (1024 <= self.diplex_samples <= 1 << 26):
            raise ValueError(
                f"diplex_samples must be in [1024, {1 << 26}], got {self.diplex_samples}")

    def interferometer(self) -> signalgen.InterferometerParams:
        return signalgen.InterferometerParams(
            wavelength1=self.wavelength1,
            wavelength2=self.wavelength2,
            f_het1=self.f_het1,
            f_het2=self.f_het2,
            sample_rate=self.sample_rate,
        )

    def ica(self) -> fastica.FastIcaConfig:
        return fastica.FastIcaConfig(
            contrast=self.contrast,
            contrast_shape=self.contrast_shape,
            tol=self.tol,
            max_iter=self.max_iter,
            seed=self.seed,
            ortho=self.ortho,
        )

    def to_mapping(self) -> dict[str, object]:
        out: dict[str, object] = {"format_version": fileio.VERSION}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
        return out

    @staticmethod
    def parse_field(name: str, token: str) -> object:
        """Parse one field's text token; raises ValueError with context."""
        kind = _FIELD_TYPES.get(name)
        try:
            if kind == "np.ndarray":
                return fileio.parse_matrix(token)
            if kind == "int":
                return int(token)
            if kind == "str":
                return token
            # Remaining fields are floats; sentinel tokens allowed.
            return metrics.parse_metric_value(token)
        except ValueError as exc:
            raise ValueError(f"field {name!r}: cannot parse {token!r}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        kvf = fileio.read_kv(path)
        known = {spec.name for spec in fields(cls)}
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
                updates[key] = cls.parse_field(key, token)
            except ValueError as exc:
                raise fileio.ConfigError(str(exc), kvf.path, kvf.lines[key]) from exc
        return cls(**updates)

    def with_flag_overrides(self, args: argparse.Namespace) -> "RunConfig":
        updates: dict[str, object] = {}
        for spec in fields(self):
            token = getattr(args, spec.name, None)
            if token is not None:
                updates[spec.name] = self.parse_field(spec.name, token)
        return replace(self, **updates) if updates else self


# Annotation text per field (this module postpones annotations); the
# field's type decides how parse_field reads its token.
_FIELD_TYPES = {spec.name: spec.type for spec in fields(RunConfig)}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key-value configuration file")
    common.add_argument("--out-dir", metavar="DIR",
                        help="output directory (default: $ICDX_OUT_DIR or '.')")
    for spec in fields(RunConfig):
        flag = "--" + spec.name.replace("_", "-")
        extra = {}
        if spec.name in _CHOICE_FIELDS:
            extra["choices"] = _CHOICE_FIELDS[spec.name]
        common.add_argument(flag, metavar="V", dest=spec.name,
                            help=_FIELD_HELP[spec.name], **extra)

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
    clean = fileio.read_signal(args.input)
    if clean.channels != cfg.coupling.shape[0]:
        raise ValueError(
            f"input has {clean.channels} channels, coupling is "
            f"{cfg.coupling.shape[0]}x{cfg.coupling.shape[1]}")
    mixed = _corrupt(clean, cfg)
    mixed_path = out / _signal_name("mixed", cfg)
    fileio.write_signal(mixed_path, mixed)
    _finish(cfg, out / "mix_manifest.cfg", mixed_path)
    return _EXIT_OK


def _cmd_unmix(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    mixed = fileio.read_signal(args.input)
    if mixed.channels != 2:
        raise ValueError(f"unmix expects 2 channels, got {mixed.channels}")
    corrected, result, transform = fastica.separate(
        mixed, cfg.ica(), {"ch1": cfg.f_het1, "ch2": cfg.f_het2})

    corrected_path = out / _signal_name("corrected", cfg)
    fileio.write_signal(corrected_path, corrected)
    fileio.write_kv(out / "separation.cfg", result.to_mapping())
    fileio.write_kv(out / "whitening.cfg", transform.to_mapping())

    carriers = (cfg.f_het1, cfg.f_het2)
    depth_raw, depth_fixed = (
        tuple(metrics.envelope_depth(sig.data[i], carriers[i], sig.sample_rate)
              for i in range(2))
        for sig in (mixed, corrected))
    isr_db = None
    gain_error = None
    if args.truth:
        truth = fileio.read_signal(args.truth)
        if truth.channels != 2 or truth.length != corrected.length:
            raise ValueError("truth signal shape does not match the input")
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
        print(f"icdx: error: separation did not converge "
              f"(iterations {result.iterations})", file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


def _mask_lost(keep: np.ndarray, lost: tuple[tuple[int, int], ...], decimation: int) -> None:
    """Clear keep at every decimated sample taken inside a lost input range."""
    for start, stop in lost:
        keep[(start + decimation - 1) // decimation: (stop - 1) // decimation + 1] = False


def _cmd_density(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    corrected = fileio.read_signal(args.input)
    if corrected.channels != 2:
        raise ValueError(f"density expects 2 channels, got {corrected.channels}")
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
        truth_signal = fileio.read_signal(args.truth)
        if truth_signal.channels != 1:
            raise ValueError("truth density must be a single-channel file")
        truth = truth_signal.data[0][::cfg.decimation]
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
        ranges = "; ".join(
            f"ch{i + 1} {phase.lost_ranges}" for i, phase in enumerate(phases)
            if phase.lost_ranges)
        print(f"icdx: error: phase tracking lost ({status}): {ranges}",
              file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


def _cmd_diplex(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    if args.input:
        composite = fileio.read_signal(args.input)
        if composite.channels != 1:
            raise ValueError(
                f"diplex expects a single-channel composite, got {composite.channels}")
    else:
        t = np.arange(cfg.diplex_samples) / cfg.diplex_rate
        comp = (np.sin(2.0 * np.pi * cfg.tone_a * t)
                + np.sin(2.0 * np.pi * cfg.tone_b * t))
        composite = signalgen.MultichannelSignal(comp[None, :], cfg.diplex_rate)

    fir_only, separated = diplexer.diplex(
        composite, cfg.tone_a, cfg.tone_b, cfg.diplex_order, cfg.ica(),
        band_frac=cfg.diplex_band_frac)

    fir_path = out / _signal_name("diplex_fir_only", cfg)
    sep_path = out / _signal_name("diplex_separated", cfg)
    fileio.write_signal(fir_path, fir_only)
    fileio.write_signal(sep_path, separated)

    tones = (cfg.tone_a, cfg.tone_b)
    report: dict[str, object] = {}
    for i, name in enumerate(("tone_a", "tone_b")):
        own, other = tones[i], tones[1 - i]
        report[f"{name}_fir_residual_db"] = metrics.cross_tone_residual_db(
            fir_only.data[i], own, other, fir_only.sample_rate)
        report[f"{name}_ica_residual_db"] = metrics.cross_tone_residual_db(
            separated.data[i], own, other, separated.sample_rate)
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
