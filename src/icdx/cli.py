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

Exit codes: 0 success, 2 configuration error (a wrong channel count in
--in or --truth, or a --truth at another rate or length, included), 3
numeric failure (rank-deficient input, non-convergence, identification
collision, lost phase tracking), 4 file I/O or format error. unmix and
density write their outputs before exit 3; diplex raises before it has
any to write. unmix reads --truth after separating, as density does
after demodulating: a refused truth still exits 2 or 4 with nothing
written, but a separation that raises exits 3 first, and a missing or
mistyped --truth is only reported once the separation has run.

The output directory resolves in order: --out-dir flag, ICDX_OUT_DIR
environment variable, current directory. Only a run that writes creates
it, once every input is read and checked: a refused setting or input
(exit 2 or 4) leaves nothing, not even the directory. report only reads.
"""

from __future__ import annotations

import argparse
import inspect
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
_COUPLING_ROW_SUM = 1e64
_COLLINEAR = 1e-12  # unmix --truth: least 1 - r^2 of the centred truth pair
_PARAMS, _ICA = signalgen.InterferometerParams, fastica.FastIcaConfig
_DEMOD, _SPLIT = demod.demodulate.__kwdefaults__, inspect.signature(diplexer.diplex).parameters


def _setting(default: object, help: str, choices: tuple[str, ...] | None = None) -> Any:
    """A RunConfig field: its default, its --help text and any fixed choices."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Every tunable of the pipeline, with its default."""

    scenario: str = _setting(
        "shot-ramp", "signal scenario to synthesize", signalgen.SCENARIO_KINDS)
    samples: int = _setting(262144, "record length in samples")
    sample_rate: float = _setting(_PARAMS.sample_rate, "acquisition rate in Hz")
    f_het1: float = _setting(
        _PARAMS.f_het1, "heterodyne carrier of channel 1 (long wavelength), Hz")
    f_het2: float = _setting(
        _PARAMS.f_het2, "heterodyne carrier of channel 2 (short wavelength), Hz")
    wavelength1: float = _setting(_PARAMS.wavelength1, "probe wavelength of channel 1, m")
    wavelength2: float = _setting(_PARAMS.wavelength2, "probe wavelength of channel 2, m")
    coupling: np.ndarray = field(
        default_factory=lambda: [[1.0, 0.4], [0.3, 1.0]],
        metadata={"help": "channel coupling matrix, rows ';'-separated: \"1,0.4;0.3,1\""})
    snr_db: float = _setting(
        math.inf, "additive white noise level per channel, dB (pos-inf disables)")
    adc_bits: int = _setting(0, "quantizer resolution in bits (0 disables quantization)")
    adc_full_scale: float = _setting(2.0, "quantizer full-scale amplitude")
    seed: int = _setting(_ICA.seed, "seed for every pseudo-random draw in the run")
    contrast: str = _setting(_ICA.contrast, "ICA contrast function", fastica.CONTRASTS)
    contrast_shape: float = _setting(
        _ICA.contrast_shape, "log-cosh contrast shape parameter, in [1, 2]")
    tol: float = _setting(_ICA.tol, "ICA convergence tolerance on 1 - |<w_new, w_old>|")
    max_iter: int = _setting(_ICA.max_iter, "ICA iteration budget per unit")
    ortho: str = _setting(_ICA.ortho, "ICA orthogonalization strategy", fastica.ORTHO_MODES)
    lowpass_cutoff: float = _setting(4.0e4, "demodulation lowpass cutoff, Hz")
    decimation: int = _setting(8, "demodulation decimation factor")
    filter_order: int = _setting(_DEMOD["filter_order"], "demodulation lowpass FIR order")
    envelope_order: int = _setting(_DEMOD["envelope_order"], "envelope-supervision FIR order")
    envelope_floor: float = _setting(
        _DEMOD["envelope_floor"], "tracking-lost threshold, fraction of median envelope")
    envelope_min_run: int = _setting(
        _DEMOD["envelope_min_run"], "minimum consecutive below-floor samples to flag")
    tone_a: float = _setting(25.0e6, "diplexer tone A frequency, Hz")
    tone_b: float = _setting(40.0e6, "diplexer tone B frequency, Hz")
    diplex_rate: float = _setting(200.0e6, "diplexer sample rate, Hz")
    diplex_order: int = _setting(5, "diplexer bandpass FIR order")
    diplex_band_frac: float = _setting(
        _SPLIT["band_frac"].default, "diplexer passband half-width as a fraction of the tone")
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
        # Whitening squares the mixed record's covariance, a sum of squares:
        # this bound on its amplitude, the coupling's largest absolute row sum
        # times the noise's rms over the signal's where that exceeds 1, keeps
        # those fourth powers finite up to 2^26 samples.
        row_sum = np.max(np.sum(np.abs(self.coupling) / _COUPLING_ROW_SUM, axis=1))
        if row_sum > 1.0:
            raise ValueError(f"coupling absolute row sums must be at most {_COUPLING_ROW_SUM:g}")
        if row_sum * max(1.0, math.sqrt(signalgen._noise_power_ratio(self.snr_db))) > 1.0:
            raise ValueError(f"snr_db {self.snr_db!r} takes the noise amplitude, times the "
                             f"coupling's largest absolute row sum, past {_COUPLING_ROW_SUM:g}")
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

    for name, (_, text, _, paths) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=text)
        for flag, dest, required, metavar, about in paths:
            command.add_argument(flag, dest=dest, required=required, metavar=metavar, help=about)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_flag_overrides(args)
    cfg.validate()
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out_dir or os.environ.get("ICDX_OUT_DIR") or ".")


# A handler's outputs for _emit, and the exit-3 failure main raises after writing them.
_Outputs = dict[str, signalgen.MultichannelSignal | dict[str, object]]
_Run = tuple[_Outputs, Exception | None]


def _emit(args: argparse.Namespace, cfg: RunConfig, manifest: str, outputs: _Outputs) -> None:
    """A run's only writes: its outputs in order, then its manifest, each listed.

    A name without a suffix takes the signal format of --file-format.
    """
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if cfg.file_format == "csv" else ".bin"
    paths = {out / (name if "." in name else name + suffix): value
             for name, value in {**outputs, manifest: cfg.to_mapping()}.items()}
    for path, value in paths.items():
        if isinstance(value, signalgen.MultichannelSignal):
            fileio.write_signal(path, value)
        else:
            fileio.write_kv(path, value)
    print("\n".join(f"wrote {path}" for path in paths))


def _read(path: str, channels: int,
          record: signalgen.MultichannelSignal | None = None) -> signalgen.MultichannelSignal:
    """The signal at path, checked: its channels and, as record's truth, rate and length."""
    signal = fileio.read_signal(path)
    if signal.channels != channels:
        raise ValueError(f"{path} must hold {channels} channel(s), got {signal.channels}")
    if record is not None:
        signalgen._check_same_rate("truth", signal.sample_rate, "input", record.sample_rate)
        if signal.length != record.length:
            raise ValueError(f"{path} must hold {record.length} samples, got {signal.length}")
    return signal


def _corrupt(clean: signalgen.MultichannelSignal, cfg: RunConfig) -> signalgen.MultichannelSignal:
    """The measurement chain: coupling, then noise, then quantization."""
    mixed = signalgen.apply_crosstalk(clean, cfg.coupling)
    if math.isfinite(cfg.snr_db):
        mixed = signalgen.add_awgn(mixed, cfg.snr_db, cfg.seed)
    if cfg.adc_bits:
        mixed = signalgen.quantize_adc(mixed, cfg.adc_bits, cfg.adc_full_scale)
    return mixed


def _cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> _Run:
    params = cfg.interferometer()
    track1, track2 = signalgen.make_scenario_tracks(
        cfg.scenario, cfg.samples, cfg.sample_rate, params)
    clean = signalgen.synth_clean_pair(params, track1, track2)
    return {
        "clean": clean,
        "mixed": _corrupt(clean, cfg),
        "tracks.csv": signalgen.MultichannelSignal(
            np.vstack([track1.samples, track2.samples]), cfg.sample_rate),
        "density_truth.csv": signalgen.MultichannelSignal(
            params.line_density(track1.samples, track2.samples)[None, :], cfg.sample_rate),
    }, None


def _cmd_mix(args: argparse.Namespace, cfg: RunConfig) -> _Run:
    return {"mixed": _corrupt(_read(args.input, 2), cfg)}, None


def _cmd_unmix(args: argparse.Namespace, cfg: RunConfig) -> _Run:
    mixed = _read(args.input, 2)
    # One transform per input channel serves all four depths: above DC, the
    # corrected channels' bins are w_full times these. Only the bins from
    # the lower carrier band's first to the upper one's last are kept. One
    # record is alive at a time: the mixed one is dropped after separating.
    carriers = (cfg.f_het1, cfg.f_het2)
    bands = [metrics.carrier_band(mixed.length, mixed.sample_rate, carrier)
             for carrier in carriers]
    first = min(band.start for band in bands)
    spectrum = mixed.spectrum(slice(first, max(band.stop for band in bands)))
    rows = [spectrum[:, band.start - first: band.stop - first] for band in bands]
    expected = {"ch1": cfg.f_het1, "ch2": cfg.f_het2}
    try:
        depth_raw = [metrics.envelope_depth(mixed.data[i], carrier, mixed.sample_rate,
                                            band_spectrum=rows[i][i])
                     for i, carrier in enumerate(carriers)]
    except ValueError:  # a failing separation's exit 3 comes first
        fastica.separate(mixed, cfg.ica(), expected)
        raise
    corrected, result, transform = fastica.separate(mixed, cfg.ica(), expected)
    del mixed
    unmixing = result.assignment.apply_rows(result.w_full)
    depth_fixed = [metrics.envelope_depth(corrected.data[i], carrier, corrected.sample_rate,
                                          band_spectrum=unmixing[i] @ rows[i])
                   for i, carrier in enumerate(carriers)]
    del spectrum, rows
    isr_db = gain_error = None
    if args.truth:  # read only now, against corrected: its rate and length are the input's
        truth = _read(args.truth, 2, corrected)
        isr_db = tuple(metrics.isr(corrected.data[i], truth.data[i]) for i in range(2))
        # The gain, measured: the least-squares map from the centred truth to
        # the corrected pair (rows in slot order), each column times its rms.
        # It has none where a truth channel is constant or the two are
        # collinear: 1 - r^2 of the centred pair, free of scale and of n,
        # at or below _COLLINEAR.
        clean, n = truth.data, truth.length
        flat = np.ptp(clean, axis=1) == 0
        if np.any(flat):
            raise ValueError(f"{args.truth} channel {np.argmax(flat) + 1} is constant")
        mean, gram = np.mean(clean, axis=1), clean @ clean.T
        centred = gram - n * np.outer(mean, mean)
        spread = np.sqrt(np.diag(centred))
        unshared = 1.0 - (centred[0, 1] / spread[0] / spread[1]) ** 2
        if not unshared > _COLLINEAR:  # NaN included: a centred power rounded below 0
            raise ValueError(f"{args.truth} channels are collinear: 1 - r^2 of the "
                             f"centred pair is {unshared:.3g}, at most {_COLLINEAR:g}")
        gain = (corrected.data @ clean.T) @ np.linalg.inv(centred) * np.sqrt(np.diag(gram) / n)
        gain_error = metrics.signed_permutation_error(gain)[2]
    # Truth-dependent entries (None without --truth) are left out.
    report = {
        "iterations": result.iterations,
        "converged": result.converged,
        "isr_db": isr_db,
        "envelope_depth_raw": depth_raw,
        "envelope_depth_corrected": depth_fixed,
        "gain_error": gain_error,
    }
    return {
        "corrected": corrected,
        "separation.cfg": result.to_mapping(),
        "whitening.cfg": transform.to_mapping(),
        "quality.cfg": {key: value for key, value in report.items() if value is not None},
    }, None if all(result.converged) else fastica.ConvergenceError(
        f"separation did not converge (iterations {result.iterations})")


def _mask_lost(keep: np.ndarray, lost: tuple[tuple[int, int], ...], decimation: int) -> None:
    """Clear keep at every decimated sample taken inside a lost input range."""
    for start, stop in lost:
        keep[(start + decimation - 1) // decimation: (stop - 1) // decimation + 1] = False


def _cmd_density(args: argparse.Namespace, cfg: RunConfig) -> _Run:
    corrected = _read(args.input, 2)
    phases = [demod.demodulate(
        corrected.data[i], carrier, cfg.lowpass_cutoff, cfg.decimation, corrected.sample_rate,
        filter_order=cfg.filter_order, envelope_order=cfg.envelope_order,
        envelope_floor=cfg.envelope_floor, envelope_min_run=cfg.envelope_min_run, strict=False)
        for i, carrier in enumerate((cfg.f_het1, cfg.f_het2))]
    density = demod.line_integrated_density(phases[0], phases[1], cfg.interferometer())
    if density.steady().size == 0:
        raise ValueError(
            f"no steady density: {len(density)} decimated samples, {density.settle} "
            "settle at each end; use a longer record or a smaller decimation")
    if args.truth:  # read only now: the demodulation's buffers are gone
        truth = _read(args.truth, 1, corrected).data[0][::cfg.decimation]

    lost_samples = [
        sum(stop - start for start, stop in phase.lost_ranges) for phase in phases]
    lost_fraction = max(lost_samples) / corrected.length
    # demodulate flags only middle samples below envelope_floor (< 1) times
    # their median, fewer than half the record: a run is ok or partial.
    status = "partial" if lost_fraction else "ok"

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
        keep = np.zeros(len(density), dtype=bool)
        keep[density.settle: len(density) - density.settle] = True
        for phase in phases:
            _mask_lost(keep, phase.lost_ranges, cfg.decimation)
        if np.any(keep):
            err = density.samples[keep] - truth[keep]
            report["rms_error"] = float(np.sqrt(np.mean(err**2)))
            report["truth_rms"] = float(np.sqrt(np.mean(truth[keep] ** 2)))
    ranges = "; ".join(f"ch{i} {phase.lost_ranges}"
                       for i, phase in enumerate(phases, start=1) if phase.lost_ranges)
    return {
        "density.csv": signalgen.MultichannelSignal(
            density.samples[None, :], density.sample_rate),
        "density_report.cfg": report,
    }, None if status == "ok" else demod.PhaseTrackingLostError(
        f"phase tracking lost ({status}): {ranges}",
        phases[0].lost_ranges + phases[1].lost_ranges)


def _cmd_diplex(args: argparse.Namespace, cfg: RunConfig) -> _Run:
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

    report: dict[str, object] = {}
    for i, (name, row) in enumerate(zip(("tone_a", "tone_b"), separated.data)):
        report[f"{name}_fir_residual_db"] = residual_db["fir"][i]
        report[f"{name}_ica_residual_db"] = residual_db["ica"][i]
        report[f"{name}_mean"] = float(np.mean(row))
        report[f"{name}_peak"] = float(max(row.max(), -row.min()))  # no |row| temporary
    return {
        "diplex_fir_only": fir_only,
        "diplex_separated": separated,
        "diplex_report.cfg": report,
    }, None


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> _Run:
    directory = Path(args.input_dir) if args.input_dir else _out_dir(args)
    if not directory.is_dir():
        raise OSError(f"not a directory: {directory}")
    kv_paths = sorted(directory.glob("*.cfg"))
    signal_paths = sorted([*directory.glob("*.bin"), *directory.glob("*.csv")])
    if not kv_paths and not signal_paths:
        print(f"nothing to report in {directory}")
    for path in signal_paths:
        try:
            signal = fileio.read_signal(path)
        except (fileio.FormatError, OSError) as exc:
            print(f"{path.name}: unreadable ({exc})")
            continue
        print(f"{path.name}: {signal.channels} channel(s) x {signal.length} "
              f"samples @ {signal.sample_rate:g} Hz")
    for path in kv_paths:
        try:
            kvf = fileio.read_kv(path)
        except (fileio.ConfigError, OSError) as exc:
            print(f"\n{path.name}: unreadable ({exc})")
            continue
        print(f"\n[{path.name}]")
        width = max((len(k) for k in kvf.values), default=0)
        for key, value in kvf.values.items():
            print(f"  {key:<{width}}  {value}")
    return {}, None


# Each subcommand in --help order: its handler, help line, manifest (None:
# it only reads) and path arguments as (flag, dest, required, metavar, help).
_COMMANDS: dict[str, tuple[Any, str, str | None, list[tuple[str, str, bool, str, str]]]] = {
    "gen": (_cmd_gen, "synthesize a scenario and its ground truth", "manifest.cfg", []),
    "mix": (_cmd_mix, "apply coupling, noise, and quantization to a clean pair",
            "mix_manifest.cfg", [
        ("--in", "input", True, "PATH", "clean two-channel signal file")]),
    "unmix": (_cmd_unmix, "separate a mixed pair with fixed-point ICA", "unmix_manifest.cfg", [
        ("--in", "input", True, "PATH", "mixed two-channel signal file"),
        ("--truth", "truth", False, "PATH", "clean pair for quality metrics (optional)")]),
    "density": (_cmd_density, "demodulate a pair and form line-integrated density",
                "density_manifest.cfg", [
        ("--in", "input", True, "PATH", "corrected two-channel signal file"),
        ("--truth", "truth", False, "PATH",
         "ground-truth density CSV for error metrics (optional)")]),
    "diplex": (_cmd_diplex, "split a two-tone composite, FIR plus ICA", "diplex_manifest.cfg", [
        ("--in", "input", False, "PATH", "single-channel composite (synthesized when omitted)")]),
    "report": (_cmd_report, "pretty-print result files in a directory", None, [
        ("--in-dir", "input_dir", False, "DIR",
         "directory to inspect (default: the output directory)")]),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, manifest, _ = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args)
        outputs, failure = handler(args, cfg)
        if manifest is not None:
            _emit(args, cfg, manifest, outputs)
        if failure is not None:
            raise failure
        return _EXIT_OK
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
