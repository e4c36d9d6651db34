"""The three workloads: seeded input pool, one record, and its output check.

Every workload is a closed loop with one client: the next record starts
when the previous one has finished. The generator writes a pool of inputs
from the seed; records cycle through the pool. Record sizes are fixed here,
because fastICA's separation error scales as 1/N and a change must not pick
its own record length.

shot    the production path, record -> density, through ``icdx unmix`` and
        ``icdx density`` in-process. Demod, envelope_depth and fileio carry
        most of the cost; fastICA is a small share.
sweep   a coupling-calibration sweep through the library: whiten, fit, unmix,
        identify_components on 2^18 samples. No demod and no file I/O, so it is
        the control for changes there and the main target for fit and whiten.
diplex  the FIR + ICA cascade through ``icdx diplex``. The only workload that
        runs diplexer and cross_tone_residual_db; fastICA sees nearly collinear
        narrow-band inputs, and it writes far more than it reads.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks
import tracing

RATE = 8.0e6
CARRIERS = (1.0e6, 1.1e6)
POOL_FILE = "pool.json"


def _rms(data: np.ndarray) -> list[float]:
    return np.sqrt(np.mean(data**2, axis=1)).tolist()


class Shot:
    name = "shot"
    samples = 1 << 20
    pool = 4
    # Records between runs of the reference kernel: one record, or about 1 s
    # of them. The host's speed drifts within seconds, so fewer is steadier.
    batch = 1
    snr_db = 30.0
    tolerance = checks.DENSITY_TOL
    decimation = 8  # the CLI default, which the check decimates the truth by

    def generate(self, icdx, rng: np.random.Generator, n: int, pool_dir: Path) -> dict:
        sg = icdx.signalgen
        params = sg.InterferometerParams(sample_rate=RATE)
        track1, track2 = sg.make_scenario_tracks("shot-ramp", n, RATE, params)
        clean = sg.synth_clean_pair(params, track1, track2)
        lam1, lam2 = params.wavelength1, params.wavelength2
        density = ((track1.samples * lam1 - track2.samples * lam2)
                   / (params.electron_radius * (lam1 * lam1 - lam2 * lam2)))
        np.save(pool_dir / "density_truth.npy", density[::self.decimation])
        entries = []
        for k in range(self.pool):
            coupling = [[1.0, float(rng.uniform(0.3, 0.9))],
                        [float(rng.uniform(0.3, 0.9)), 1.0]]
            noise_seed = int(rng.integers(1 << 31))
            mixed = sg.add_awgn(sg.apply_crosstalk(clean, np.array(coupling)),
                                self.snr_db, noise_seed)
            icdx.fileio.write_signal(pool_dir / f"mixed{k}.bin", mixed)
            entries.append({"input": f"mixed{k}.bin", "coupling": coupling,
                            "noise_seed": noise_seed})
        return {"clean_rms": _rms(clean.data), "entries": entries}

    def load(self, ctx: "Context") -> dict:
        return {"truth": np.load(ctx.pool_dir / "density_truth.npy")}

    def record(self, ctx: "Context", k: int, tracer) -> tuple[int, int]:
        mixed = ctx.pool_dir / ctx.entry(k)["input"]
        with tracer.span(tracing.CLI):
            unmix = ctx.icdx.cli.main(["unmix", "--in", str(mixed), "--out-dir", str(ctx.out)])
        with tracer.span(tracing.CLI):
            density = ctx.icdx.cli.main(["density", "--in", str(ctx.out / "corrected.bin"),
                                         "--out-dir", str(ctx.out)])
        return unmix, density

    def check(self, ctx: "Context", k: int, codes: tuple[int, int]) -> checks.Outcome:
        if any(codes):
            return checks.Outcome(False, math.inf, f"exit codes {codes}")
        outcome = checks.check_density(
            checks.read_kv(ctx.out / "density_report.cfg"),
            checks.read_csv_channel(ctx.out / "density.csv"), ctx.state["truth"],
            self.decimation)
        sep = checks.read_kv(ctx.out / "separation.cfg")
        aligned = checks.aligned_gain(
            _matrix(sep["w_full"]), ctx.entry(k)["coupling"], ctx.pool["clean_rms"],
            _ints(sep["perm"]), _ints(sep["signs"]))
        outcome.counters["gain_error"] = checks.gain_error(aligned)
        return outcome


class Sweep:
    name = "sweep"
    samples = 1 << 18
    pool = 32
    batch = 20
    adc_bits = 12
    adc_full_scale = 2.0
    tolerance = checks.GAIN_TOL

    def generate(self, icdx, rng: np.random.Generator, n: int, pool_dir: Path) -> dict:
        sg = icdx.signalgen
        params = sg.InterferometerParams(sample_rate=RATE)
        clean = sg.synth_clean_pair(params, *sg.make_scenario_tracks("shot-ramp", n, RATE, params))
        entries = []
        for k in range(self.pool):
            coupling = [[1.0, float(rng.uniform(0.1, 0.95))],
                        [float(rng.uniform(0.1, 0.95)), 1.0]]
            mixed = sg.quantize_adc(sg.apply_crosstalk(clean, np.array(coupling)),
                                    self.adc_bits, self.adc_full_scale)
            icdx.fileio.write_signal(pool_dir / f"mixed{k}.bin", mixed)
            entries.append({"input": f"mixed{k}.bin", "coupling": coupling})
        return {"clean_rms": _rms(clean.data), "entries": entries,
                "ica_seed": int(rng.integers(1 << 30))}

    def load(self, ctx: "Context") -> dict:
        return {"mixed": [ctx.icdx.fileio.read_signal(ctx.pool_dir / e["input"])
                          for e in ctx.pool["entries"]]}

    def record(self, ctx: "Context", k: int, tracer):
        # Couplings repeat with the pool; the ICA start differs on every record.
        icdx = ctx.icdx
        mixed = ctx.state["mixed"][k % self.pool]
        cfg = icdx.fastica.FastIcaConfig(seed=ctx.pool["ica_seed"] + k)
        whitened, transform = icdx.preprocess.whiten(mixed)
        result = icdx.fastica.fit(whitened, cfg, transform)
        components = icdx.fastica.unmix(mixed, result, transform)
        assignment = icdx.fastica.identify_components(
            components, {"ch1": CARRIERS[0], "ch2": CARRIERS[1]})
        return result, assignment

    def check(self, ctx: "Context", k: int, output) -> checks.Outcome:
        result, assignment = output
        aligned = checks.aligned_gain(
            result.w_full, ctx.entry(k)["coupling"], ctx.pool["clean_rms"],
            assignment.perm, assignment.signs)
        return checks.check_gain(aligned)


class Diplex:
    name = "diplex"
    samples = 1 << 20
    pool = 8
    batch = 1
    rate = 200.0e6
    tones = (25.0e6, 40.0e6)
    tolerance = 10.0 ** (checks.RESIDUAL_TOL_DB / 20.0)

    def generate(self, icdx, rng: np.random.Generator, n: int, pool_dir: Path) -> dict:
        sg = icdx.signalgen
        params = sg.InterferometerParams(f_het1=self.tones[0], f_het2=self.tones[1],
                                         sample_rate=self.rate)
        entries = []
        for k in range(self.pool):
            amps = rng.uniform(0.5, 1.5, 2).tolist()
            phases = rng.uniform(0.0, 2.0 * np.pi, 2).tolist()
            # Constant phase tracks make the clean pair two pure tones.
            tones = sg.synth_clean_pair(params, *(
                sg.PhaseTrack(np.full(n, p), self.rate, "combined") for p in phases))
            composite = sg.MultichannelSignal(np.array([amps]) @ tones.data, self.rate)
            icdx.fileio.write_signal(pool_dir / f"composite{k}.bin", composite)
            entries.append({"input": f"composite{k}.bin", "amplitudes": amps, "phases": phases})
        return {"entries": entries}

    def load(self, ctx: "Context") -> dict:
        return {}

    def record(self, ctx: "Context", k: int, tracer) -> int:
        composite = ctx.pool_dir / ctx.entry(k)["input"]
        with tracer.span(tracing.CLI):
            return ctx.icdx.cli.main(["diplex", "--in", str(composite),
                                      "--out-dir", str(ctx.out)])

    def check(self, ctx: "Context", k: int, code: int) -> checks.Outcome:
        if code:
            return checks.Outcome(False, math.inf, f"exit code {code}")
        separated, rate = checks.read_raw(ctx.out / "diplex_separated.bin")
        return checks.check_diplex(separated, rate, self.tones)


WORKLOADS = {w.name: w for w in (Shot(), Sweep(), Diplex())}


class Context:
    """What a record needs: icdx, the pool and its metadata, the output directory.

    out is the current record's own directory under out_root.
    """

    def __init__(self, icdx, pool_dir: Path, out_root: Path) -> None:
        self.icdx = icdx
        self.pool_dir = pool_dir
        self.out_root = out_root
        self.out = out_root
        self.pool = json.loads((pool_dir / POOL_FILE).read_text())
        self.state: dict = {}

    def entry(self, k: int) -> dict:
        entries = self.pool["entries"]
        return entries[k % len(entries)]


def _matrix(token: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in token.split(";")])


def _ints(token: str) -> tuple[int, ...]:
    return tuple(int(v) for v in token.split(","))


def write_pool(pool_dir: Path, pool: dict) -> None:
    (pool_dir / POOL_FILE).write_text(json.dumps(pool, indent=1, sort_keys=True))
