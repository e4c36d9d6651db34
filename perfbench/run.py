"""icdx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload shot|sweep|diplex --seed N \
        --seconds T --trace 0|1

Run from anywhere; icdx is imported from the src/ directory next to
perfbench/. An untraced run starts WORKERS worker processes one after the
other; each is preceded by a generator process, imports icdx, loads the
pool, runs one warm-up record and then times records back to back for
T / WORKERS seconds, calibrated by the reference kernel of reference.py.
A traced run uses one worker for T seconds. With --trace 0 the last line
is the end-to-end metrics, with --trace 1 the per-layer metrics; see
README.md. The exit code is 0 only when every output check passed.
Scratch files go to .perfbench_work/ in the checkout and are removed
before exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# An untraced run splits its seconds over this many worker processes, each
# after its own set-up and starting at its own pool entry, so that setup_s
# is the median of several set-ups.
WORKERS = 3
# One client, one BLAS thread: steadier than letting OpenBLAS spread a
# 2 x N product over the machine's cores.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150


def _child(args: list[str], log: Path) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    with open(log, "ab") as err:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              stdout=subprocess.DEVNULL, stderr=err, env=env,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"perfbench: child {args[0]} exited with {proc.returncode}")


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _tail(times: list[float]) -> tuple[float, float]:
    """The record time with ten records beyond it, and its percentile.

    With fewer than eleven records no percentile qualifies; the maximum
    is reported as the 100th.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(result: dict, gen_spans: list, pool_size: int) -> dict:
    """Per-layer metrics from the traced records of one run."""
    traced = [r for r in result["records"] if r["traced"]]
    plain = [r for r in result["records"] if not r["traced"]]
    table = tracing.per_record(result["spans"])
    recs = [table[r["k"]] for r in traced]
    out = {}
    for layer in tracing.LAYERS:
        if layer in tracing.GENERATOR_LAYERS:
            # The generator synthesizes the whole pool once: report its
            # self time per input record.
            gen = tracing.per_record(gen_spans).get(None, {"self_s": {}, "calls": {}})
            out[f"{layer}.self_s"] = _metric(gen["self_s"].get(layer, 0.0) / pool_size, "s")
            out[f"{layer}.calls"] = _metric(gen["calls"].get(layer, 0) / pool_size, "count")
            continue
        out[f"{layer}.self_s"] = _metric(tracing.median_of(recs, "self_s", layer), "s")
        out[f"{layer}.calls"] = _metric(tracing.median_of(recs, "calls", layer), "count")

    def counter(key: str) -> float:
        return tracing.median_of(recs, "counters", key)

    def ratio(num: str, den: str) -> float:
        """Summed over the traced records; 0 where the layer did not run."""
        den_total = sum(rec["counters"].get(den, 0) for rec in recs)
        return sum(rec["counters"].get(num, 0) for rec in recs) / den_total if den_total else 0.0

    def checked(key: str) -> float:
        return statistics.median(r["counters"].get(key, 0.0) for r in traced)

    out["fileio.bytes_read"] = _metric(counter("fileio.read.bytes"), "B")
    out["fileio.bytes_written"] = _metric(counter("fileio.write.bytes"), "B")
    out["fastica.fit.iterations"] = _metric(counter("fastica.fit.iterations"), "count")
    out["fastica.fit.converged_ratio"] = _metric(
        ratio("fastica.fit.converged", "fastica.fit.units"), "ratio")
    out["fastica.gain_error"] = _metric(checked("gain_error"), "ratio")
    out["demod.lost_fraction"] = _metric(
        ratio("demod.demodulate.lost", "demod.demodulate.samples"), "ratio")
    out["demod.steady_ratio"] = _metric(checked("steady_ratio"), "ratio")
    for name, peak in result["alloc_peak_mb"].items():
        out[f"{name}.alloc_peak_mb"] = _metric(peak, "MB")
    traced_s = statistics.median(r["seconds"] for r in traced)
    plain_s = statistics.median(r["seconds"] for r in plain)
    out["trace.record_s"] = _metric(traced_s, "s")
    out["trace.untraced_record_s"] = _metric(plain_s, "s")
    out["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        samples: int | None = None) -> int:
    """One benchmark run; prints the report and returns the exit code."""
    if not (ROOT / "src" / "icdx" / "__init__.py").is_file():
        print(f"perfbench: no icdx package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    samples = samples or workloads.WORKLOADS[workload].samples
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(work, workload, seed, seconds, trace, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(work: Path, workload: str, seed: int, seconds: float, trace: bool,
         samples: int) -> int:
    log = work / "stderr.log"
    workers = 1 if trace else WORKERS
    setups, cal_setups, digests, warmups, records, results = [], [], [], [], [], []
    kernel = reference.Reference()
    for rep in range(workers):
        pool, out, result_path = work / f"pool{rep}", work / f"out{rep}", work / f"result{rep}"
        pool.mkdir()
        out.mkdir()
        ref_before = kernel.run()
        start = time.monotonic()
        _child(["gen", "--workload", workload, "--seed", str(seed), "--samples", str(samples),
                "--pool", str(pool)] + (["--trace"] if trace else []), log)
        _child(["work", "--workload", workload, "--pool", str(pool), "--out", str(out),
                "--seconds", str(seconds / workers), "--result", str(result_path),
                "--first", str(rep)]
               + (["--trace"] if trace else []), log)
        result = json.loads(result_path.read_text())
        results.append(result)
        setups.append(result["t_ready"] - start)
        # Calibrated like a record, by the kernel run just before the
        # generator started and the worker's first kernel run, just after
        # it was ready.
        cal_setups.append(setups[-1] * reference.REF_S
                          / (0.5 * (ref_before + result["ref_s"][0])))
        warmups.append(result["warmup"])
        records += result["records"]
        if trace:
            gen_spans = json.loads((pool / "gen_spans.json").read_text())
        digests.append(_digest(pool))
        pool_size = len(json.loads((pool / "pool.json").read_text())["entries"])
        shutil.rmtree(pool)
        shutil.rmtree(out)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    inputs_identical = len(set(digests)) == 1
    correct = failed == 0 and all(w["ok"] for w in warmups) and inputs_identical
    for r in [*warmups, *records]:
        if not r["ok"]:
            print(f"perfbench: {workload} record {r['k']} failed: {r['detail']}", file=sys.stderr)
    if not inputs_identical:
        print("perfbench: the generator wrote different inputs for the same seed",
              file=sys.stderr)

    untraced = [r for r in records if not r["traced"]]
    times = [r["seconds"] for r in untraced]
    cal_times = [r["cal_seconds"] for r in untraced]
    tail, tail_pct = _tail(times)
    errors = [r["error"] for r in [*warmups, *records]]
    error_max = max(errors)
    nproc = len(os.sched_getaffinity(0))
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "records": attempted, "record_samples": samples,
        "record_s.tail_percentile": tail_pct, "workers": workers,
        "setup_wall_s.samples": setups, "peak_rss_mb.samples": [r["peak_rss_mb"] for r in results],
        "nproc": nproc,
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
        "inputs_identical": inputs_identical,
        "ref_s.median": statistics.median(t for r in results for t in r["ref_s"]),
        **result["meta"],
    }
    # Printed on every run but not in BENCHMARK.json, so carrying no bound:
    # failed_fraction is 0 when the program is right and error_max depends on
    # each seed's couplings (both gate `correct` instead). Raw wall times
    # follow the host's speed, which drifts by more than the largest bound a
    # metric may have; their calibrated forms carry the bounds.
    unbounded = {
        "setup_wall_s": _metric(statistics.median(setups), "s"),
        "record_s.p50": _metric(statistics.median(times), "s"),
        "record_s.tail": _metric(tail, "s"),
        "throughput_msps": _metric(len(times) * samples / sum(times) / 1e6, "MS/s"),
        "failed_fraction": _metric(failed / attempted, "ratio"),
        "error_max": _metric(error_max, "ratio"),
    }
    if trace:
        metrics = _layer_metrics(result, gen_spans, pool_size)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(cal_setups), "s"),
            "record_cal_s.p50": _metric(statistics.median(cal_times), "s"),
            "throughput_cal_msps": _metric(
                len(cal_times) * samples / sum(cal_times) / 1e6, "MS/s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in results), "MB"),
        }
    print(f"icdx benchmark: workload {workload}, seed {seed}, {attempted} records, "
          f"{'traced' if trace else 'untraced'}")
    for name, m in {**metrics, **unbounded}.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_max tolerance':<40} {workloads.WORKLOADS[workload].tolerance:.6g} ratio")
    print(f"  {'record_s.tail percentile':<40} {tail_pct:.4g} (of {len(times)} untraced records)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: subprocess.run kills and reaps the running
    # child, and run() removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seed must be >= 0 and --seconds positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
