"""The benchmark's two child processes, started by run.py.

  child.py gen  --workload W --seed N --samples S --pool DIR [--trace]
      writes the seeded input pool of W into DIR
  child.py work --workload W --pool DIR --out DIR --seconds T
                --result FILE [--first K] [--trace]
      imports icdx, loads the pool, runs one untimed warm-up record, then
      records K, K+1, ... back to back for T seconds (record k uses pool
      entry k mod pool size), with the reference kernel of reference.py
      run between batches of records; writes a JSON result to FILE

Both import icdx from the checkout's src/ and nowhere else.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_icdx():
    if not (SRC / "icdx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no icdx package under {SRC}")
    sys.path.insert(0, str(SRC))
    import icdx
    import icdx.cli

    if Path(icdx.__file__).resolve().parent != SRC / "icdx":
        raise SystemExit(f"perfbench: imported icdx from {icdx.__file__}, not {SRC}")
    return icdx


def generate(args) -> None:
    icdx = import_icdx()
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(icdx, tracing.GENERATOR_LAYERS)
    if args.trace:
        tracer.install()
    rng = np.random.default_rng([args.seed, list(workloads.WORKLOADS).index(args.workload)])
    pool = workload.generate(icdx, rng, args.samples, args.pool)
    tracer.uninstall()
    workloads.write_pool(args.pool, pool)
    if args.trace:
        (args.pool / "gen_spans.json").write_text(json.dumps(tracer.spans))


def _attempt(workload, ctx, k: int, tracer) -> tuple[float, checks.Outcome]:
    """One record, timed, then its check, untimed. Any exception fails the record.

    Each record writes into a fresh output directory, as a run per shot
    would; the directory is removed after the check, outside the timing.
    """
    ctx.out = ctx.out_root / f"record{k}"
    ctx.out.mkdir()
    try:
        start = time.perf_counter()
        try:
            with tracer.active(k):
                output = workload.record(ctx, k, tracer)
        except Exception:
            return time.perf_counter() - start, checks.Outcome(
                False, float("inf"), traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        try:
            return elapsed, workload.check(ctx, k, output)
        except Exception:
            return elapsed, checks.Outcome(False, float("inf"), traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(ctx.out)


def _outcome_json(k: int, seconds: float, traced: bool, outcome: checks.Outcome) -> dict:
    return {"k": k, "seconds": seconds, "traced": traced, "ok": outcome.ok,
            "error": outcome.error, "detail": outcome.detail, "counters": outcome.counters}


def work(args) -> None:
    icdx = import_icdx()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(icdx, args.pool, args.out)
    ctx.state = workload.load(ctx)
    untraced = tracing.NullTracer()
    _, warmup = _attempt(workload, ctx, args.first, untraced)
    result = {"t_ready": time.monotonic(),
              "warmup": _outcome_json(args.first, 0.0, False, warmup)}

    # With --trace, whole passes over the pool alternate between untraced
    # and traced, so both halves see every input and the gap between their
    # medians is the tracing overhead. At least one pass of each is run.
    tracer = tracing.Tracer(icdx, tracing.WORKER_LAYERS)
    calibrator = reference.Calibrator(workload.batch)
    records = []
    min_records = 2 * workload.pool if args.trace else 1
    deadline = time.monotonic() + args.seconds
    k = args.first
    while k < args.first + min_records or time.monotonic() < deadline:
        traced = args.trace and (k // workload.pool) % 2 == 1
        seconds, outcome = _attempt(workload, ctx, k, tracer if traced else untraced)
        records.append(_outcome_json(k, seconds, traced, outcome))
        calibrator.add(records[-1])
        k += 1
    calibrator.close()
    result["ref_s"] = calibrator.ref_times
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = records
    if args.trace:
        result["spans"] = tracer.spans
        with tracing.AllocProbe(icdx) as probe:
            _attempt(workload, ctx, 0, untraced)
        result["alloc_peak_mb"] = {name: peak / 2**20 for name, peak in probe.peak_bytes.items()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["meta"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "icdx": icdx.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    args.result.write_text(json.dumps(result))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("gen", "work"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
        p.add_argument("--pool", type=Path, required=True)
        p.add_argument("--trace", action="store_true")
    p = sub.choices["gen"]
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p = sub.choices["work"]
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--first", type=int, default=0, help="index of the first record")
    args = parser.parse_args(argv)
    (generate if args.mode == "gen" else work)(args)


if __name__ == "__main__":
    main()
