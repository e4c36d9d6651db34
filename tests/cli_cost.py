"""Measure what each icdx subcommand costs end to end, each run in a fresh process.

Usage:
    python tests/cli_cost.py OUT.json [SRC_DIR] [--samples N [N ...]]
                             [--steps NAME[,NAME...]]

SRC_DIR is the source tree to run (default: this checkout's src). For each
record length N (default 262144), the harness writes its inputs once into
a scratch directory next to OUT.json (gen, then unmix for the corrected
pair), then runs every step one untimed warm-up time and 5 timed times,
each a fresh `python` process that imports icdx.cli and calls main()
once. A run records the wall time of that main() call alone
(perf_counter), its CPU time (the process's ru_utime + ru_stime after
the call minus before it, summed over every thread, so a step whose
transforms run on two threads shows CPU time above its wall time), and
the process's ru_maxrss (peak RSS in MB, imports included) and ru_minflt
(minor page faults) after it. Every step must exit 0. BLAS is pinned to
one thread.

The steps, all at default settings: gen; unmix; unmix --truth (the clean
pair); density; density --truth (the CSV density truth); diplex on an
N-sample synthesized composite; diplex_in, diplex --in on that composite
as a one-channel raw file, which the harness writes once with the
inputs: the benchmark and recorded runs feed diplex a file. OUT.json
holds, per N and step, every run's four numbers and their minimum,
median, maximum and spread (maximum minus minimum). The scratch
directory is removed at the end.
This file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The child: call main once, then print one JSON line with the run's cost.
_CHILD = """
import contextlib, io, json, resource, sys, time
import icdx.cli
argv = json.loads(sys.argv[1])
cpu = lambda usage: usage.ru_utime + usage.ru_stime
with contextlib.redirect_stdout(io.StringIO()):
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = icdx.cli.main(argv)
    wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit_code": code, "wall_s": wall, "cpu_s": cpu(usage) - cpu(before),
                  "peak_rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}))
"""

STEPS: dict[str, tuple[str, ...]] = {
    "gen": ("gen",),
    "unmix": ("unmix", "--in", "inputs/mixed.bin"),
    "unmix_truth": ("unmix", "--in", "inputs/mixed.bin", "--truth", "inputs/clean.bin"),
    "density": ("density", "--in", "inputs/corrected.bin"),
    "density_truth": ("density", "--in", "inputs/corrected.bin",
                      "--truth", "inputs/density_truth.csv"),
    "diplex": ("diplex",),
    "diplex_in": ("diplex", "--in", "inputs/composite.bin"),
}
# Writes the composite diplex synthesizes, at its default settings, as a raw file.
_COMPOSITE = """
import sys
import numpy as np
from icdx import cli, fileio, signalgen
cfg = cli.RunConfig()
t = np.arange(int(sys.argv[1])) / cfg.diplex_rate
composite = np.sin(2.0 * np.pi * cfg.tone_a * t) + np.sin(2.0 * np.pi * cfg.tone_b * t)
fileio.write_signal("inputs/composite.bin",
                    signalgen.MultichannelSignal(composite[None], cfg.diplex_rate))
"""
_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_REPEATS = 5


def _run(args: list[str], work: Path, env: dict[str, str]) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(args)],
                          cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{args} failed ({done.returncode}): {done.stderr.strip()}")
    cost = json.loads(done.stdout.splitlines()[-1])
    if cost.pop("exit_code") != 0:
        raise RuntimeError(f"{args} did not exit 0: {done.stderr.strip()}")
    return cost


def _summary(runs: list[dict[str, float]]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "minflt"):
        values = [run[key] for run in runs]
        out[key] = {"min": min(values), "median": statistics.median(values),
                    "max": max(values), "spread": max(values) - min(values), "runs": values}
    return out


def measure(samples: int, steps: list[str], work: Path,
            env: dict[str, str]) -> dict[str, object]:
    size = ["--samples", str(samples), "--diplex-samples", str(samples)]
    inputs = work / "inputs"
    _run(["gen", *size, "--out-dir", "inputs"], work, env)
    _run(["unmix", "--in", "inputs/mixed.bin", *size, "--out-dir", "inputs"], work, env)
    subprocess.run([sys.executable, "-c", _COMPOSITE, str(samples)],
                   cwd=work, env=env, check=True)
    result: dict[str, object] = {}
    for step in steps:
        args = [*STEPS[step], *size, "--out-dir", step]
        _run(args, work, env)  # warm-up
        runs = [_run(args, work, env) for _ in range(_REPEATS)]
        result[step] = {"args": " ".join(STEPS[step]), **_summary(runs)}
        shutil.rmtree(work / step)
        print(f"{samples} {step}: wall min {result[step]['wall_s']['min']:.3f} s, "
              f"CPU min {result[step]['cpu_s']['min']:.3f} s, "
              f"peak RSS min {result[step]['peak_rss_mb']['min']:.1f} MB", file=sys.stderr)
    shutil.rmtree(inputs)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("src", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--samples", type=int, nargs="+", default=[262144])
    parser.add_argument("--steps", default=",".join(STEPS))
    args = parser.parse_args(argv)
    steps = args.steps.split(",")
    unknown = sorted(set(steps) - set(STEPS))
    if unknown:
        parser.error(f"unknown steps {unknown}")
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve()),
           **{name: "1" for name in _THREADS}}
    work = args.out.resolve().parent / (args.out.name + ".work")
    work.mkdir(parents=True, exist_ok=False)
    try:
        report = {
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                    f"{platform.python_version()}",
            "repeats": _REPEATS,
            "samples": {str(n): measure(n, steps, work, env)
                        for n in args.samples},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
