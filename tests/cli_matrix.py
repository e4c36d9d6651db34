"""Run the default icdx CLI matrix and keep every step's results for diff -r.

Usage:
    python tests/cli_matrix.py OUT_DIR [SRC_DIR]
    python tests/cli_matrix.py --compare A B

SRC_DIR is the source tree to run (default: this checkout's src). Each
step is a fresh `python -W error -m icdx.cli` process started in OUT_DIR,
so every path it prints is relative and a warning fails the step. A
step's files land in OUT_DIR/<step>/, next to its exit_code, stdout and
stderr, and out_dir_made, which says whether the step itself created
that directory. Running the matrix on two
checkouts and comparing them with `diff -r` shows every output byte that
changed.

The matrix: gen (raw and CSV), unmix --truth, density --truth, diplex,
mix --snr-db 30 and report at default options; re-runs of gen, unmix,
density and diplex from their manifests; the two exit-3 runs (unmix out
of iterations, density on a strong coupling); gen with noise and a
12-bit ADC, unmix --truth on that record, unmix of it with
--file-format csv and density on that corrected.csv, so the CSV writer
and reader see a large two-channel noisy record; and six refusals: a
setting (exit 2 before any subcommand runs), a missing input (exit 4),
a filter longer than the record (exit 2 inside density), a one-channel
input to mix (exit 2), a coupling near the float64 limit (exit 2) and
noise whose amplitude would pass that bound (exit 2); and the --help
text of icdx and of each subcommand, at a fixed width of 80 columns.

--compare A B reads two matrix outputs and prints, for each file that
differs, how far its numbers moved, which diff -r cannot show: how many
values differ, the largest relative difference |a - b| / max(|a|, |b|)
with the pair it came from, and the largest difference against the
file's peak magnitude. Raw .bin payloads are read as float64 samples; in
any other file every decimal number is a value, and each line whose
values moved by more than 1e-6 relative, more than rounding, is printed
on both sides. A file whose text or .bin header differs beyond its
numbers, or that one side lacks, is named as such. It exits 1 when any
file differs, like diff.
This file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

STEPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("gen", ("gen",)),
    ("gen_csv", ("gen", "--file-format", "csv")),
    ("unmix", ("unmix", "--in", "gen/mixed.bin", "--truth", "gen/clean.bin")),
    ("density", ("density", "--in", "unmix/corrected.bin",
                 "--truth", "gen/density_truth.csv")),
    ("diplex", ("diplex",)),
    ("mix", ("mix", "--in", "gen/clean.bin", "--snr-db", "30")),
    ("report", ("report", "--in-dir", "unmix")),
    ("gen_rerun", ("gen", "--config", "gen/manifest.cfg")),
    ("unmix_rerun", ("unmix", "--config", "unmix/unmix_manifest.cfg",
                     "--in", "gen/mixed.bin", "--truth", "gen/clean.bin")),
    ("density_rerun", ("density", "--config", "density/density_manifest.cfg",
                       "--in", "unmix/corrected.bin", "--truth", "gen/density_truth.csv")),
    ("diplex_rerun", ("diplex", "--config", "diplex/diplex_manifest.cfg")),
    ("unmix_no_convergence", ("unmix", "--in", "gen/mixed.bin",
                              "--max-iter", "1", "--tol", "1e-15")),
    ("gen_strong", ("gen", "--coupling", "1,0.9;0.9,1")),
    ("density_lost", ("density", "--in", "gen_strong/mixed.bin")),
    ("refused_adc_bits", ("gen", "--adc-bits", "1")),
    ("refused_missing_input", ("unmix", "--in", "gen/absent.bin")),
    ("refused_filter_order", ("density", "--in", "gen/clean.bin", "--filter-order", "300000")),
    ("gen_noisy", ("gen", "--snr-db", "30", "--adc-bits", "12")),
    ("unmix_noisy", ("unmix", "--in", "gen_noisy/mixed.bin", "--truth", "gen_noisy/clean.bin")),
    ("unmix_csv", ("unmix", "--in", "gen_noisy/mixed.bin", "--file-format", "csv")),
    ("density_csv", ("density", "--in", "unmix_csv/corrected.csv")),
    ("refused_mix_channels", ("mix", "--in", "gen/density_truth.csv")),
    ("refused_coupling_overflow", ("gen", "--coupling", "1e308,0;0,1e308")),
    ("refused_snr_overflow", ("gen", "--snr-db", "-2000")),
    ("help", ("--help",)),
    *((f"help_{command}", (command, "--help"))
      for command in ("gen", "mix", "unmix", "density", "diplex", "report")),
)


def run_matrix(out: Path, src: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "COLUMNS": "80"}
    for step, args in STEPS:
        if (out / step).exists():
            raise FileExistsError(f"{out / step} exists; give a fresh OUT_DIR")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "icdx.cli", *args, "--out-dir", step],
            cwd=out, env=env, capture_output=True, text=True)
        made = (out / step).is_dir()
        (out / step).mkdir(exist_ok=True)
        (out / step / "out_dir_made").write_text(f"{made}\n")
        (out / step / "exit_code").write_text(f"{done.returncode}\n")
        (out / step / "stdout").write_text(done.stdout)
        (out / step / "stderr").write_text(done.stderr)
        print(f"{step}: exit {done.returncode}")


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SHOWN = 1e-6  # a text line whose values move by more than this, relative, is printed


def _numbers(text: str) -> np.ndarray:
    return np.array([float(v) for v in _NUMBER.findall(text)])


def _relative(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    diff = np.abs(va - vb)
    return diff / np.where(diff == 0.0, 1.0, np.maximum(np.abs(va), np.abs(vb)))


def compare(a: Path, b: Path) -> int:
    differ = 0
    names = sorted({path.relative_to(root)
                    for root in (a, b) for path in root.rglob("*") if path.is_file()})
    for name in names:
        if not ((a / name).is_file() and (b / name).is_file()):
            print(f"{name}: only in {a if (a / name).is_file() else b}")
            differ = 1
            continue
        raw_a, raw_b = (a / name).read_bytes(), (b / name).read_bytes()
        if raw_a == raw_b:
            continue
        differ = 1
        if raw_a[:4] == raw_b[:4] == b"ICDX":
            layout_a, layout_b = raw_a[:64], raw_b[:64]
            va, vb = np.frombuffer(raw_a[64:], "<f8"), np.frombuffer(raw_b[64:], "<f8")
            lines = []
        else:
            text_a, text_b = raw_a.decode(errors="replace"), raw_b.decode(errors="replace")
            layout_a, layout_b = _NUMBER.sub("#", text_a), _NUMBER.sub("#", text_b)
            va, vb = _numbers(text_a), _numbers(text_b)
            lines = [(la, lb) for la, lb in zip(text_a.splitlines(), text_b.splitlines())
                     if la != lb]
        if layout_a != layout_b or va.shape != vb.shape or not va.size:
            print(f"{name}: differs beyond its numbers")
            continue
        rel = _relative(va, vb)
        i = int(np.argmax(rel))
        peak = np.maximum(np.abs(va), np.abs(vb)).max()
        print(f"{name}: {np.count_nonzero(rel)} of {va.size} values differ; largest relative "
              f"{rel[i]:.2g} ({float(va[i])!r} -> {float(vb[i])!r}); largest against the peak "
              f"{np.abs(va - vb).max() / peak:.2g}")
        for la, lb in lines:
            if _relative(_numbers(la), _numbers(lb)).max() > _SHOWN:
                print(f"    {la.strip()}  ->  {lb.strip()}")
    return differ


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    src = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parents[1] / "src"
    out.mkdir(parents=True, exist_ok=True)
    run_matrix(out, src)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
