"""Run the default icdx CLI matrix and keep every step's results for diff -r.

Usage:
    python tests/cli_matrix.py OUT_DIR [SRC_DIR]

SRC_DIR is the source tree to run (default: this checkout's src). Each
step is a fresh `python -m icdx.cli` process started in OUT_DIR, so every
path it prints is relative. A step's files land in OUT_DIR/<step>/, next
to its exit_code, stdout and stderr, and out_dir_made, which says whether
the step itself created that directory. Running the matrix on two
checkouts and comparing them with `diff -r` shows every output byte that
changed.

The matrix: gen (raw and CSV), unmix --truth, density --truth, diplex,
mix --snr-db 30 and report at default options; re-runs of gen, unmix,
density and diplex from their manifests; the two exit-3 runs (unmix out
of iterations, density on a strong coupling); and three refusals: a
setting (exit 2 before any subcommand runs), a missing input (exit 4)
and a filter longer than the record (exit 2 inside density).
This file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
)


def run_matrix(out: Path, src: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for step, args in STEPS:
        if (out / step).exists():
            raise FileExistsError(f"{out / step} exists; give a fresh OUT_DIR")
        done = subprocess.run(
            [sys.executable, "-m", "icdx.cli", *args, "--out-dir", step],
            cwd=out, env=env, capture_output=True, text=True)
        made = (out / step).is_dir()
        (out / step).mkdir(exist_ok=True)
        (out / step / "out_dir_made").write_text(f"{made}\n")
        (out / step / "exit_code").write_text(f"{done.returncode}\n")
        (out / step / "stdout").write_text(done.stdout)
        (out / step / "stderr").write_text(done.stderr)
        print(f"{step}: exit {done.returncode}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    src = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parents[1] / "src"
    out.mkdir(parents=True, exist_ok=True)
    run_matrix(out, src)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
