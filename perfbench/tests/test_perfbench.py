"""The benchmark's own tests: a tiny-N smoke run of every workload, and the
output checks rejecting deliberately wrong outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace, capsys):
    run.run(workload, seed=0, seconds=0.2, trace=bool(trace), samples=1 << 14)
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]


def _density_case():
    truth = np.linspace(1.0, 2.0, 64)
    report = {"status": "ok", "settle": "4",
              "ch1_lost_ranges": "none", "ch2_lost_ranges": "none"}
    return report, truth


def test_density_check_passes_the_truth_and_fails_a_wrong_density():
    report, truth = _density_case()
    assert checks.check_density(report, truth.copy(), truth, 8).ok
    wrong = checks.check_density(report, 1.2 * truth, truth, 8)
    assert not wrong.ok
    assert wrong.error == pytest.approx(0.2)


def test_density_check_fails_a_partial_status_and_skips_lost_samples():
    report, truth = _density_case()
    assert not checks.check_density({**report, "status": "partial"}, truth, truth, 8).ok
    density = truth.copy()
    density[20:24] += 100.0  # decimated samples 20..23 are input samples 160..191
    assert not checks.check_density(report, density, truth, 8).ok
    assert checks.check_density({**report, "ch2_lost_ranges": "157:192"},
                                density, truth, 8).ok


def _perfect_separation():
    coupling = np.array([[1.0, 0.7], [0.4, 1.0]])
    clean_rms = np.array([0.5, 0.8])
    w_full = np.linalg.inv(coupling @ np.diag(clean_rms))
    return w_full, coupling, clean_rms


def test_gain_check_passes_the_identity_and_fails_a_swapped_assignment():
    w_full, coupling, clean_rms = _perfect_separation()
    right = checks.aligned_gain(w_full, coupling, clean_rms, (0, 1), (1, 1))
    assert checks.check_gain(right).ok
    swapped = checks.aligned_gain(w_full[::-1], coupling, clean_rms, (0, 1), (1, 1))
    assert not checks.check_gain(swapped).ok
    flipped = checks.aligned_gain(w_full, coupling, clean_rms, (0, 1), (1, -1))
    assert not checks.check_gain(flipped).ok


def _tones(leak: float) -> np.ndarray:
    rate, n = 200e6, 1 << 14
    t = np.arange(n) / rate
    a = np.sin(2 * np.pi * 25e6 * t) + leak * np.sin(2 * np.pi * 40e6 * t)
    b = np.sin(2 * np.pi * 40e6 * t)
    data = np.vstack([a, b])
    data -= data.mean(axis=1, keepdims=True)
    return data / np.max(np.abs(data), axis=1, keepdims=True)


def test_diplex_check_passes_clean_tones_and_fails_a_minus_20_db_residual():
    assert checks.check_diplex(_tones(0.0), 200e6, (25e6, 40e6)).ok
    leaky = checks.check_diplex(_tones(0.1), 200e6, (25e6, 40e6))
    assert not leaky.ok
    assert leaky.error == pytest.approx(0.1, rel=1e-2)


def test_diplex_check_fails_an_unnormalized_output():
    assert not checks.check_diplex(0.5 * _tones(0.0), 200e6, (25e6, 40e6)).ok
    assert not checks.check_diplex(_tones(0.0) + 1e-6, 200e6, (25e6, 40e6)).ok


def test_calibrator_scales_each_batch_by_the_kernel_times_around_it():
    kernel_times = iter([0.1, 0.2, 0.3])
    calibrator = reference.Calibrator(2, lambda: next(kernel_times))
    records = [{"seconds": s} for s in (0.6, 0.5, 0.3)]
    for record in records:
        calibrator.add(record)
    calibrator.close()
    first, second = reference.REF_S / 0.15, reference.REF_S / 0.25
    assert [r["cal_seconds"] for r in records] == pytest.approx(
        [0.6 * first, 0.5 * first, 0.3 * second])
    assert calibrator.ref_times == [0.1, 0.2, 0.3]
