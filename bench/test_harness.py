"""Smoke test of the benchmark harness at tiny chain lengths.

Runs each workload for one timed pass, untraced and traced, and checks that
the result line carries exactly the metrics BENCHMARK.json declares, that
every operation passed its correctness checks, and that the traced counts
match the calls each workload makes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Per-pass counts at the tiny scale: (spectral.eigh.calls, hamiltonian.bulk_gap.calls).
TINY_COUNTS = {"length_scan": (1, 0), "certify": (7, 3), "figures": (87, 0)}


@pytest.mark.parametrize("workload", list(TINY_COUNTS))
def test_workload_reports_declared_metrics(workload):
    untraced = run.result_line(run.measure(workload, 1, 0.0, False, scale="tiny", setup_repeats=1))
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    from chiralchain import spectral

    eigh = spectral.eigh
    traced = run.result_line(run.measure(workload, 1, 0.0, True, scale="tiny"))
    assert spectral.eigh is eigh, "tracing wrappers must be removed after the run"
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    counts = (traced["metrics"]["spectral.eigh.calls"]["value"],
              traced["metrics"]["hamiltonian.bulk_gap.calls"]["value"])
    assert counts == TINY_COUNTS[workload]


def test_declared_workloads_and_units():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    units = {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert units[metric["name"]] == metric["unit"]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(30, 0, -1)]) == (20.0, 100.0 * 20 / 30, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
