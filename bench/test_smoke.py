"""Smoke test of the benchmark at tiny input sizes.

    python -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced.  The test checks the
output contract: every metric BENCHMARK.json names is emitted with its
unit, no pass fails, and every reference check of the workload ran.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "binary-ingest": {"effect_vs_analytic", "boot_used"},
    "latent-restore": {
        "pushforward", "dense_round_trip", "restored_propensity",
        "factored_round_trip", "adjusted_effect", "stratified_is_distribution",
    },
    "simulate-resample": {"truth_effect", "synth_rows", "c0_within_5se", "tetrad_rejects"},
}


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(CHECKS)


@pytest.mark.parametrize("workload", sorted(CHECKS))
@pytest.mark.parametrize("trace", [0, 1])
def test_bench_emits_every_metric_and_runs_every_check(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_share"] == 0.0
    assert set(report["checks"]) == CHECKS[workload]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0.0 for name in result["metrics"])
        for name in ("wall_s", "peak_rss_mb"):
            assert report[name]["n"] == result["attempted"] - 1  # the warm-up is untimed
