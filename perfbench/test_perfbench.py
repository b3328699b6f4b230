"""Tests of the benchmark itself, kept out of the repository's tier-1 run.

    python3 -m pytest perfbench

Benchmark runs use ``--smoke`` and the fewest passes, so the file takes
seconds rather than minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check_outputs  # noqa: E402
import run  # noqa: E402
from ringfill import PlacementParams, plan_stage1  # noqa: E402


def benchmark(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seconds", "0", *args],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=170,
    )


def last_line(found: subprocess.CompletedProcess) -> dict:
    assert found.returncode == 0, found.stderr
    return json.loads(found.stdout.splitlines()[-1])


def copy_checkout(destination: Path, with_source: bool) -> Path:
    ignore = shutil.ignore_patterns("_work", "results", "__pycache__")
    shutil.copytree(BENCH, destination / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", destination)
    if with_source:
        shutil.copytree(ROOT / "src", destination / "src", ignore=ignore)
    return destination


def test_walk_matches_planner():
    for buckets in range(1, 8):
        for fill in range(1, buckets + 1):
            for first in range(buckets):
                params = PlacementParams(3 * buckets + 2, buckets, fill, first, buckets + 1)
                walk = check_outputs.stage1_walk(params.token_count, buckets, fill, first)
                assert list(walk) == [bucket for _, bucket in plan_stage1(params)]


def test_self_time_subtracts_child_spans(tmp_path):
    spans = tmp_path / "op.spans"
    spans.write_text(
        "1 1 0 child 1.0 2.0 -\n"
        "1 2 0 child 2.5 3.0 5\n"
        "1 0 -1 root 0.0 4.0 -\n"
    )
    totals = run.span_totals([spans])
    assert totals["root"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.5, "value": 0}
    assert totals["child"]["calls"] == 2
    assert totals["child"]["busy_s"] == pytest.approx(1.5)
    assert totals["child"]["value"] == 5


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = last_line(benchmark("--smoke", "--workload", workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in section}


def test_traced_smoke_sweep_counts():
    result = last_line(benchmark("--smoke", "--workload", "sweep-default", "--trace", "1"))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # --max-buckets 3: 536 instances over 200 stage-1 quadruples, 34 of
    # them R6 gap-case violations.
    assert metrics["verify.sweep.quadruples"] == 200
    assert metrics["lifecycle.run_lifecycle.calls"] == 536
    assert metrics["verify.sweep.lifecycle_per_quadruple"] == 536 / 200
    assert metrics["verify.sweep.violations_retained"] == 34
    assert metrics["verify.prose_oracle_stage1.calls"] == 200


def test_wrong_outputs_are_counted_as_failures(tmp_path):
    root = copy_checkout(tmp_path, with_source=True)
    lifecycle = root / "src" / "ringfill" / "lifecycle.py"
    text = lifecycle.read_text()
    assert "bucket != after)" in text
    lifecycle.write_text(text.replace("bucket != after)", "False)"))
    result = last_line(benchmark("--smoke", "--workload", "instance-large", root=root))
    assert not result["correct"]
    assert result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    found = benchmark("--workload", "sweep-default", root=root)
    assert found.returncode != 0
    assert '"correct"' not in found.stdout
