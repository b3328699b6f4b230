"""Acceptance suite: each test prints one verdict line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Each criterion is evaluated over the default sweep domain
(first-set sizes 1 through 10, every window width and start, token
counts through four rounds plus three, second-set sizes up to twice the
first).  Module-scoped fixtures sweep it exactly once with the library
and once with the per-token reference fold of ``conftest.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from ringfill import (
    PlacementParams,
    SweepDomain,
    check_requirements,
    gap,
    plan_stage1,
    prose_oracle_stage1,
    run_lifecycle,
    sweep,
)
from ringfill.cli import parse_trace_report

from conftest import planning_instances, reference_sweep, run_module_cli


def _verdict(criterion: int, passed: bool, description: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {description}")
    assert passed, f"criterion {criterion}: {description}"


@pytest.fixture(scope="module")
def default_sweep():
    domain = SweepDomain()
    started = time.perf_counter()
    report = sweep(domain)
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="module")
def default_reference():
    return reference_sweep(SweepDomain())


def test_criterion_1_oracle_equivalence(default_sweep):
    report, elapsed = default_sweep
    quadruples = 0
    mismatches = 0
    for params in planning_instances(SweepDomain()):
        quadruples += 1
        if plan_stage1(params) != prose_oracle_stage1(params):
            mismatches += 1
    passed = (
        mismatches == 0
        and report.oracle_mismatches == 0
        and report.instances_checked == 113432
        and elapsed < 60.0
    )
    _verdict(
        1,
        passed,
        f"planner matches the pointer-walk oracle on all {quadruples} stage-1 "
        f"quadruples covering {report.instances_checked} instances "
        f"(sweep took {elapsed:.1f}s)",
    )


def test_criterion_1_sweep_reports_match_the_per_token_trace(
    default_sweep, default_reference
):
    # The sweep reads every token count from prefix folds of one lifecycle
    # per (B, C, f) triple; the per-token check of every instance is its
    # oracle.
    report, _ = default_sweep
    assert report.instances_checked == 113432
    _verdict(
        1,
        report == default_reference,
        f"the sweep's verdict equals a full per-token check of all "
        f"{default_reference.instances_checked} instances",
    )


def test_criterion_2_unconditional_requirements(default_sweep):
    report, _ = default_sweep
    unconditional = ("R1", "R2", "R3", "R4", "R5", "RC")
    counts = {rid: report.violation_counts[rid] for rid in unconditional}
    passed = all(count == 0 for count in counts.values()) and not any(
        rid in report.minimal_violations for rid in unconditional
    )
    _verdict(
        2,
        passed,
        "distinct labels, window/residue/rebalance homogeneity, move budget and "
        f"stream direction hold with zero violations across {report.instances_checked} instances",
    )


def test_criterion_3_reshard_split_verdict(default_sweep, default_reference):
    # The reference fold asserts, failure by failure, that R6 breaks only
    # in its count clause, at spread 2, on gap instances; every failure of
    # another requirement is unexpected.
    report, _ = default_sweep
    clean_split = (
        default_reference.unexpected_violations == 0
        and report.unexpected_violations == 0
    )
    found_spread_two = report.violation_counts["R6"] > 0

    pinned = run_module_cli(
        [
            "verify",
            "--tokens", "5",
            "--buckets", "4",
            "--fill", "3",
            "--first", "0",
            "--target-buckets", "5",
            "--format", "json",
        ]
    )
    pinned_ok = False
    if pinned.returncode == 2:
        document = json.loads(pinned.stdout)
        entry = next(e for e in document["requirements"] if e["id"] == "R6")
        pinned_ok = (
            entry["status"] == "fail"
            and entry["witness"]["occupancy3"] == [1, 2, 1, 1, 0]
        )

    passed = clean_split and found_spread_two and pinned_ok
    _verdict(
        3,
        passed,
        "reshard residue clause holds universally; count clause fails only on "
        f"gap instances, always at spread 2 ({report.violation_counts['R6']} cases); "
        "the pinned instance exits with the violation code and occupancy3 [1, 2, 1, 1, 0]",
    )


def test_criterion_4_round_boundary_labels():
    quadruples = 0
    failures = 0
    for params in planning_instances(SweepDomain()):
        quadruples += 1
        start = params.first_bucket
        width = params.fill_width
        size = params.first_set_size
        tokens = params.token_count
        labels = run_lifecycle(params).label
        if tokens >= 1 and labels[0] != start + width - 1:
            failures += 1
        if tokens >= width and labels[width - 1] != start:
            failures += 1
        if tokens > size + width - 1:
            if labels[size] != start + size + width - 1:
                failures += 1
            if labels[size + width - 1] != start + size:
                failures += 1
    _verdict(
        4,
        failures == 0,
        "the labels bracketing each descending sweep sit exactly at the window "
        f"edges on all {quadruples} stage-1 quadruples ({failures} failures)",
    )


def test_criterion_5_gap_law():
    quadruples = 0
    failures = 0
    for params in planning_instances(SweepDomain()):
        quadruples += 1
        labels = set(run_lifecycle(params).label)
        top = max(labels, default=params.first_bucket - 1)
        missing = sorted(set(range(params.first_bucket, top + 1)) - labels)
        descriptor = gap(params)
        if descriptor.present:
            expected = list(
                range(descriptor.gap_start, descriptor.gap_start + descriptor.gap_length)
            )
        else:
            expected = []
        if missing != expected:
            failures += 1
    _verdict(
        5,
        failures == 0,
        "the gap descriptor equals a brute-force diff of the emitted label set "
        f"against the contiguous range on all {quadruples} stage-1 quadruples",
    )


def test_criterion_6_cli_determinism_and_round_trip():
    instances = [
        PlacementParams(10, 4, 2, 0, 5),
        PlacementParams(5, 4, 3, 0, 5),
        PlacementParams(9, 4, 3, 3, 7),
        PlacementParams(0, 3, 2, 0, 4),
    ]
    round_trips_ok = True
    for params in instances:
        result = run_module_cli(
            [
                "trace",
                "--tokens", str(params.token_count),
                "--buckets", str(params.first_set_size),
                "--fill", str(params.fill_width),
                "--first", str(params.first_bucket),
                "--target-buckets", str(params.second_set_size),
                "--format", "json",
            ]
        )
        if result.returncode != 0:
            round_trips_ok = False
            continue
        rebuilt = parse_trace_report(json.loads(result.stdout))
        direct = run_lifecycle(params)
        if rebuilt != direct:
            round_trips_ok = False
        if check_requirements(rebuilt) != check_requirements(direct):
            round_trips_ok = False

    commands = [
        ["plan", "--tokens", "7", "--buckets", "5", "--fill", "3", "--first", "2"],
        ["plan", "--tokens", "7", "--buckets", "5", "--fill", "3", "--first", "2", "--format", "csv"],
        ["plan", "--tokens", "7", "--buckets", "5", "--fill", "3", "--first", "2", "--format", "json"],
        ["trace", "--tokens", "5", "--buckets", "4", "--fill", "3", "--first", "0", "--target-buckets", "5"],
        ["trace", "--tokens", "5", "--buckets", "4", "--fill", "3", "--first", "0", "--target-buckets", "5", "--format", "csv"],
        ["trace", "--tokens", "5", "--buckets", "4", "--fill", "3", "--first", "0", "--target-buckets", "5", "--format", "json"],
        ["verify", "--tokens", "10", "--buckets", "4", "--fill", "2", "--first", "0", "--target-buckets", "5"],
        ["verify", "--tokens", "5", "--buckets", "4", "--fill", "3", "--first", "0", "--target-buckets", "5", "--format", "json"],
        ["sweep", "--max-buckets", "2"],
        ["sweep", "--max-buckets", "2", "--format", "json"],
    ]
    deterministic = True
    for command in commands:
        first = run_module_cli(command)
        second = run_module_cli(command)
        if (
            first.stdout != second.stdout
            or first.stderr != second.stderr
            or first.returncode != second.returncode
        ):
            deterministic = False

    passed = round_trips_ok and deterministic
    _verdict(
        6,
        passed,
        f"trace JSON re-verification reproduces identical reports on {len(instances)} "
        f"instances and {len(commands)} commands are byte-identical across repeat runs",
    )
