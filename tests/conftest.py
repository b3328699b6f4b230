"""Shared helpers: a terse instance builder, hypothesis strategies, a
runner for the module command line, a guard against recording a spread
after every token, a recorder of whole-column histogram tallies, the
closed-form histogram of label residues, a per-token record and the
reader of a trace's rows as records, a report's failing checks, the
instances of a sweep domain, the JSON reports as whole texts, and the
references the fast paths are held to: the per-token label, the
per-token lifecycle, the per-token requirement check, the per-entry
trace parser, the per-instance sweep and the dict-per-record JSON
reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import starmap
from pathlib import Path
from typing import Iterator, NamedTuple

import pytest
from hypothesis import strategies as st

import ringfill.lifecycle
import ringfill.verify
from ringfill import (
    REQUIREMENT_IDS,
    GapDescriptor,
    LifecycleTrace,
    PlacementParams,
    RequirementCheck,
    RequirementReport,
    SweepDomain,
    SweepReport,
    check_requirements,
    gap,
    plan_stage1,
    run_lifecycle,
)
from ringfill.cli import _plan_blocks, _trace_blocks

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -m ringfill.cli ARGS`` in a child, capturing bytes.

    The checkout's ``src`` goes first on the child's ``PYTHONPATH``, so
    the child imports the same package as the tests without an install.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        [sys.executable, "-m", "ringfill.cli"] + args, capture_output=True, env=env
    )


def make_params(
    tokens: int, buckets: int, fill: int, first: int = 0, target: int | None = None
) -> PlacementParams:
    """Build an instance; the second set defaults to one past the first."""
    if target is None:
        target = buckets + 1
    return PlacementParams(
        token_count=tokens,
        first_set_size=buckets,
        fill_width=fill,
        first_bucket=first,
        second_set_size=target,
    )


@st.composite
def placement_params(
    draw, max_buckets: int = 8, max_tokens: int = 40, target_span: int = 3
) -> PlacementParams:
    """Valid instances across small rings, windows, phases and horizons."""
    buckets = draw(st.integers(1, max_buckets))
    fill = draw(st.integers(1, buckets))
    first = draw(st.integers(0, buckets - 1))
    tokens = draw(st.integers(0, max_tokens))
    target = draw(st.integers(buckets + 1, target_span * buckets))
    return PlacementParams(
        token_count=tokens,
        first_set_size=buckets,
        fill_width=fill,
        first_bucket=first,
        second_set_size=target,
    )


@st.composite
def large_ring_params(draw, max_buckets: int = 10**6, max_tokens: int = 200_000) -> PlacementParams:
    """Instances on rings of up to ``max_buckets`` buckets, with up to
    three rounds plus three tokens, or ``max_tokens`` if fewer."""
    buckets = draw(st.integers(1, max_buckets))
    fill = draw(st.integers(1, buckets))
    first = draw(st.integers(0, buckets - 1))
    tokens = draw(st.integers(0, min(3 * buckets + 3, max_tokens)))
    target = draw(st.integers(buckets + 1, 2 * buckets))
    return PlacementParams(tokens, buckets, fill, first, target)


@pytest.fixture
def no_spread_record(monkeypatch) -> None:
    """Make building the sweep's per-prefix spread record fail the test."""

    def refuse(buckets, size):
        raise AssertionError("a histogram's spread was recorded after every token")

    monkeypatch.setattr(ringfill.verify, "_spreads", refuse)


@pytest.fixture
def tally_sizes(monkeypatch) -> list[int]:
    """Set sizes of the whole-column histograms tallied from now on, in
    order: the trace's occupancy histograms and ``check_requirements``'s."""
    sizes: list[int] = []
    real_tally = ringfill.lifecycle._tally

    def counting_tally(buckets, size, *period):
        sizes.append(size)
        return real_tally(buckets, size, *period)

    for module in (ringfill.lifecycle, ringfill.verify):
        monkeypatch.setattr(module, "_tally", counting_tally)
    return sizes


class Placement(NamedTuple):
    """One token's record across the three stages: a trace's row."""

    token: int
    label: int
    stage1_bucket: int
    stage2_bucket: int
    stage3_bucket: int
    moved_in_stage2: bool


def trace_rows(trace: LifecycleTrace) -> tuple[Placement, ...]:
    """The trace's rows, one record per token, read from its columns."""
    return tuple(starmap(Placement, zip(*trace.columns)))


def failures(report: RequirementReport) -> tuple[RequirementCheck, ...]:
    """The failing checks of ``report``, in report order."""
    return tuple(check for check in report.checks if not check.passed)


def planning_instances(domain: SweepDomain) -> Iterator[PlacementParams]:
    """The stage-1 grid of ``domain``: one instance per (size, width,
    start, tokens), its second set pinned one past the first, which
    stage 1 and the labels do not read."""
    for size, width, start, token_counts in domain.iter_triples():
        for tokens in token_counts:
            yield PlacementParams(tokens, size, width, start, size + 1)


def instances(domain: SweepDomain) -> Iterator[PlacementParams]:
    """Every instance of ``domain``, in lexicographic parameter order."""
    for planning in planning_instances(domain):
        for second in domain.second_set_sizes(planning.first_set_size):
            yield planning._replace(second_set_size=second)


def plan_report(params: PlacementParams) -> str:
    """The plan JSON report as one text."""
    return "".join(_plan_blocks(params))


def trace_report(trace: LifecycleTrace, report: RequirementReport) -> str:
    """The lifecycle JSON report as one text."""
    return "".join(_trace_blocks(trace, report))


def label(params: PlacementParams, token: int) -> int:
    """Permanent integer label of a token, one token at a time.

    A token rides the descending first stream exactly when its position
    within the current round falls inside the fill window, i.e. when
    ``token % first_set_size < fill_width``; every other token rides the
    ascending second stream.  Second-stream tokens take the plain
    ascending form ``first_bucket + token``.  First-stream tokens take a
    form that descends within each round, so that reducing it modulo the
    ring size walks the window from its far end back to the start bucket.
    Labels never drop below ``first_bucket`` and, except for a possible
    gap left by a truncated final round, cover a contiguous range.
    """
    if not 0 <= token < params.token_count:
        raise ValueError(
            f"token {token} out of range for token_count={params.token_count}"
        )
    round_pos = token % params.first_set_size
    if round_pos < params.fill_width:
        return params.first_bucket + token + params.fill_width - 1 - 2 * round_pos
    return params.first_bucket + token


def _label_residue_counts(
    params: PlacementParams, descriptor: GapDescriptor, size: int
) -> list[int]:
    """Tally of ``label % size`` over every token, from the label set alone.

    The labels are the contiguous range of ``token_count + gap_length``
    values from ``first_bucket`` up, minus the gap interval.  The range
    puts ``length // size`` labels in every residue class and one more
    in the ``length % size`` classes that follow ``first_bucket``; the
    gap takes one label from each of its values' classes.
    """
    base, extra = divmod(params.token_count + descriptor.gap_length, size)
    # Counts by class offset from first_bucket, then rotated into place.
    counts = [base + 1] * extra + [base] * (size - extra)
    gap_offset = descriptor.gap_start - params.first_bucket
    for offset in range(gap_offset, gap_offset + descriptor.gap_length):
        counts[offset % size] -= 1
    turn = -params.first_bucket % size
    return counts[turn:] + counts[:turn]


def reference_placement(params: PlacementParams, token: int) -> Placement:
    """One token's record, built from ``label`` and the closed forms of
    ``plan_stage1``'s docstring alone."""
    size = params.first_set_size
    width = params.fill_width
    value = label(params, token)
    round_pos = token % size
    if round_pos < width:
        bucket = value % size
    else:
        offset = ((token // size) * (size - width) + round_pos - width) % width
        bucket = (params.first_bucket + offset) % size
    after = value % size
    final = value % params.second_set_size
    return Placement(token, value, bucket, after, final, bucket != after)


def reference_lifecycle(params: PlacementParams) -> tuple[Placement, ...]:
    """The rows ``run_lifecycle(params)`` must hold, built one token at a
    time."""
    return tuple(reference_placement(params, token) for token in range(params.token_count))


def trace_of(params: PlacementParams, placements) -> LifecycleTrace:
    """The trace whose columns hold ``placements``' fields after ``token``."""
    columns = zip(*placements) if placements else [()] * len(Placement._fields)
    _, *stage_columns = columns
    return LifecycleTrace(params, *stage_columns)


def reference_parse_trace_report(document: dict) -> LifecycleTrace:
    """What ``parse_trace_report(document)`` must give: the same trace, or
    a ValueError with the same message.  Each placement entry is checked
    in turn, in the order its fields are read, and built into a
    ``Placement``."""
    if not isinstance(document, dict):
        raise ValueError("report must be a JSON object")
    report_keys = {
        "params", "placements", "occupancy1", "occupancy2", "occupancy3", "gap", "requirements",
    }
    if document.keys() != report_keys:
        raise ValueError(f"report must have exactly the keys {sorted(report_keys)}")
    raw_params = document["params"]
    if not isinstance(raw_params, dict):
        raise ValueError("params must be an object")
    expected_fields = set(PlacementParams._fields)
    if raw_params.keys() != expected_fields:
        raise ValueError(f"params must have exactly the fields {sorted(expected_fields)}")
    if not all(type(value) is int for value in raw_params.values()):
        raise ValueError("params fields must be integers")
    params = PlacementParams(**raw_params)

    raw_placements = document["placements"]
    if not isinstance(raw_placements, list):
        raise ValueError("placements must be a list")
    if len(raw_placements) != params.token_count:
        raise ValueError(f"expected {params.token_count} placements, got {len(raw_placements)}")
    placement_fields = set(Placement._fields)
    integer_fields = Placement._fields[:-1]
    placements = []
    for index, entry in enumerate(raw_placements):
        if not isinstance(entry, dict):
            raise ValueError(f"placement {index} must be an object")
        if entry.keys() != placement_fields:
            raise ValueError(
                f"placement {index} must have exactly the fields {sorted(placement_fields)}"
            )
        placement = Placement(**entry)
        if placement.token != index:
            raise ValueError(
                f"placement {index} has token {placement.token}, "
                "tokens must be dense and ordered"
            )
        for name, value in zip(integer_fields, placement):
            if type(value) is not int:
                raise ValueError(f"placement {index} field {name} must be an integer")
        if not isinstance(placement.moved_in_stage2, bool):
            raise ValueError(f"placement {index} field moved_in_stage2 must be a boolean")
        if not (
            0 <= placement.stage1_bucket < params.first_set_size
            and 0 <= placement.stage2_bucket < params.first_set_size
            and 0 <= placement.stage3_bucket < params.second_set_size
        ):
            raise ValueError(f"placement {index} has a bucket outside its set")
        placements.append(placement)
    trace = trace_of(params, placements)

    for name, field, size in (
        ("occupancy1", "stage1_bucket", params.first_set_size),
        ("occupancy2", "stage2_bucket", params.first_set_size),
        ("occupancy3", "stage3_bucket", params.second_set_size),
    ):
        raw = document[name]
        if not isinstance(raw, list):
            raise ValueError(f"{name} must be a list")
        if len(raw) != size:
            raise ValueError(f"{name} must have {size} entries, got {len(raw)}")
        if not all(type(value) is int for value in raw):
            raise ValueError(f"{name} entries must be integers")
        counts = [0] * size
        for placement in placements:
            counts[getattr(placement, field)] += 1
        if raw != counts:
            raise ValueError(f"{name} does not tally the {field} column")
    for bucket, count in enumerate(trace.occupancy1):
        if count != 0 and not params.in_fill_window(bucket):
            raise ValueError(f"occupancy1 is nonzero at bucket {bucket}, outside the fill window")
    expected_gap = gap(params)._asdict()
    raw_gap = document["gap"]
    if not (
        isinstance(raw_gap, dict)
        and raw_gap == expected_gap
        and all(type(raw_gap[name]) is type(value) for name, value in expected_gap.items())
    ):
        raise ValueError(f"gap must be {json.dumps(expected_gap)}, the label gap of params")
    return trace


def reference_check_requirements(trace: LifecycleTrace) -> RequirementReport:
    """What ``check_requirements(trace)`` must give, restated one token at a time.

    A first-failure clause walks the tokens in order and stops at its
    first offender; a count clause tallies its column, a stage map's
    up to its first offender, and fails at a spread over 1.
    """
    params = trace.params
    records = list(zip(*trace.columns))

    def spread_clause(name, counts, **lead):
        spread = max(counts) - min(counts)
        return {**lead, name: counts, "spread": spread} if spread > 1 else None

    def distinct_labels():
        owners = {}
        for token, value, *_ in records:
            if value in owners:
                return {"token_a": owners[value], "token_b": token, "label": value}
            owners[value] = token
        return None

    def window_counts():
        counts = [0] * params.fill_width
        for _, _, bucket, *_ in records:
            if params.in_fill_window(bucket):
                counts[params.window_offset(bucket)] += 1
        return spread_clause("window_counts", counts)

    def label_residues():
        counts = [0] * params.first_set_size
        for _, value, *_ in records:
            counts[value % params.first_set_size] += 1
        return spread_clause("residue_counts", counts)

    def move_budget():
        for token, _, before, after, _, moved in records:
            if moved != (before != after):
                reason = "flag_mismatch"
            elif moved and params.in_fill_window(after):
                reason = "moved_within_window"
            else:
                continue
            return {
                "token": token,
                "stage1_bucket": before,
                "stage2_bucket": after,
                "reason": reason,
            }
        return None

    def stage_map(field, size):
        index = Placement._fields.index(field)
        counts = [0] * size
        for record in records:
            token, value, bucket = record[0], record[1], record[index]
            if bucket != value % size:
                return {
                    "clause": "residue",
                    "token": token,
                    "label": value,
                    field: bucket,
                    "expected": value % size,
                }
            counts[bucket] += 1
        occupancy = "occupancy" + field[len("stage")]
        return spread_clause(occupancy, counts, clause="count")

    def ascending_direction():
        position = 0
        for token, _, bucket, _, _, moved in records:
            if not moved:
                continue
            expected = position % params.fill_width
            actual = params.window_offset(bucket)
            if actual != expected:
                return {
                    "position": position,
                    "token": token,
                    "expected_offset": expected,
                    "actual_offset": actual,
                }
            position += 1
        return None

    witnesses = {
        "R1": distinct_labels(),
        "R2": window_counts(),
        "R3": label_residues(),
        "R4": move_budget(),
        "R5": stage_map("stage2_bucket", params.first_set_size),
        "R6": stage_map("stage3_bucket", params.second_set_size),
        "RC": ascending_direction(),
    }
    return RequirementReport(
        tuple(
            RequirementCheck(requirement_id, True)
            if witness is None
            else RequirementCheck(requirement_id, False, {"params": params._asdict(), **witness})
            for requirement_id, witness in witnesses.items()
        )
    )


def reference_sweep(domain: SweepDomain) -> SweepReport:
    """The verdict ``sweep(domain)`` must give, from a full check of every instance.

    Each instance of ``instances(domain)`` gets its own
    ``run_lifecycle``, its own comparison with the pointer-walk oracle
    (both looked up in ``ringfill.verify`` at call time, so a test can
    replace them) and ``check_requirements`` on its trace.  A failure is expected
    only when it is R6's count clause at spread 2 on an instance whose
    labels have a gap.  On every instance it also asserts that the closed
    form ``_label_residue_counts`` equals the trace's ``occupancy3`` and
    that every R6 failure has that expected form, so a failure of any
    other requirement is the only kind counted as unexpected.
    """
    instances_checked = oracle_mismatches = unexpected_violations = 0
    minimal_oracle_mismatch = None
    violation_counts = dict.fromkeys(REQUIREMENT_IDS, 0)
    minimal_violations = {}
    for params in instances(domain):
        instances_checked += 1
        trace = ringfill.verify.run_lifecycle(params)
        stage1 = list(enumerate(trace.stage1_bucket))
        if stage1 != ringfill.verify.prose_oracle_stage1(params):
            oracle_mismatches += 1
            if minimal_oracle_mismatch is None:
                minimal_oracle_mismatch = params
        descriptor = gap(params)
        occupancy = _label_residue_counts(params, descriptor, params.second_set_size)
        assert occupancy == list(trace.occupancy3), params
        for check in failures(check_requirements(trace)):
            violation_counts[check.id] += 1
            minimal_violations.setdefault(check.id, (params, check))
            if check.id != "R6":
                unexpected_violations += 1
            else:
                witness = check.witness
                assert witness["clause"] == "count" and witness["spread"] == 2, check
                assert descriptor.present, check
    return SweepReport(
        domain,
        instances_checked,
        violation_counts,
        minimal_violations,
        oracle_mismatches,
        minimal_oracle_mismatch,
        unexpected_violations,
    )


def reference_plan_report(params: PlacementParams) -> str:
    """The bytes ``plan_report(params)`` must give: a dict per record,
    rendered by ``json.dumps(indent=2)``."""
    document = {
        "params": {
            "token_count": params.token_count,
            "first_set_size": params.first_set_size,
            "fill_width": params.fill_width,
            "first_bucket": params.first_bucket,
        },
        "placements": [
            {"token": token, "label": label(params, token), "stage1_bucket": bucket}
            for token, bucket in plan_stage1(params)
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def reference_trace_report(trace: LifecycleTrace, report: RequirementReport) -> str:
    """The bytes ``trace_report(trace, report)`` must give: a dict per
    placement, rendered by ``json.dumps(indent=2)``."""
    document = {
        "params": trace.params._asdict(),
        "placements": [placement._asdict() for placement in trace_rows(trace)],
        "occupancy1": list(trace.occupancy1),
        "occupancy2": list(trace.occupancy2),
        "occupancy3": list(trace.occupancy3),
        "gap": gap(trace.params)._asdict(),
        "requirements": [
            {
                "id": check.id,
                "status": "pass" if check.passed else "fail",
                "witness": check.witness,
            }
            for check in report.checks
        ],
    }
    return json.dumps(document, indent=2) + "\n"
