"""Shared helpers: a terse instance builder, a hypothesis strategy, a
runner for the module command line, a recorder of histogram tallies,
the closed-form histogram of label residues, the per-token reference
fold that every sweep verdict is held to and the dict-per-record JSON
reports that the report writers are held to."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ringfill.lifecycle
import ringfill.verify
from ringfill import (
    GapDescriptor,
    LifecycleTrace,
    PlacementParams,
    RequirementReport,
    SweepDomain,
    SweepReport,
    check_requirements,
    gap,
    label,
    plan_stage1,
    run_lifecycle,
)

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


@pytest.fixture
def tally_sizes(monkeypatch) -> list[int]:
    """Set sizes of the trace histograms tallied from now on, in order."""
    sizes: list[int] = []
    real_tally = ringfill.lifecycle._tally

    def counting_tally(buckets, size):
        sizes.append(size)
        return real_tally(buckets, size)

    monkeypatch.setattr(ringfill.lifecycle, "_tally", counting_tally)
    return sizes


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


def reference_sweep(domain: SweepDomain) -> SweepReport:
    """The verdict ``sweep(domain)`` must give, from a full check of every instance.

    Each instance of ``domain.iter_instances()`` gets its own
    ``run_lifecycle``, its own comparison with the pointer-walk oracle
    (looked up in ``ringfill.verify`` at call time, so a test can replace
    it) and ``check_requirements`` on its trace.  A failure is expected
    only when it is R6's count clause at spread 2 on an instance whose
    labels have a gap.  On every instance it also asserts that the closed
    form ``_label_residue_counts`` equals the trace's ``occupancy3`` and
    that every R6 failure has that expected form, so a failure of any
    other requirement is the only kind counted as unexpected.
    """
    report = SweepReport(domain=domain)
    for params in domain.iter_instances():
        report.instances_checked += 1
        trace = run_lifecycle(params)
        stage1 = [(p.token, p.stage1_bucket) for p in trace.placements]
        if stage1 != ringfill.verify.prose_oracle_stage1(params):
            report.oracle_mismatches += 1
            if report.minimal_oracle_mismatch is None:
                report.minimal_oracle_mismatch = params
        descriptor = gap(params)
        occupancy = _label_residue_counts(params, descriptor, params.second_set_size)
        assert occupancy == list(trace.occupancy3), params
        for check in check_requirements(trace).failures():
            report.violation_counts[check.id] += 1
            report.minimal_violations.setdefault(check.id, (params, check))
            if check.id != "R6":
                report.unexpected_violations += 1
            else:
                witness = check.witness
                assert witness["clause"] == "count" and witness["spread"] == 2, check
                assert descriptor.present, check
    return report


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
        "params": asdict(trace.params),
        "placements": [placement._asdict() for placement in trace.placements],
        "occupancy1": list(trace.occupancy1),
        "occupancy2": list(trace.occupancy2),
        "occupancy3": list(trace.occupancy3),
        "gap": asdict(gap(trace.params)),
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
