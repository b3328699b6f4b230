"""The public names of the package and of its command-line module: any
change to the API has to edit this test."""

from __future__ import annotations

import ringfill
import ringfill.cli


def test_public_names_are_pinned():
    assert sorted(ringfill.__all__) == [
        "GapDescriptor",
        "LifecycleTrace",
        "PlacementParams",
        "REQUIREMENT_DESCRIPTIONS",
        "REQUIREMENT_IDS",
        "RequirementCheck",
        "RequirementReport",
        "SweepDomain",
        "SweepReport",
        "__version__",
        "check_requirements",
        "gap",
        "label",
        "plan_stage1",
        "prose_oracle_stage1",
        "run_lifecycle",
        "sweep",
    ]
    assert all(hasattr(ringfill, name) for name in ringfill.__all__)


def test_cli_module_names_are_pinned():
    assert sorted(ringfill.cli.__all__) == [
        "build_parser",
        "main",
        "parse_trace_report",
        "plan_report",
        "sweep_report_document",
        "trace_report",
    ]
    assert all(hasattr(ringfill.cli, name) for name in ringfill.cli.__all__)
