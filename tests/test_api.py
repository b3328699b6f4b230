"""The package's public names: any change to the API has to edit this test."""

from __future__ import annotations

import ringfill


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
        "TokenPlacement",
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
