"""Deterministic planner, simulator and exhaustive verifier for
three-stage token placement on bucket rings.

Stage 1 confines tokens to a window of consecutive ring buckets using
two counter-rotating round-robin streams, stage 2 rebalances across the
whole ring moving each token at most once, and stage 3 re-shards into a
strictly larger bucket set.  Every stage is a closed form of the token
index: ``plan_stage1`` for the fill, the label and its residues for the
rebalance and re-shard, ``gap`` for the labels a truncated round skips.
``run_lifecycle`` keeps a run as one column per stage, the labels among
them, each built for one period in the token index and repeated.  The
verifier checks the homogeneity and
move-budget requirements the scheme promises, and ``sweep`` checks a
whole parameter domain exhaustively, comparing each trace's stage-1
column with ``prose_oracle_stage1``, an independent walk of the two
stream pointers, on every stage-1 instance.
"""

from .lifecycle import LifecycleTrace, run_lifecycle
from .placement import (
    GapDescriptor,
    PlacementParams,
    gap,
    plan_stage1,
)
from .verify import (
    REQUIREMENT_DESCRIPTIONS,
    REQUIREMENT_IDS,
    RequirementCheck,
    RequirementReport,
    SweepDomain,
    SweepReport,
    check_requirements,
    prose_oracle_stage1,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "GapDescriptor",
    "LifecycleTrace",
    "PlacementParams",
    "REQUIREMENT_DESCRIPTIONS",
    "REQUIREMENT_IDS",
    "RequirementCheck",
    "RequirementReport",
    "SweepDomain",
    "SweepReport",
    "check_requirements",
    "gap",
    "plan_stage1",
    "prose_oracle_stage1",
    "run_lifecycle",
    "sweep",
    "__version__",
]
