"""Full three-stage lifecycle execution with per-token move accounting.

The trace records, for every token, where it sat after each stage plus a
move flag, so the at-most-one-move contract is checkable as plain data.
A move happens between stages 1 and 2 exactly when the two buckets
differ; the representation has one slot per token per stage, which makes
a second move inexpressible by construction.  Stage 3 is a fresh
assignment into the second bucket set and is not counted as a move
within the first set.

A trace stores only its parameters and placements; each per-stage
occupancy histogram is tallied from its bucket column on first use.
Traces are immutable once produced and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .placement import PlacementParams, _stage1_rows

__all__ = [
    "LifecycleTrace",
    "TokenPlacement",
    "run_lifecycle",
]


class TokenPlacement(NamedTuple):
    """Per-token record across the three stages."""

    token: int
    label: int
    stage1_bucket: int
    stage2_bucket: int
    stage3_bucket: int
    moved_in_stage2: bool


@dataclass(frozen=True)
class LifecycleTrace:
    """Ordered placements for one instance plus occupancy per stage.

    ``occupancyN`` is the read-only tally of the ``stageN_bucket`` column,
    made at most once per trace.  ``occupancy1`` and ``occupancy2`` are
    indexed by first-set bucket, ``occupancy3`` by second-set bucket.
    """

    params: PlacementParams
    placements: tuple[TokenPlacement, ...]

    @cached_property
    def occupancy1(self) -> tuple[int, ...]:
        buckets = (p.stage1_bucket for p in self.placements)
        return _tally(buckets, self.params.first_set_size)

    @cached_property
    def occupancy2(self) -> tuple[int, ...]:
        buckets = (p.stage2_bucket for p in self.placements)
        return _tally(buckets, self.params.first_set_size)

    @cached_property
    def occupancy3(self) -> tuple[int, ...]:
        buckets = (p.stage3_bucket for p in self.placements)
        return _tally(buckets, self.params.second_set_size)


def _tally(buckets: Iterable[int], size: int) -> tuple[int, ...]:
    """Histogram of bucket indices in ``[0, size)``, zero counts included."""
    counts = [0] * size
    for bucket in buckets:
        counts[bucket] += 1
    return tuple(counts)


def run_lifecycle(params: PlacementParams) -> LifecycleTrace:
    """Execute all three stages and return the trace.

    Pure function of ``params``: two runs on equal parameters yield
    identical traces.  Each token's label and stage-1 bucket come from
    one pass, and stages 2 and 3 are that label's residues.
    """
    first_size = params.first_set_size
    second_size = params.second_set_size
    placements = []
    for token, value, bucket in _stage1_rows(params):
        after = value % first_size
        final = value % second_size
        placements.append(
            TokenPlacement(token, value, bucket, after, final, bucket != after)
        )
    return LifecycleTrace(params, tuple(placements))
