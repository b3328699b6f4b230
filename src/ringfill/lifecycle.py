"""Full three-stage lifecycle execution with per-token move accounting.

The trace records, for every token, where it sat after each stage plus a
move flag, so the at-most-one-move contract is checkable as plain data.
A move happens between stages 1 and 2 exactly when the two buckets
differ; the representation has one slot per token per stage, which makes
a second move inexpressible by construction.  Stage 3 is a fresh
assignment into the second bucket set and is not counted as a move
within the first set.

Traces are immutable once produced and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .placement import PlacementParams, _label, plan_stage1

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

    ``occupancy1`` and ``occupancy2`` are indexed by first-set bucket,
    ``occupancy3`` by second-set bucket.  ``occupancy1`` is zero outside
    the fill window.  Each histogram sums to ``token_count``.
    """

    params: PlacementParams
    placements: tuple[TokenPlacement, ...]
    occupancy1: tuple[int, ...]
    occupancy2: tuple[int, ...]
    occupancy3: tuple[int, ...]


def _tally(buckets: Iterable[int], size: int) -> tuple[int, ...]:
    """Histogram of bucket indices in ``[0, size)``, zero counts included."""
    counts = [0] * size
    for bucket in buckets:
        counts[bucket] += 1
    return tuple(counts)


def run_lifecycle(params: PlacementParams) -> LifecycleTrace:
    """Execute all three stages and return the trace.

    Pure function of ``params``: two runs on equal parameters yield
    identical traces.
    """
    first_size = params.first_set_size
    second_size = params.second_set_size
    placements = []
    for token, bucket in plan_stage1(params):
        value = _label(params, token)
        after = value % first_size
        final = value % second_size
        placements.append(
            TokenPlacement(token, value, bucket, after, final, bucket != after)
        )
    return LifecycleTrace(
        params=params,
        placements=tuple(placements),
        occupancy1=_tally((p.stage1_bucket for p in placements), first_size),
        occupancy2=_tally((p.stage2_bucket for p in placements), first_size),
        occupancy3=_tally((p.stage3_bucket for p in placements), second_size),
    )
