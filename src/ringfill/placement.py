"""Closed-form maps for three-stage token placement on a bucket ring.

A run drops ``token_count`` tokens into a ring of ``first_set_size``
buckets.  Stage 1 confines them to a window of ``fill_width`` consecutive
ring positions starting at ``first_bucket``.  Two interleaved round-robin
streams sweep that window in opposite directions: a descending stream for
tokens whose final ring bucket already lies inside the window, and an
ascending stream, whose position persists across rounds, for everyone
else.  Running the streams in opposite directions is what keeps the
window homogeneous in both token count and label value.  A descending
token's stage-1 bucket is its label residue (R4: its home bucket lies in
the window); an ascending token's slot is a closed form of its index.
``ringfill.verify.prose_oracle_stage1`` walks the two pointers literally
and the sweep checks the two agree.

Stage 2 spreads the tokens over the whole ring and stage 3 re-shards them
into a strictly larger second bucket set.  Every choice after stage 1 is
a residue of the token's permanent integer label: stage 2 uses
``label % first_set_size``, stage 3 uses ``label % second_set_size``.
First-stream tokens already sit at their stage-2 bucket after stage 1,
so the rebalance moves only second-stream tokens, each exactly once.
The label map is stated once, as the label column of
``_stage1_columns``: the token index plus one round's offsets.
``run_lifecycle`` keeps that column whole and the plan report writes it.

Tokens and labels are plain non-negative ints.  Label arithmetic is done
on unreduced integers so labels from different rounds never alias; bucket
indices are reduced modulo the relevant set size at operation boundaries.
Python ints are unbounded, so no overflow guard is needed at any size.
"""

from __future__ import annotations

from itertools import chain, cycle, islice, repeat
from operator import add, mod
from typing import Iterator, NamedTuple

__all__ = [
    "GapDescriptor",
    "PlacementParams",
    "gap",
    "plan_stage1",
]


class _PlacementFields(NamedTuple):
    token_count: int
    first_set_size: int
    fill_width: int
    first_bucket: int
    second_set_size: int


class PlacementParams(_PlacementFields):
    """One placement instance, an immutable named tuple.

    Attributes:
        token_count: number of tokens to place, zero allowed.
        first_set_size: bucket count of the first set; buckets form a
            ring counted modulo this size.
        fill_width: how many consecutive ring buckets stage 1 may use.
        first_bucket: ring index where the fill window starts.
        second_set_size: bucket count of the second set; must be strictly
            larger than the first.

    Construction, by position or by keyword, raises ValueError on an
    invalid instance.  ``_replace`` and ``_make`` build the tuple
    without that check, so the package never calls them.
    """

    __slots__ = ()

    # The sweep builds one per gap question, so the fields are checked
    # as arguments and the tuple built without a further call.
    def __new__(
        cls,
        token_count: int,
        first_set_size: int,
        fill_width: int,
        first_bucket: int,
        second_set_size: int,
    ) -> PlacementParams:
        if token_count < 0:
            raise ValueError(f"token_count must be >= 0, got {token_count}")
        if first_set_size < 1:
            raise ValueError(f"first_set_size must be >= 1, got {first_set_size}")
        if not 1 <= fill_width <= first_set_size:
            raise ValueError(
                "fill_width must be between 1 and first_set_size, got "
                f"fill_width={fill_width} with first_set_size={first_set_size}"
            )
        if not 0 <= first_bucket < first_set_size:
            raise ValueError(
                "first_bucket must be between 0 and first_set_size - 1, got "
                f"first_bucket={first_bucket} with first_set_size={first_set_size}"
            )
        if second_set_size <= first_set_size:
            raise ValueError(
                "second_set_size must exceed first_set_size, got "
                f"second_set_size={second_set_size} with first_set_size={first_set_size}"
            )
        fields = token_count, first_set_size, fill_width, first_bucket, second_set_size
        return tuple.__new__(cls, fields)

    def window_offset(self, bucket: int) -> int:
        """Distance of a ring bucket from the window start, around the ring."""
        return (bucket - self.first_bucket) % self.first_set_size

    def in_fill_window(self, bucket: int) -> bool:
        return self.window_offset(bucket) < self.fill_width


def _stage1_columns(params: PlacementParams) -> tuple[Iterator[int], Iterator[int]]:
    """The label and stage-1 bucket columns, in token order, each an
    iterator.

    A label is ``first_bucket + token`` plus the offset of its round
    position ``p``: ``fill_width - 1 - 2 * p`` on the descending run,
    ``p < fill_width``, and 0 on the ascending one.  One round of offsets
    is held, ``min(first_set_size, token_count)`` of them.  So a round's
    labels run down from ``fill_width - 1`` above its base
    ``first_bucket + round * first_set_size`` to the base, then up from
    ``base + fill_width``.  A descending label's residue walks the window
    from its far end back to its start in every round, and the ascending
    tokens of all rounds take the window's slots in turn, as
    :func:`plan_stage1` says; the bucket column is built a round at a
    time.
    """
    size = params.first_set_size
    width = params.fill_width
    tokens = params.token_count
    first = params.first_bucket
    offsets = tuple(islice(chain(range(width - 1, -width, -2), repeat(0)), min(size, tokens)))
    labels = map(add, range(first, first + tokens), cycle(offsets))
    # Only the window slots the tokens take are built, so the cost
    # follows the token count, not the window width: the descending run
    # from the far end, cut to the token count, and the ascending
    # stream's slots, which ``cycle`` keeps as the stream reaches them.
    slots = range(first, first + width)
    descending = tuple(islice(map(mod, reversed(slots), repeat(size)), tokens))
    ascending = cycle(map(mod, slots, repeat(size)))
    rest = min(size - width, tokens)
    rounds = range(0, tokens, size)
    bucket_runs = (run for _ in rounds for run in (descending, islice(ascending, rest)))
    # The last round may stop early.
    return labels, islice(chain.from_iterable(bucket_runs), tokens)


def plan_stage1(params: PlacementParams) -> list[tuple[int, int]]:
    """Stage-1 assignment for every token, in token order.

    Each entry is ``(token, ring_bucket)`` and every assigned bucket lies
    inside the fill window.  Zero tokens yield the empty plan.

    With ``round_pos = token % first_set_size``, a descending token
    (``round_pos < fill_width``) sits at its label residue, the home
    bucket R4 says it keeps.  An ascending token sits at the ascending
    stream's position: the count of ascending tokens before it,
    ``(token // first_set_size) * (first_set_size - fill_width)
    + round_pos - fill_width``, taken modulo ``fill_width`` from the
    window start.
    """
    _, buckets = _stage1_columns(params)
    return list(enumerate(buckets))


class GapDescriptor(NamedTuple):
    """Contiguous interval of label values that no token carries, an
    immutable named tuple.

    A run that stops partway through a descending sweep, before the sweep
    reaches the window's start bucket, leaves the low labels of its final
    round unassigned.  ``round`` is the index of that final round and
    ``offset`` is how far the last emitted label sits above the round's
    base label, which is always ``gap_length``; the missing values are
    ``{gap_start, ..., gap_start + gap_length - 1}``.

    The interval is anchored at ``first_bucket + round * first_set_size``:
    the whole label sequence is shifted by the window start, so the
    missing values are shifted with it.  All numeric fields are zero when
    no gap is present.
    """

    present: bool
    gap_start: int = 0
    gap_length: int = 0
    round: int = 0
    offset: int = 0


def gap(params: PlacementParams) -> GapDescriptor:
    """Describe the missing-label interval of a truncated final round.

    The emitted labels are contiguous from ``first_bucket`` upward unless
    the very last token rides the descending stream and stops short of
    the window start; only then is a gap present.
    """
    if params.token_count == 0:
        return GapDescriptor(present=False)
    last = params.token_count - 1
    round_pos = last % params.first_set_size
    if round_pos >= params.fill_width - 1:
        # Ascending-stream tail, or a descending sweep that reached the
        # window start: no labels are skipped.
        return GapDescriptor(present=False)
    round_index = last // params.first_set_size
    gap_length = params.fill_width - 1 - round_pos
    # The last label is gap_start + gap_length, so offset is gap_length.
    return GapDescriptor(
        present=True,
        gap_start=params.first_bucket + round_index * params.first_set_size,
        gap_length=gap_length,
        round=round_index,
        offset=gap_length,
    )
