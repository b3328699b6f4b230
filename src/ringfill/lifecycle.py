"""Full three-stage lifecycle execution with per-token move accounting.

The trace records, for every token, where it sat after each stage plus a
move flag, so the at-most-one-move contract is checkable as plain data.
A move happens between stages 1 and 2 exactly when the two buckets
differ; the representation has one slot per token per stage, which makes
a second move inexpressible by construction.  Stage 3 is a fresh
assignment into the second bucket set and is not counted as a move
within the first set.

A trace stores its parameters and one column per report field after
``token``, in the order ``FIELDS`` gives; the token is the index into
every column.  There is no per-token record: the report writers, the
parser and the verifier all read the columns.  Each per-stage occupancy
histogram is tallied from its column on first use.  Traces are
immutable once produced and safe to share between threads.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import cycle, islice, repeat
from math import lcm
from operator import add, mod, sub
from typing import Iterable, NamedTuple, Sequence

from .placement import PlacementParams, _stage1_columns

__all__ = [
    "FIELDS",
    "LifecycleTrace",
    "run_lifecycle",
]

# The per-token fields of every report, in column order.
FIELDS = ("token", "label", "stage1_bucket", "stage2_bucket", "stage3_bucket", "moved_in_stage2")


class _TraceFields(NamedTuple):
    params: PlacementParams
    label: tuple[int, ...]
    stage1_bucket: tuple[int, ...]
    stage2_bucket: tuple[int, ...]
    stage3_bucket: tuple[int, ...]
    moved_in_stage2: tuple[bool, ...]


class LifecycleTrace(_TraceFields):
    """One instance's placements as columns, plus occupancy per stage.

    An immutable named tuple of ``params`` and one column per field of
    ``FIELDS`` after ``token``: column ``name`` holds every token's field
    ``name``, in token order.  ``occupancyN`` is the read-only tally of
    the ``stageN_bucket`` column, made at most once per trace and cached
    outside the tuple; setting or deleting any attribute, a field or
    not, raises AttributeError.  ``occupancy1`` and ``occupancy2`` are
    indexed by first-set bucket, ``occupancy3`` by second-set bucket.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a trace is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a trace is immutable")

    @property
    def columns(self) -> tuple[Sequence[int], ...]:
        """Every field of ``FIELDS`` as a column, in that order; the token
        column is the range of indices."""
        return (range(len(self.label)), *(getattr(self, name) for name in FIELDS[1:]))

    @cached_property
    def occupancy1(self) -> tuple[int, ...]:
        return _tally(self.stage1_bucket, self.params.first_set_size)

    @cached_property
    def occupancy2(self) -> tuple[int, ...]:
        return _tally(self.stage2_bucket, self.params.first_set_size)

    @cached_property
    def occupancy3(self) -> tuple[int, ...]:
        return _tally(self.stage3_bucket, self.params.second_set_size)


def _tally(buckets: Iterable[int], size: int) -> tuple[int, ...]:
    """Histogram of bucket indices in ``[0, size)``, zero counts included;
    a bucket outside that range is not counted, as in ``verify._spreads``.
    It counts the occupancy histograms and every histogram that
    ``ringfill.verify.check_requirements`` reads on a whole trace."""
    # The list comes first, so a size too large to index raises at once.
    counts = [0] * size
    for bucket, held in Counter(buckets).items():
        if 0 <= bucket < size:
            counts[bucket] = held
    return tuple(counts)


def _column_periods(params: PlacementParams) -> tuple[int, ...]:
    """For each field of ``FIELDS``, the period in the token index of its
    column on ``params``, as ``run_lifecycle`` states it, and at most the
    token count; 0 where the column does not repeat: tokens and labels."""
    size = params.first_set_size
    periods = (0, 0, lcm(size, params.fill_width), size, lcm(size, params.second_set_size), size)
    return tuple(min(period, params.token_count) for period in periods)


def _repeated(period: tuple, length: int) -> tuple:
    """The first ``length`` items of ``period`` repeated without end."""
    return period if len(period) >= length else tuple(islice(cycle(period), length))


def run_lifecycle(params: PlacementParams) -> LifecycleTrace:
    """Execute all three stages and return the trace.

    Pure function of ``params``: two runs on equal parameters yield
    identical traces.  With ``B`` and ``B'`` the two set sizes and
    ``C`` the window width, the labels climb by ``B`` a round and every
    column after them repeats in the token index:

      label[t + B] == label[t] + B
      stage 1 repeats every lcm(B, C) tokens
      stage 2, ``label % B``, and the move flag repeat every B
      stage 3, ``label % B'``, repeats every lcm(B, B')

    A round of labels is the last round's plus ``B``, so a residue
    repeats every common multiple of ``B`` and its modulus.  The
    ascending stream takes ``B - C`` window slots a round, so its slots
    come round again every ``lcm(B, C)`` tokens.  A token moves exactly
    when it rides that stream, at round position ``C`` or later: it sits
    in the window after stage 1 and at its label residue, outside the
    window, after stage 2.  So each column is built for one period, or
    for every token where there are fewer, and then repeated: the labels
    as the token index plus the first round's offsets, taken from
    ``_stage1_columns``.
    """
    _, _, stage1_period, stage2_period, stage3_period, _ = _column_periods(params)
    first = params.first_bucket
    label_column, bucket_column = _stage1_columns(params)
    # A label is its token's index plus the offset of its round position.
    offsets = tuple(
        map(sub, islice(label_column, stage2_period), range(first, first + stage2_period))
    )
    labels = tuple(map(add, range(first, first + params.token_count), cycle(offsets)))
    stage1 = tuple(islice(bucket_column, stage1_period))
    stage2 = tuple(map(mod, islice(labels, stage2_period), repeat(params.first_set_size)))
    stage3 = tuple(map(mod, islice(labels, stage3_period), repeat(params.second_set_size)))
    # perfbench/test_perfbench.py rewrites this comparison and its closing
    # parenthesis to "False)", to check that the benchmark counts wrong
    # outputs as failures; a test in tests/test_lifecycle.py keeps that
    # text to this one place.
    moved = tuple((bucket != after) for bucket, after in zip(stage1, stage2))
    return LifecycleTrace(
        params,
        labels,
        *(_repeated(column, params.token_count) for column in (stage1, stage2, stage3, moved)),
    )
