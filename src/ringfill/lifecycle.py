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
parser and the verifier all read the columns.  Each column after the
labels repeats in the token index, as ``run_lifecycle`` states, and a
trace checks once, on first use, which of its columns keep those periods
and whether its labels climb by ``B`` a round.  The occupancy
histograms, the requirement checks and the report writers share that
result: each per-stage occupancy histogram is tallied on first use from
one period of its column where the column keeps it, and from the whole
column where it does not.  Traces are immutable once produced and safe
to share between threads.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import count, cycle, islice, repeat
from math import lcm
from operator import mod, sub
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
    ``_periods`` and ``_climbs``, also read once and cached, say which
    columns repeat as ``run_lifecycle`` states: a parsed or hand-built
    trace may not.
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
    def _periods(self) -> tuple[int, ...]:
        """For each field of ``FIELDS``, the period ``_column_periods``
        states for its column where the column keeps it, else 0: a
        column keeps its period when it has one entry per label, the
        labels one per token of ``params``, and ``_keeps`` holds.  The
        tokens and labels get 0."""
        tokens = len(self.label)
        return tuple(
            period
            if period
            and len(column) == tokens == self.params.token_count
            and (period == tokens or _keeps(column, period))
            else 0
            for column, period in zip(self.columns, _column_periods(self.params))
        )

    @cached_property
    def _climbs(self) -> bool:
        """Whether ``label[t + B] == label[t] + B`` at every token ``t``:
        ``label[t] - t`` keeps the period ``B``, read off a ``map``."""
        size = self.params.first_set_size
        return len(self.label) <= size or _keeps(map(sub, self.label, count()), size)

    @cached_property
    def occupancy1(self) -> tuple[int, ...]:
        return _tally(self.stage1_bucket, self.params.first_set_size, self._periods[2])

    @cached_property
    def occupancy2(self) -> tuple[int, ...]:
        return _tally(self.stage2_bucket, self.params.first_set_size, self._periods[3])

    @cached_property
    def occupancy3(self) -> tuple[int, ...]:
        return _tally(self.stage3_bucket, self.params.second_set_size, self._periods[4])


def _tally(
    buckets: Sequence[int], size: int, period: int = 0, tokens: int | None = None
) -> tuple[int, ...]:
    """Histogram of bucket indices in ``[0, size)``, zero counts included;
    a bucket outside that range is not counted, as in ``verify._spreads``.
    It counts the occupancy histograms and every histogram that
    ``ringfill.verify.check_requirements`` reads.

    With a ``period`` that ``buckets`` keeps, only its first period is
    read: the histogram of ``tokens`` entries, ``len(buckets)`` unless
    given, is ``q`` times the first period's plus the first ``r``
    entries', where ``tokens == q * period + r``."""
    # The list comes first, so a size too large to index raises at once.
    counts = [0] * size
    rows = iter(buckets)
    parts: tuple = ((1, rows),)
    if period:
        whole, rest = divmod(len(buckets) if tokens is None else tokens, period)
        parts = ((whole + 1, islice(rows, rest)), (whole, islice(rows, period - rest)))
    for times, part in parts:
        for bucket, held in Counter(part).items():
            if 0 <= bucket < size:
                counts[bucket] += times * held
    return tuple(counts)


# Items read at a time, here when a column's period is checked and by the
# report writers of ``ringfill.cli`` when rows are formatted and joined:
# enough to amortise the work, few enough that a chunk is small beside
# the column or the text it is read from or joined into.
_BLOCK_ROWS = 1024


def _keeps(column: Iterable, period: int) -> bool:
    """Whether ``column`` repeats every ``period`` items.  It is read once,
    whole periods at a time and with no copy of more than a period or a
    chunk, so it may be an iterator: a trace's column, or a ``map`` over
    its labels.  Only a trace's ``_periods`` and ``_climbs`` call it,
    since a parsed or hand-built trace may break a period that
    ``run_lifecycle`` keeps by construction."""
    rows = iter(column)
    pattern = tuple(islice(rows, period)) * max(1, _BLOCK_ROWS // period)
    chunks = iter(lambda: tuple(islice(rows, len(pattern))), ())
    return all(chunk == pattern[: len(chunk)] for chunk in chunks)


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
    for every token where there are fewer, and then repeated; the labels
    are the column ``_stage1_columns`` states, kept whole.
    """
    _, _, stage1_period, stage2_period, stage3_period, _ = _column_periods(params)
    label_column, bucket_column = _stage1_columns(params)
    labels = tuple(label_column)
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
