"""Requirement checks, the pointer-walk oracle, and the exhaustive sweep.

The checker treats a trace purely as data and never re-derives buckets
from the closed-form maps.  Seven checks are reported:

  R1  labels are pairwise distinct
  R2  stage-1 counts across the fill window differ by at most 1
  R3  per-residue label counts over the first set differ by at most 1
  R4  every move leaves the fill window, and each token moves at most once
  R5  stage-2 bucket equals label mod first_set_size; bucket counts over
      the first set differ by at most 1
  R6  stage-3 bucket equals label mod second_set_size; bucket counts over
      the second set differ by at most 1
  RC  the ascending stream starts at the window start and advances by one
      window slot per moved token

R6's count clause is the one place homogeneity can break: a truncated
final sweep leaves a gap in the label sequence, and removing that gap
from an otherwise contiguous range can push the spread in the second
bucket set to 2.  The sweep classifies exactly those failures as
expected and flags anything else.

Each requirement is stated once, as a row of one table, in one or both
of two forms.  An offender fails it for good at the first offending
token: R1, R4, RC and the residue clauses of R5 and R6.  A histogram
fails it while its spread is over 1, zero-count buckets included: R2
over the stage-1 window offsets, sized by the window width ``C``, and
R3 and the count clauses of R5 and R6 over ``label % size``, sized by
``B`` (R3 and R5, which share one tally) or ``B'`` (R6).  No tally
counts a bucket outside ``[0, size)``, which only R2's offsets can be.
R5's and R6's residue clauses compare their stage with the residues
their histogram built, so their counts are their stage's bucket counts
for as long as the residue clause holds.  No offender or histogram
reads the token count, so a requirement's verdict on the first ``t``
tokens of a run is its verdict on the run of ``t`` tokens.
``check_requirements`` is the one place that turns an offender and a
histogram into a verdict and its witness, and it counts each histogram
one way: ``ringfill.lifecycle._tally``, the code behind the occupancy
histograms, of the group's buckets.

The one-period law: on a trace whose columns keep the periods
``run_lifecycle`` states and whose labels climb, ``label[t + B] ==
label[t] + B``, a requirement is read off one period ``P`` of its
group: ``lcm(B, C)`` for R2, R4 and RC, ``B`` for R1, R3 and R5, and
``lcm(B, B')`` for R6, wherever ``2P <= T``.  Every column such a group
reads, and ``label % B`` and ``label % B'`` with it, repeats every
``P``.  An offender among the first ``P`` tokens is the first of the
trace, since an offender depends only on the tokens up to it.  With
none there, R4 and the residue clauses of R5 and R6, predicates of one
token's periodic entries, hold at every token.  RC holds too when the
period's moved tokens are a multiple of ``C``: the next period's moves
then start again at slot 0 and take the slots this period's took.  R1
holds when the first round's labels are distinct modulo ``B``: a label
keeps its residue from round to round and grows by ``B``, so two tokens
share a label only at the same round position, where their labels
differ by a multiple of ``B``.  A histogram of ``T = q·P + r`` tokens
is ``q`` times the tally of the first ``P`` plus that of the first
``r``.  Where a column breaks its period, the labels do not climb,
``P > T/2``, or R1's or RC's extra condition fails, the requirement is
read on the whole trace, so such a trace gets the verdict and the
witness a whole read gives.

The sweep folds its domain straight into the verdict: per-requirement
failure counts, the minimal witness of each requirement, the unexpected
count and the oracle mismatches.  Nothing in stage 1, the labels or the
oracle reads the token count ``T``, so the run of ``T`` tokens is the
first ``T`` tokens of every longer run, and the sweep does each piece of
work once for what it depends on: one lifecycle and one oracle walk per
``(B, C, f)`` triple, one spread record per histogram per ``(B, C)``
pair, shared while the rebased labels and slots agree, and parameters
only at each requirement's first failure and at the first oracle
mismatch.  The sweep only counts: the witness of a requirement's first
failure is the verdict ``check_requirements`` gives that one run.  R6's
record folds in every second-set size ``B'`` above the smallest, where
no offender is read, so a triple judges all of them in one pass over
their distinct spread-2 token counts.  The test suite holds the verdict
to ``check_requirements`` on the full per-token trace of every instance,
and ``check_requirements`` to a per-token restatement of the
requirements on broken traces.

The sharing rule: a spread does not read the names of the buckets, so
any permutation of ``[0, size)`` keeps every prefix spread.  A trace's
rebased labels are its labels less the window start ``f``, and
``label % size`` is ``(label - f) % size`` rotated by ``f`` around
``[0, size)``, so equal rebased labels give equal R3, R5 and R6 spread
records at every size, and equal slots an equal R2 record.  The
window-start law says why they agree across a pair's starts: the
labels at start ``f`` are those at start 0 plus ``f``, and the slots
are offsets from the window start.  So a correct trace's records serve
every start of its pair, and a trace that breaks the law is simply
recorded again.

Every histogram repeats in ``T``, so one period of ``T`` shows every
spread it takes.  Any ``L = lcm(B, C)`` consecutive tokens hold each
round position ``L/B`` times: the descending stream puts ``L/B`` of
them in every window slot, and the ascending stream takes
``(B - C)·L/B`` consecutive slots, a multiple of ``C``.  So R2's window
counts at ``T + L`` are those at ``T`` plus ``L/C`` in every slot.  The
labels of ``T`` tokens are the ``T + gap_length`` values from
``first_bucket`` up, minus the gap; the gap's length depends only on
``(T - 1) mod B`` and its start moves by ``B`` a round.  So with
``L = lcm(B, size)`` the ``label % size`` counts of R3 and R5
(``size = B``) and of R6 (``size = B'``) at ``T + L`` are those at
``T`` plus ``L/size`` in every class: ``L`` more values of the range,
and a gap of the same length on the same classes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import chain, compress, count, cycle, islice, repeat
from operator import lt, mod, ne, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lifecycle import FIELDS, LifecycleTrace, _tally, run_lifecycle
from .placement import PlacementParams, gap

__all__ = [
    "REQUIREMENT_DESCRIPTIONS",
    "REQUIREMENT_IDS",
    "RequirementCheck",
    "RequirementReport",
    "SweepDomain",
    "SweepReport",
    "check_requirements",
    "prose_oracle_stage1",
    "sweep",
]


class RequirementCheck(NamedTuple):
    """Verdict for one requirement; a failing check carries a witness."""

    id: str
    passed: bool
    witness: dict | None = None


class RequirementReport(NamedTuple):
    """Ordered verdicts for R1 through R6 plus RC, looked up by id.

    An immutable named tuple of one field, ``checks``, that equals any
    tuple of its value, as every record does.  ``report[id]`` looks a
    verdict up by requirement id, where a tuple would index by position.
    """

    checks: tuple[RequirementCheck, ...]

    def __getitem__(self, requirement_id: str) -> RequirementCheck:
        for check in self.checks:
            if check.id == requirement_id:
                return check
        raise KeyError(requirement_id)

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)


def _spreads(buckets: Iterable[int], size: int) -> list[int]:
    """The spread record of a histogram of ``[0, size)``: entry ``t`` is
    the spread of the histogram of the first ``t`` buckets.  A bucket
    outside ``[0, size)`` is not counted, as in ``lifecycle._tally``."""
    counts = [0] * size
    high = low = 0
    at_low = size
    spreads = [0]
    for bucket in buckets:
        # Two tests, not a chained one, which costs more in this loop.
        if bucket >= 0 and bucket < size:
            count = counts[bucket] + 1
            counts[bucket] = count
            # ``low`` rises only when an increment lifts the last bucket at
            # it; every bucket then holds at least the new ``low``, and one
            # rescan counts the buckets at it.  That happens at most once
            # per ``size`` increments.
            if count == low + 1:
                at_low -= 1
                if not at_low:
                    low = count
                    at_low = counts.count(count)
            if count > high:
                high = count
        spreads.append(high - low)
    return spreads


# A requirement's offender is a function of the trace and of its
# histogram's buckets (None for a requirement without one) that gives
# the first offending token and that token's witness fields, or None;
# both depend only on the tokens up to the offender.  Its histogram is a
# triple (witness name, buckets, size field): ``buckets(trace, size)``
# gives one bucket per token, for the size ``getattr(params, size
# field)`` of the params in hand rather than the trace's own, so the
# sweep can ask for every second-set size.  Neither reads
# ``token_count``.


def _first(flags: Iterable[object]) -> int | None:
    """Index of the first true flag; None when no flag is true."""
    return next(compress(count(), flags), None)


def _window_offset(column: Sequence[int], params: PlacementParams) -> Callable[[int], int]:
    """The distance of each bucket of ``column`` from the window start,
    around the ring, worked out once per distinct bucket."""
    return {bucket: params.window_offset(bucket) for bucket in set(column)}.__getitem__


def _repeated_label(trace: LifecycleTrace, _) -> tuple[int, dict] | None:
    """R1: the first token whose label an earlier token carries."""
    labels = trace.label
    # A sorted copy of the labels takes a fraction of a set's memory.
    ordered = sorted(labels)
    if all(map(lt, ordered, islice(ordered, 1, None))):
        return None
    # Each token's label was first carried by owners[token].
    owners = list(map({}.setdefault, labels, count()))
    token = _first(map(ne, owners, count()))
    return token, {"token_a": owners[token], "token_b": token, "label": labels[token]}


def _bad_move(trace: LifecycleTrace, _) -> tuple[int, dict] | None:
    """R4: the first token whose move flag lies or whose move stays in the window."""
    params = trace.params
    stage1, stage2 = trace.stage1_bucket, trace.stage2_bucket
    flags = trace.moved_in_stage2
    moved = tuple(map(ne, stage1, stage2))
    lying = None if flags == moved else _first(map(ne, flags, moved))
    # Both buckets inside the window: forbidden shuffle.
    offsets = map(_window_offset(stage2, params), compress(stage2, moved))
    inside = map(lt, offsets, repeat(params.fill_width))
    shuffled = next(compress(compress(count(), moved), inside), None)
    if lying is not None and (shuffled is None or lying <= shuffled):
        token, reason = lying, "flag_mismatch"
    elif shuffled is not None:
        token, reason = shuffled, "moved_within_window"
    else:
        return None
    return token, {
        "token": token,
        "stage1_bucket": stage1[token],
        "stage2_bucket": stage2[token],
        "reason": reason,
    }


def _off_residue(
    column: str, trace: LifecycleTrace, residues: Sequence[int]
) -> tuple[int, dict] | None:
    """R5 and R6: the first token whose bucket in ``column`` is not its
    label residue in ``residues``, the requirement's histogram."""
    buckets = getattr(trace, column)
    if buckets == residues:
        return None
    token = _first(map(ne, buckets, residues))
    return token, {
        "clause": "residue",
        "token": token,
        "label": trace.label[token],
        column: buckets[token],
        "expected": residues[token],
    }


def _off_step(trace: LifecycleTrace, _) -> tuple[int, dict] | None:
    """RC: the first moved token that did not take the ascending stream's
    next window slot."""
    params = trace.params
    flags = trace.moved_in_stage2
    stage1 = trace.stage1_bucket
    offsets = list(map(_window_offset(stage1, params), compress(stage1, flags)))
    # The window slot each moved token should have taken, in turn.
    slots = list(islice(cycle(range(params.fill_width)), len(offsets)))
    if offsets == slots:
        return None
    position = _first(map(ne, offsets, slots))
    token = next(islice(compress(count(), flags), position, None))
    return token, {
        "position": position,
        "token": token,
        "expected_offset": slots[position],
        "actual_offset": offsets[position],
    }


def _distinct_residues(head: LifecycleTrace) -> bool:
    """R1 beyond a round: the round's labels are distinct modulo ``B``."""
    size = head.params.first_set_size
    return len(set(map(mod, head.label, repeat(size)))) == len(head.label)


def _whole_cycles(head: LifecycleTrace) -> bool:
    """RC beyond a period: its moved tokens take whole cycles of the window."""
    return sum(map(bool, head.moved_in_stage2)) % head.params.fill_width == 0


def _window_slots(trace: LifecycleTrace, _) -> tuple[int, ...]:
    """R2: each token's stage-1 window offset, a slot of the window."""
    stage1 = trace.stage1_bucket
    return tuple(map(_window_offset(stage1, trace.params), stage1))


def _label_residues(trace: LifecycleTrace, size: int) -> tuple[int, ...]:
    """R3, R5 and R6: each token's label modulo ``size``."""
    return tuple(map(mod, trace.label, repeat(size)))


# The requirements in report order: (id, description, offender,
# histogram, prefix).  The prefix is the field whose column's period
# bounds what ``check_requirements`` reads of a periodic trace, and what
# else, if anything, the offender needs of that prefix to hold beyond it.
_REQUIREMENTS = (
    (
        "R1",
        "labels are pairwise distinct",
        _repeated_label,
        None,
        ("stage2_bucket", _distinct_residues),
    ),
    (
        "R2",
        "fill-window token counts differ by at most 1",
        None,
        ("window_counts", _window_slots, "fill_width"),
        ("stage1_bucket", None),
    ),
    (
        "R3",
        "label residue counts over the first set differ by at most 1",
        None,
        ("residue_counts", _label_residues, "first_set_size"),
        ("stage2_bucket", None),
    ),
    (
        "R4",
        "each token moves at most once and never inside the window",
        _bad_move,
        None,
        ("stage1_bucket", None),
    ),
    (
        "R5",
        "stage-2 bucket is label mod first_set_size, counts differ by at most 1",
        partial(_off_residue, "stage2_bucket"),
        ("occupancy2", _label_residues, "first_set_size"),
        ("stage2_bucket", None),
    ),
    (
        "R6",
        "stage-3 bucket is label mod second_set_size, counts differ by at most 1",
        partial(_off_residue, "stage3_bucket"),
        ("occupancy3", _label_residues, "second_set_size"),
        ("stage3_bucket", None),
    ),
    (
        "RC",
        "ascending stream starts at the window start and steps by one slot",
        _off_step,
        None,
        ("stage1_bucket", _whole_cycles),
    ),
)

REQUIREMENT_IDS = tuple(row[0] for row in _REQUIREMENTS)

REQUIREMENT_DESCRIPTIONS = {row[0]: row[1] for row in _REQUIREMENTS}


def check_requirements(trace: LifecycleTrace) -> RequirementReport:
    """Check all seven requirements against one trace.

    Every trace whose stage and flag columns hold one entry per label
    yields a verdict for every requirement, and a failing verdict
    carries enough detail (full parameters plus the offending indices)
    to reproduce the failure from scratch; a column of any other length
    raises ValueError, naming it.  The empty trace passes everything
    vacuously.  Requirements that share a histogram and a prefix are
    read together, from one copy of its buckets and one tally, and each
    histogram's buckets are dropped before the next histogram's are
    built.  On a trace whose columns keep their periods and whose labels
    climb, the trace's own ``_periods`` and ``_climbs``, a group reads
    only the first period of its prefix's column, where that is at most
    half the trace, by the one-period law of the module docstring;
    elsewhere, and for R1 or RC where the law's extra condition fails,
    it reads the whole trace.  Each histogram is ``_tally`` of its
    group's buckets, read one period at a time where the group reads
    one period.
    """
    params = trace.params
    tokens = len(trace.label)
    for name, column in zip(FIELDS[2:], trace[2:]):
        if len(column) != tokens:
            raise ValueError(f"{name} has {len(column)} entries, not one per label ({tokens})")
    periods = {}
    if trace._climbs and all(trace._periods[2:]):
        periods = dict(zip(FIELDS, trace._periods))
    groups: dict = {}
    for requirement_id, _, find_offender, histogram, (field, beyond) in _REQUIREMENTS:
        # A row without a histogram has no name or buckets to read.
        name, buckets_of, size_field = histogram or (None, None, "first_set_size")
        groups.setdefault((field, buckets_of, getattr(params, size_field)), []).append(
            (requirement_id, find_offender, name, beyond)
        )
    checks = dict.fromkeys(REQUIREMENT_IDS)
    for (field, buckets_of, size), rows in groups.items():
        period = periods.get(field, 0)
        head = trace
        if 0 < 2 * period <= tokens:
            head = LifecycleTrace(params, *(column[:period] for column in trace[1:]))
        else:
            period = 0
        buckets, counts, spread = None, (), 0
        if buckets_of is not None:
            buckets = buckets_of(head, size)
            counts = _tally(buckets, size, period, tokens)
            spread = max(counts) - min(counts)
        for requirement_id, find_offender, name, beyond in rows:
            offender = None if find_offender is None else find_offender(head, buckets)
            if offender is None and period and beyond and not beyond(head):
                # Only R1 and RC have such a condition, and no histogram.
                offender = find_offender(trace, None)
            # An offender among the tokens wins; else a spread over 1
            # fails the count clause, led by ``clause: "count"`` where
            # the requirement also has an offender.
            if offender is not None and offender[0] < tokens:
                fields = offender[1]
            elif spread > 1:
                lead = {"clause": "count"} if find_offender else {}
                fields = {**lead, name: list(counts), "spread": spread}
            else:
                checks[requirement_id] = RequirementCheck(requirement_id, True)
                continue
            witness = {"params": params._asdict(), **fields}
            checks[requirement_id] = RequirementCheck(requirement_id, False, witness)
    return RequirementReport(tuple(checks.values()))


def prose_oracle_stage1(params: PlacementParams) -> list[tuple[int, int]]:
    """Literal two-pointer walk of stage 1, independent of the label map.

    One pointer starts at the far end of the window and walks backwards,
    the other starts at the window start and walks forwards, both
    wrapping modulo the window width.  Each token goes to its stream's
    pointer.  The sweep checks it against the stage-1 column of every
    trace it runs, so every stage-1 instance of its domain.
    """
    size = params.first_set_size
    width = params.fill_width
    start = params.first_bucket
    down = width - 1
    up = 0
    assignments = []
    for token in range(params.token_count):
        if token % size < width:
            bucket = (start + down) % size
            down = (down - 1) % width
        else:
            bucket = (start + up) % size
            up = (up + 1) % width
        assignments.append((token, bucket))
    return assignments


class _DomainFields(NamedTuple):
    max_buckets: int = 10
    max_rounds: int = 4
    target_span: int = 2


class SweepDomain(_DomainFields):
    """Finite grid of instances, swept in lexicographic parameter order;
    an immutable named tuple.

    For each first-set size up to ``max_buckets``: every fill width, every
    window start, token counts from 0 through
    ``max_rounds * size + 3`` (enough full rounds plus every mid-round
    stopping offset to expose wrap effects), and second-set sizes from
    ``size + 1`` through ``target_span * size``.  The grid is stated
    once, by ``iter_triples`` and ``second_set_sizes``, which ``sweep``
    reads.  Construction raises ValueError on an empty grid, as
    ``PlacementParams`` does on an invalid instance.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SweepDomain:
        self = super().__new__(cls, *args, **kwargs)
        if self.max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {self.max_buckets}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.target_span < 2:
            raise ValueError(
                f"target_span must be >= 2 for a non-empty second-set range, got {self.target_span}"
            )
        return self

    def token_limit(self, first_set_size: int) -> int:
        return self.max_rounds * first_set_size + 3

    def iter_triples(self) -> Iterator[tuple[int, int, int, Sequence[int]]]:
        """Each (size, width, start) triple with its token counts, plain
        ints that ascend, which lets the sweep read them all from one run."""
        for size in range(1, self.max_buckets + 1):
            for width in range(1, size + 1):
                for start in range(size):
                    yield size, width, start, range(self.token_limit(size) + 1)

    def second_set_sizes(self, first_set_size: int) -> range:
        """Second-set sizes swept for one first-set size."""
        return range(first_set_size + 1, self.target_span * first_set_size + 1)


class SweepReport(NamedTuple):
    """Verdict of an exhaustive sweep.

    ``violation_counts`` counts the failing instances per requirement.
    ``minimal_violations`` maps requirement id to the lexicographically
    smallest failing instance and its failing check.  A violation is
    expected only when it is R6's count clause at spread exactly 2 on an
    instance whose label sequence has a gap; ``unexpected_violations``
    counts everything else, oracle mismatches aside.  No per-instance
    report is kept.
    """

    domain: SweepDomain
    instances_checked: int
    violation_counts: dict[str, int]
    minimal_violations: dict[str, tuple[PlacementParams, RequirementCheck]]
    oracle_mismatches: int
    minimal_oracle_mismatch: PlacementParams | None
    unexpected_violations: int

    @property
    def only_expected_failures(self) -> bool:
        return self.unexpected_violations == 0 and self.oracle_mismatches == 0


def _runs_over_one(buckets: Iterable[int], size: int, token_counts: Sequence[int]) -> tuple:
    """The token counts, of ``token_counts``, at which the spread of the
    histogram of ``buckets`` over ``[0, size)`` is over 1, and those of
    them at which it is exactly 2."""
    spreads = _spreads(buckets, size)
    over = [tokens for tokens in token_counts if spreads[tokens] > 1]
    return over, [tokens for tokens in over if spreads[tokens] == 2]


def _spread_record(
    trace: LifecycleTrace, buckets_of: Callable, sizes: Sequence[int], token_counts: Sequence[int]
) -> tuple:
    """A histogram's spread record at every size of ``sizes``, on runs of
    ``token_counts`` tokens of ``trace``.

    At the first size: the token counts whose runs the spread fails, and
    those of them at spread exactly 2, from which an offender cuts the
    runs that hold it.  Folded over every other size, where no offender
    is read: how many runs the spread fails, the token counts at spread
    exactly 2 with how many sizes have each, and the first failing run
    as ``(tokens, size)`` in lexicographic order, or None.
    """
    over, twos = _runs_over_one(buckets_of(trace, sizes[0]), sizes[0], token_counts)
    failing, twos_above, first_above = 0, Counter(), None
    for size in sizes[1:]:
        above, size_twos = _runs_over_one(buckets_of(trace, size), size, token_counts)
        failing += len(above)
        twos_above.update(size_twos)
        if above and (first_above is None or above[0] < first_above[0]):
            first_above = above[0], size
    return over, twos, failing, twos_above, first_above


# The spread record of a row without a histogram: no run fails.
_NO_RECORD = (), (), 0, {}, None


def sweep(domain: SweepDomain | None = None) -> SweepReport:
    """Exhaustively check every instance in the domain.

    Each instance is counted as ``check_requirements(run_lifecycle(
    params))`` would judge it.  The domain gives each ``(B, C, f)``
    triple with its token counts ``T``, ascending.  Per triple the sweep
    makes one ``run_lifecycle`` and one ``prose_oracle_stage1``, both at
    the largest ``T`` and the smallest second-set size ``B'``, and
    judges each requirement once: it finds the offender and reads the
    histogram's spread record, and the run of ``T`` tokens fails when
    the offender lies among its first ``T`` tokens or the spread after
    ``T`` tokens is over 1.  A failure of R1–R5, RC or the oracle
    comparison counts for every ``B'``.

    R6's histogram is the only one sized by ``B'``, and its loop over
    ``B'`` is folded into its spread record.  The trace's stage 3 is
    that of the smallest ``B'``, so R6's offender, a stage-3 bucket off
    its label residue, cuts the runs of that ``B'`` alone, which the
    record keeps as its own lists.  Every larger ``B'`` has no offender,
    so the record keeps only what the verdict reads of them: how many
    runs fail, the token counts at spread exactly 2 with their
    multiplicity, and the first failure.  A triple then judges every
    larger ``B'`` at once, asking ``gap`` once per distinct ``T`` of
    those spread-2 runs, through a dict per triple.

    Each spread record is built once per histogram and sizes and shared,
    by the module's sharing rule, while the triples' token counts,
    rebased labels and R2 slots agree: once per ``(B, C)`` pair on
    correct traces.  R5's and R6's offenders read their own triple's
    buckets.  Only a requirement's first failing run in lexicographic
    parameter order gets its parameters, and its witness is
    ``check_requirements(run_lifecycle(params))[requirement_id]``: one
    more small lifecycle per failing requirement, and the one judge
    names every failure, so the whole report is deterministic.  Once a
    requirement has its witness, later triples only count.
    """
    if domain is None:
        domain = SweepDomain()
    instances = mismatches = unexpected = 0
    first_mismatch = None
    counts = dict.fromkeys(REQUIREMENT_IDS, 0)
    minimal = {}
    # The spread records by (buckets, sizes), kept while the content agrees.
    shared, records = None, {}
    for size, width, start, token_counts in domain.iter_triples():
        seconds = domain.second_set_sizes(size)
        longest = PlacementParams(token_counts[-1], size, width, start, seconds[0])
        trace = run_lifecycle(longest)
        oracle = prose_oracle_stage1(longest)
        instances += len(token_counts) * len(seconds)
        # The oracle agrees on exactly the runs of at most this many tokens.
        agreed = next(
            compress(count(), map(ne, zip(count(), trace.stage1_bucket), oracle)), len(oracle)
        )
        agreeing = bisect_right(token_counts, agreed)
        mismatches += (len(token_counts) - agreeing) * len(seconds)
        if agreeing < len(token_counts) and first_mismatch is None:
            first_mismatch = PlacementParams(token_counts[agreeing], size, width, start, seconds[0])
        rebased = tuple(map(sub, trace.label, repeat(start)))
        # The records serve every triple of this content (the sharing rule).
        content = token_counts, rebased, _window_slots(trace, None)
        if content != shared:
            shared, records = content, {}
        gapped = {}  # gap presence by token count, asked at most once each
        for requirement_id, _, find_offender, histogram, _ in _REQUIREMENTS:
            # A failing run counts once per B', save R6's: R6 is judged
            # per B', so a run at its smallest B' counts once.
            record, weight, buckets = _NO_RECORD, len(seconds), None
            if histogram is not None:
                _, buckets_of, size_field = histogram
                sizes = (getattr(longest, size_field),)
                if size_field == "second_set_size":
                    sizes, weight = seconds, 1
                if (buckets_of, sizes) not in records:
                    records[buckets_of, sizes] = _spread_record(
                        trace, buckets_of, sizes, token_counts
                    )
                record = records[buckets_of, sizes]
                if find_offender is not None:
                    buckets = buckets_of(trace, sizes[0])
            over, twos, failing_above, twos_above, first_above = record
            offender = None if find_offender is None else find_offender(trace, buckets)
            # Runs of at most this many tokens do not hold the offender.
            clean = len(trace.label) if offender is None else offender[0]
            held, cut = bisect_right(over, clean), bisect_right(token_counts, clean)
            failing = held + len(token_counts) - cut
            # Expected: the documented gap case, R6's count clause at
            # spread exactly 2 on an instance whose labels have a gap.
            expected = 0
            if requirement_id == "R6":
                runs = chain(zip(twos[: bisect_right(twos, clean)], repeat(1)), twos_above.items())
                for tokens, times in runs:
                    if tokens not in gapped:
                        params = PlacementParams(tokens, size, width, start, seconds[0])
                        gapped[tokens] = gap(params).present
                    expected += times * gapped[tokens]
            counts[requirement_id] += weight * failing + failing_above
            unexpected += weight * failing + failing_above - expected
            if requirement_id in minimal:
                continue
            # The first failing run is the least (tokens, B'); no two
            # candidates share a B'.  check_requirements names its failure.
            firsts = [] if first_above is None else [first_above]
            if failing:
                firsts.append((over[0] if held else token_counts[cut], seconds[0]))
            if firsts:
                first, second = min(firsts)
                params = PlacementParams(first, size, width, start, second)
                check = check_requirements(run_lifecycle(params))[requirement_id]
                minimal[requirement_id] = params, check
    return SweepReport(domain, instances, counts, minimal, mismatches, first_mismatch, unexpected)
