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

Each requirement is stated once, as a fold over a trace's columns: it
takes the tokens in order, in stretches, reads only the columns it
needs, and gives its verdict after any prefix.  R1, R4, R5's and R6's
residue clauses and RC fail for good at their first offending token,
and that token and its witness depend only on the tokens up to it; such
a fold scans its columns once, with C-level passes, and fails once the
offender is fed.  R2, R3 and the count clauses keep a running histogram
whose spread is current after every increment.  ``check_requirements``
feeds a whole trace as one stretch and reads each fold once.

The sweep folds its domain straight into the verdict: per-requirement
failure counts, the minimal witness of each requirement, the unexpected
count and the oracle mismatches.  It does each piece of work once for
what it depends on.  Nothing in stage 1, the labels or the oracle reads
the token count ``T``, so the run of ``T`` tokens is the first ``T``
tokens of every longer run.  Per ``(B, C, f)`` triple the sweep makes
one lifecycle and one oracle walk, at the triple's largest ``T``, and
reads every smaller ``T``'s verdict from the folds after its first
``T`` tokens.  R1–R5, RC and the oracle comparison read only the
stage-1 quadruple ``(T, B, C, f)``, so a failure there counts for every
second-set size.  R6 is the only requirement that reads the second-set
size ``B'``; the sweep keeps one running tally of ``label % B'`` per
``B'``.  Parameters and witnesses are built only for each requirement's
first failure and the first oracle mismatch.  The test suite holds the
verdict to ``check_requirements`` on the full per-token trace of every
instance.

Spreads include zero-count buckets of the relevant set: all fill-window
buckets for R2, the whole first set for R3 and R5, the whole second set
for R6.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import compress, count, groupby, islice, repeat
from operator import attrgetter, lt, mod, ne, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lifecycle import LifecycleTrace, run_lifecycle
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


@dataclass(frozen=True)
class RequirementReport:
    """Ordered verdicts for R1 through R6 plus RC."""

    checks: tuple[RequirementCheck, ...]

    def __getitem__(self, requirement_id: str) -> RequirementCheck:
        for check in self.checks:
            if check.id == requirement_id:
                return check
        raise KeyError(requirement_id)

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[RequirementCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


class _Tally:
    """Histogram of ``[0, size)`` under +1 increments, its spread kept current.

    ``high`` is the largest count, ``low`` the smallest, ``spread`` their
    difference and ``at_low`` the number of buckets holding ``low``.
    ``extend`` adds a stretch of increments in amortised O(1) each, and
    ``spread`` is current after every ``extend``.
    """

    __slots__ = ("counts", "high", "low", "at_low", "spread")

    def __init__(self, size: int) -> None:
        self.counts = [0] * size
        self.high = 0
        self.low = 0
        self.at_low = size
        self.spread = 0

    def extend(self, buckets: Sequence[int]) -> None:
        """Add one to each of ``buckets``' counts, in order."""
        counts = self.counts
        if len(buckets) >= len(counts):
            # A stretch at least as long as the histogram pays for one
            # O(size) pass over it.
            for bucket in buckets:
                counts[bucket] += 1
            self.high = max(counts)
            self.low = min(counts)
            self.at_low = counts.count(self.low)
            self.spread = self.high - self.low
            return
        # ``low`` rises only when an increment lifts the last bucket at
        # it; every bucket then holds at least the new ``low``, and one
        # rescan counts the buckets at it.  That happens at most once per
        # ``size`` increments.
        high, low, at_low = self.high, self.low, self.at_low
        lifted = low + 1  # a bucket's count after an increment from low
        for bucket in buckets:
            count = counts[bucket] + 1
            counts[bucket] = count
            if count == lifted:
                at_low -= 1
                if not at_low:
                    low = count
                    lifted = count + 1
                    at_low = counts.count(count)
            if count > high:
                high = count
        self.high, self.low, self.at_low = high, low, at_low
        self.spread = high - low


def _spread_clause(name: str, tally: _Tally, **lead) -> dict | None:
    """The histogram ``name`` has spread at most 1; else its witness
    fields, ``lead`` first.  R5's and R6's count clause leads with
    ``clause="count"``."""
    if tally.spread > 1:
        return {**lead, name: list(tally.counts), "spread": tally.spread}
    return None


# Each requirement is a fold over a trace's columns: built from the
# instance's params, fed the tokens in order by one or more
# ``extend(trace, begin, end)`` calls on the same trace, each the stretch
# of tokens ``[begin, end)`` that follows the last, and read between any
# two by ``witness``, which gives None while the requirement holds on
# the tokens fed so far, else the witness fields that follow "params".
# A fold reads only the columns it needs, and no fold reads
# ``token_count``, so the folds for a run of T tokens, read after its
# first t tokens, judge the run of t tokens.  A first-failure fold reads
# ahead of the tokens fed, but what it reports depends only on the
# tokens up to its offender.


def _first(flags: Iterable[object]) -> int | None:
    """Index of the first true flag; None when no flag is true."""
    return next(compress(count(), flags), None)


def _window_offsets(buckets: Iterable[int], params: PlacementParams) -> Iterator[int]:
    """Each bucket's distance from the window start, around the ring."""
    return map(
        mod, map(sub, buckets, repeat(params.first_bucket)), repeat(params.first_set_size)
    )


class _FirstFailure:
    """A requirement that fails for good at its first offending token.

    The first offender and its witness depend only on the tokens up to
    it, so ``scan`` reads the whole trace once, at the first ``extend``,
    and gives the offender's token and witness fields, or None when no
    token offends.  The requirement then fails once its offender is fed.
    """

    fed: int | None = None
    offender: tuple[int, dict] | None = None

    def __init__(self, params: PlacementParams) -> None:
        self.params = params

    def extend(self, trace: LifecycleTrace, begin: int, end: int) -> None:
        if self.fed is None:
            self.offender = self.scan(trace)
        self.fed = end

    def witness(self) -> dict | None:
        if self.offender is not None and self.offender[0] < self.fed:
            return self.offender[1]
        return None


class _DistinctLabels(_FirstFailure):
    """R1: no label is carried twice."""

    def scan(self, trace: LifecycleTrace) -> tuple[int, dict] | None:
        labels = trace.label
        if len(set(labels)) == len(labels):
            return None
        # Each token's label was first carried by owners[token].
        owners = list(map({}.setdefault, labels, count()))
        token = _first(map(ne, owners, count()))
        return token, {"token_a": owners[token], "token_b": token, "label": labels[token]}


class _WindowCounts:
    """R2: stage-1 counts across the fill window, in window order."""

    def __init__(self, params: PlacementParams) -> None:
        self.params = params
        self.tally = _Tally(params.fill_width)

    def extend(self, trace: LifecycleTrace, begin: int, end: int) -> None:
        width = self.params.fill_width
        offsets = _window_offsets(trace.stage1_bucket[begin:end], self.params)
        self.tally.extend([offset for offset in offsets if offset < width])

    def witness(self) -> dict | None:
        return _spread_clause("window_counts", self.tally)


class _LabelResidues:
    """R3: label residue counts over the first set."""

    def __init__(self, params: PlacementParams) -> None:
        self.size = params.first_set_size
        self.tally = _Tally(params.first_set_size)

    def extend(self, trace: LifecycleTrace, begin: int, end: int) -> None:
        self.tally.extend(list(map(mod, trace.label[begin:end], repeat(self.size))))

    def witness(self) -> dict | None:
        return _spread_clause("residue_counts", self.tally)


class _MoveBudget(_FirstFailure):
    """R4: the move flag tells the truth and no move stays in the window."""

    def scan(self, trace: LifecycleTrace) -> tuple[int, dict] | None:
        stage1, stage2 = trace.stage1_bucket, trace.stage2_bucket
        flags = trace.moved_in_stage2
        moved = tuple(map(ne, stage1, stage2))
        lying = None if flags == moved else _first(map(ne, flags, moved))
        # Both buckets inside the window: forbidden shuffle.
        width = self.params.fill_width
        inside = map(lt, _window_offsets(compress(stage2, moved), self.params), repeat(width))
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


class _StageMap(_FirstFailure):
    """R5 (stage 2, first set) and R6 (stage 3, second set).

    Every token's bucket in ``column`` must be its label modulo the
    ``size_name`` parameter (the residue clause), and the histogram
    ``occupancy_name`` must have spread at most 1 (the count clause).
    The residue clause fails for good at its first offender; until then
    the column is the label residue, so the tally counts residues.
    """

    def __init__(
        self, column: str, occupancy_name: str, size_name: str, params: PlacementParams
    ) -> None:
        self.column = column
        self.occupancy_name = occupancy_name
        self.size = getattr(params, size_name)
        self.tally = _Tally(self.size)

    def scan(self, trace: LifecycleTrace) -> tuple[int, dict] | None:
        residues = tuple(map(mod, trace.label, repeat(self.size)))
        column = getattr(trace, self.column)
        if column == residues:
            return None
        token = _first(map(ne, column, residues))
        return token, {
            "clause": "residue",
            "token": token,
            "label": trace.label[token],
            self.column: column[token],
            "expected": residues[token],
        }

    def extend(self, trace: LifecycleTrace, begin: int, end: int) -> None:
        super().extend(trace, begin, end)
        if self.offender is None or end <= self.offender[0]:
            self.tally.extend(getattr(trace, self.column)[begin:end])

    def witness(self) -> dict | None:
        return super().witness() or _spread_clause(
            self.occupancy_name, self.tally, clause="count"
        )


class _AscendingDirection(_FirstFailure):
    """RC: moved tokens took consecutive window slots from the window start."""

    def scan(self, trace: LifecycleTrace) -> tuple[int, dict] | None:
        flags = trace.moved_in_stage2
        offsets = list(_window_offsets(compress(trace.stage1_bucket, flags), self.params))
        # The window slot each moved token should have taken, in turn.
        slots = list(map(mod, range(len(offsets)), repeat(self.params.fill_width)))
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


# The requirements in report order: (id, description, fold factory).
_REQUIREMENTS = (
    ("R1", "labels are pairwise distinct", _DistinctLabels),
    ("R2", "fill-window token counts differ by at most 1", _WindowCounts),
    (
        "R3",
        "label residue counts over the first set differ by at most 1",
        _LabelResidues,
    ),
    (
        "R4",
        "each token moves at most once and never inside the window",
        _MoveBudget,
    ),
    (
        "R5",
        "stage-2 bucket is label mod first_set_size, counts differ by at most 1",
        partial(_StageMap, "stage2_bucket", "occupancy2", "first_set_size"),
    ),
    (
        "R6",
        "stage-3 bucket is label mod second_set_size, counts differ by at most 1",
        partial(_StageMap, "stage3_bucket", "occupancy3", "second_set_size"),
    ),
    (
        "RC",
        "ascending stream starts at the window start and steps by one slot",
        _AscendingDirection,
    ),
)

REQUIREMENT_IDS = tuple(requirement_id for requirement_id, _, _ in _REQUIREMENTS)

REQUIREMENT_DESCRIPTIONS = {
    requirement_id: description for requirement_id, description, _ in _REQUIREMENTS
}


def _failed(
    requirement_id: str, params: PlacementParams, witness_fields: dict
) -> RequirementCheck:
    """A failing verdict whose witness is the instance's params, then ``witness_fields``."""
    return RequirementCheck(
        requirement_id, False, {"params": asdict(params), **witness_fields}
    )


def check_requirements(trace: LifecycleTrace) -> RequirementReport:
    """Check all seven requirements against one trace.

    Total: every trace yields a verdict for every requirement, and a
    failing verdict carries enough detail (full parameters plus the
    offending indices) to reproduce the failure from scratch.  The empty
    trace passes everything vacuously.  Each requirement's fold is fed
    the whole trace and read once, at the end.
    """
    checks = []
    tokens = len(trace.label)
    for requirement_id, _, make_fold in _REQUIREMENTS:
        fold = make_fold(trace.params)
        fold.extend(trace, 0, tokens)
        witness_fields = fold.witness()
        if witness_fields is None:
            checks.append(RequirementCheck(requirement_id, True))
        else:
            checks.append(_failed(requirement_id, trace.params, witness_fields))
    return RequirementReport(tuple(checks))


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


@dataclass(frozen=True)
class SweepDomain:
    """Finite grid of instances, swept in lexicographic parameter order.

    For each first-set size up to ``max_buckets``: every fill width, every
    window start, token counts from 0 through
    ``max_rounds * size + 3`` (enough full rounds plus every mid-round
    stopping offset to expose wrap effects), and second-set sizes from
    ``size + 1`` through ``target_span * size``.
    """

    max_buckets: int = 10
    max_rounds: int = 4
    target_span: int = 2

    def __post_init__(self) -> None:
        if self.max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {self.max_buckets}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.target_span < 2:
            raise ValueError(
                f"target_span must be >= 2 for a non-empty second-set range, got {self.target_span}"
            )

    def token_limit(self, first_set_size: int) -> int:
        return self.max_rounds * first_set_size + 3

    def iter_planning_instances(self) -> Iterator[PlacementParams]:
        """Stage-1 grid: one instance per (size, width, start, tokens).

        The second-set size is pinned to its smallest legal value; stage-1
        planning and labels do not depend on it.  Token counts ascend
        within each (size, width, start) triple, which lets the sweep read
        them all from one run.
        """
        for size in range(1, self.max_buckets + 1):
            for width in range(1, size + 1):
                for start in range(size):
                    for tokens in range(self.token_limit(size) + 1):
                        yield PlacementParams(tokens, size, width, start, size + 1)

    def second_set_sizes(self, first_set_size: int) -> range:
        """Second-set sizes swept for one first-set size."""
        return range(first_set_size + 1, self.target_span * first_set_size + 1)

    def iter_instances(self) -> Iterator[PlacementParams]:
        """The whole domain, in lexicographic parameter order."""
        for planning in self.iter_planning_instances():
            for second in self.second_set_sizes(planning.first_set_size):
                yield replace(planning, second_set_size=second)


@dataclass
class SweepReport:
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
    instances_checked: int = 0
    violation_counts: dict[str, int] = field(
        default_factory=lambda: {rid: 0 for rid in REQUIREMENT_IDS}
    )
    minimal_violations: dict[str, tuple[PlacementParams, RequirementCheck]] = field(
        default_factory=dict
    )
    oracle_mismatches: int = 0
    minimal_oracle_mismatch: PlacementParams | None = None
    unexpected_violations: int = 0

    @property
    def only_expected_failures(self) -> bool:
        return self.unexpected_violations == 0 and self.oracle_mismatches == 0


_TRIPLE = attrgetter("first_set_size", "fill_width", "first_bucket")


def sweep(domain: SweepDomain | None = None) -> SweepReport:
    """Exhaustively check every instance in the domain.

    Each instance is counted as ``check_requirements(run_lifecycle(
    params))`` would judge it.  The planning instances come grouped by
    ``(B, C, f)`` triple, each group in ascending ``T``.  Per group the
    sweep makes one ``run_lifecycle`` and one ``prose_oracle_stage1``,
    both at the group's largest ``T``, feeds the trace's tokens in order
    to the requirement folds and, after the first ``T`` tokens, reads
    every fold for the instance of ``T`` tokens.  A failure of R1–R5, RC
    or the oracle comparison counts for every second-set size.  R6 keeps
    one running tally of ``label % B'`` per second-set size ``B'`` and
    reads its count clause; its residue clause holds by definition, since
    stage 3 is ``label % second_set_size``.  Instances are visited in
    lexicographic parameter order, so the first failure recorded per
    requirement is the minimal one and the whole report is deterministic.
    """
    if domain is None:
        domain = SweepDomain()
    report = SweepReport(domain=domain)
    counts = report.violation_counts
    minimal = report.minimal_violations
    for _, group in groupby(domain.iter_planning_instances(), _TRIPLE):
        group = list(group)
        longest = group[-1]
        seconds = domain.second_set_sizes(longest.first_set_size)
        trace = run_lifecycle(longest)
        oracle = prose_oracle_stage1(longest)
        # The oracle agrees on exactly the runs of at most this many tokens.
        agreed = next(
            compress(count(), map(ne, zip(count(), trace.stage1_bucket), oracle)), len(oracle)
        )
        folds = [
            (requirement_id, make_fold(longest))
            for requirement_id, _, make_fold in _REQUIREMENTS
            if requirement_id != "R6"
        ]
        tallies = [
            (second, _Tally(second), list(map(mod, trace.label, repeat(second))))
            for second in seconds
        ]
        fed = 0
        # Each planning instance carries the smallest second-set size, its
        # quadruple's first instance in sweep order.
        for planning in group:
            tokens = planning.token_count
            for _, fold in folds:
                fold.extend(trace, fed, tokens)
            for _, tally, residues in tallies:
                tally.extend(residues[fed:tokens])
            fed = tokens
            report.instances_checked += len(seconds)
            if tokens > agreed:
                report.oracle_mismatches += len(seconds)
                if report.minimal_oracle_mismatch is None:
                    report.minimal_oracle_mismatch = planning
            for requirement_id, fold in folds:
                witness_fields = fold.witness()
                if witness_fields is not None:
                    counts[requirement_id] += len(seconds)
                    report.unexpected_violations += len(seconds)
                    if requirement_id not in minimal:
                        minimal[requirement_id] = (
                            planning,
                            _failed(requirement_id, planning, witness_fields),
                        )
            failing = [
                (second, witness_fields)
                for second, tally, _ in tallies
                if (witness_fields := _spread_clause("occupancy3", tally, clause="count"))
            ]
            if not failing:
                continue
            counts["R6"] += len(failing)
            # Expected: the documented gap case at spread exactly 2.
            present = gap(planning).present
            report.unexpected_violations += sum(
                not (present and witness_fields["spread"] == 2)
                for _, witness_fields in failing
            )
            if "R6" not in minimal:
                second, witness_fields = failing[0]
                params = replace(planning, second_set_size=second)
                minimal["R6"] = (params, _failed("R6", params, witness_fields))
    return report
