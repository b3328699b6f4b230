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

The sweep folds its domain straight into the verdict: per-requirement
failure counts, the minimal witness of each requirement, the unexpected
count and the oracle mismatches.  It does each piece of work once for
what it depends on.  R1–R5, RC, the gap descriptor and the oracle
comparison read only the stage-1 quadruple ``(T, B, C, f)``, so they run
once per quadruple on one trace, and a failure counts for every
second-set size.  R6 is the only requirement that reads the second-set
size ``B'``; its histogram is derived per ``B'`` from the label set
alone, which is a contiguous range minus the gap interval.  Parameters
and witnesses are built only for each requirement's first failure and
the first oracle mismatch.  The test suite holds the verdict to a fold
of ``check_requirements`` over the full per-token trace of every
instance.

Spreads include zero-count buckets of the relevant set: all fill-window
buckets for R2, the whole first set for R3 and R5, the whole second set
for R6.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Iterator, NamedTuple

from .lifecycle import LifecycleTrace, TokenPlacement, _tally, run_lifecycle
from .placement import GapDescriptor, PlacementParams, gap

__all__ = [
    "REQUIREMENT_DESCRIPTIONS",
    "REQUIREMENT_IDS",
    "RequirementCheck",
    "RequirementReport",
    "SweepDomain",
    "SweepReport",
    "check_requirements",
    "prose_oracle_stage1",
    "spread",
    "sweep",
]


def spread(counts) -> int:
    """Max minus min of a histogram, zero-count buckets included."""
    return max(counts) - min(counts)


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


def _check_distinct_labels(trace: LifecycleTrace) -> dict | None:
    seen: dict[int, int] = {}
    for placement in trace.placements:
        other = seen.get(placement.label)
        if other is not None:
            return {
                "token_a": other,
                "token_b": placement.token,
                "label": placement.label,
            }
        seen[placement.label] = placement.token
    return None


def _check_window_counts(trace: LifecycleTrace) -> dict | None:
    counts = [trace.occupancy1[b] for b in trace.params.fill_window()]
    observed = spread(counts)
    if observed > 1:
        return {"window_counts": counts, "spread": observed}
    return None


def _check_label_residues(trace: LifecycleTrace) -> dict | None:
    size = trace.params.first_set_size
    counts = _tally((p.label % size for p in trace.placements), size)
    observed = spread(counts)
    if observed > 1:
        return {"residue_counts": list(counts), "spread": observed}
    return None


def _check_move_budget(trace: LifecycleTrace) -> dict | None:
    params = trace.params
    for placement in trace.placements:
        moved = placement.stage1_bucket != placement.stage2_bucket
        if placement.moved_in_stage2 != moved:
            reason = "flag_mismatch"
        elif moved and params.in_fill_window(placement.stage2_bucket):
            # Both buckets inside the window: forbidden shuffle.
            reason = "moved_within_window"
        else:
            continue
        return {
            "token": placement.token,
            "stage1_bucket": placement.stage1_bucket,
            "stage2_bucket": placement.stage2_bucket,
            "reason": reason,
        }
    return None


def _check_stage_map(
    column: str, occupancy_name: str, size_name: str, trace: LifecycleTrace
) -> dict | None:
    """R5 (stage 2, first set) and R6 (stage 3, second set).

    Every token's bucket in ``column`` must be its label modulo the
    ``size_name`` parameter (the residue clause), and the histogram
    ``occupancy_name`` must have spread at most 1 (the count clause).
    """
    size = getattr(trace.params, size_name)
    index = TokenPlacement._fields.index(column)
    for placement in trace.placements:
        expected = placement.label % size
        if placement[index] != expected:
            return {
                "clause": "residue",
                "token": placement.token,
                "label": placement.label,
                column: placement[index],
                "expected": expected,
            }
    return _count_clause(occupancy_name, getattr(trace, occupancy_name))


def _count_clause(occupancy_name: str, occupancy) -> dict | None:
    """R5's or R6's count clause: the histogram's spread is at most 1."""
    observed = spread(occupancy)
    if observed > 1:
        return {"clause": "count", occupancy_name: list(occupancy), "spread": observed}
    return None


def _check_ascending_direction(trace: LifecycleTrace) -> dict | None:
    params = trace.params
    expected = 0
    position = 0
    for placement in trace.placements:
        if not placement.moved_in_stage2:
            continue
        offset = params.window_offset(placement.stage1_bucket)
        if offset != expected:
            return {
                "position": position,
                "token": placement.token,
                "expected_offset": expected,
                "actual_offset": offset,
            }
        expected = (offset + 1) % params.fill_width
        position += 1
    return None


# The requirements in report order: (id, description, check).  A check
# returns None when its requirement holds, else the witness fields that
# follow "params".
_REQUIREMENTS = (
    ("R1", "labels are pairwise distinct", _check_distinct_labels),
    ("R2", "fill-window token counts differ by at most 1", _check_window_counts),
    (
        "R3",
        "label residue counts over the first set differ by at most 1",
        _check_label_residues,
    ),
    (
        "R4",
        "each token moves at most once and never inside the window",
        _check_move_budget,
    ),
    (
        "R5",
        "stage-2 bucket is label mod first_set_size, counts differ by at most 1",
        partial(_check_stage_map, "stage2_bucket", "occupancy2", "first_set_size"),
    ),
    (
        "R6",
        "stage-3 bucket is label mod second_set_size, counts differ by at most 1",
        partial(_check_stage_map, "stage3_bucket", "occupancy3", "second_set_size"),
    ),
    (
        "RC",
        "ascending stream starts at the window start and steps by one slot",
        _check_ascending_direction,
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
    trace passes everything vacuously.
    """
    checks = []
    for requirement_id, _, check in _REQUIREMENTS:
        witness_fields = check(trace)
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
    pointer.  Agreement with :func:`plan_stage1` is checked exhaustively
    by the sweep.
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
        planning and labels do not depend on it.
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


def _label_residue_counts(
    params: PlacementParams, descriptor: GapDescriptor, size: int
) -> list[int]:
    """Tally of ``label % size`` over every token, from the label set alone.

    The labels are the contiguous range of ``token_count + gap_length``
    values from ``first_bucket`` up, minus the gap interval.  The range
    puts ``length // size`` labels in every residue class and one more
    in the ``length % size`` classes that follow ``first_bucket``; the
    gap takes one label from each of its values' classes.
    """
    base, extra = divmod(params.token_count + descriptor.gap_length, size)
    # Counts by class offset from first_bucket, then rotated into place.
    counts = [base + 1] * extra + [base] * (size - extra)
    gap_offset = descriptor.gap_start - params.first_bucket
    for offset in range(gap_offset, gap_offset + descriptor.gap_length):
        counts[offset % size] -= 1
    turn = -params.first_bucket % size
    return counts[turn:] + counts[:turn]


def sweep(domain: SweepDomain | None = None) -> SweepReport:
    """Exhaustively check every instance in the domain.

    Each instance is counted as ``check_requirements(run_lifecycle(
    params))`` would judge it, with the work split by what it depends on.
    Once per stage-1 quadruple: one ``run_lifecycle``, R1–R5 and RC, the
    gap descriptor and the comparison with the pointer-walk oracle; a
    failure or mismatch there counts for every second-set size.  Once per
    second-set size: R6's histogram, in closed form from the label set;
    its residue clause holds by definition, since stage 3 is
    ``label % second_set_size``.  Instances are visited in lexicographic
    parameter order, so the first failure recorded per requirement is
    the minimal one and the whole report is deterministic.
    """
    if domain is None:
        domain = SweepDomain()
    report = SweepReport(domain=domain)
    counts = report.violation_counts
    minimal = report.minimal_violations
    for planning in domain.iter_planning_instances():
        # planning carries the smallest second-set size, the quadruple's
        # first instance in sweep order.
        seconds = domain.second_set_sizes(planning.first_set_size)
        report.instances_checked += len(seconds)
        trace = run_lifecycle(planning)
        stage1 = [(p.token, p.stage1_bucket) for p in trace.placements]
        if stage1 != prose_oracle_stage1(planning):
            report.oracle_mismatches += len(seconds)
            if report.minimal_oracle_mismatch is None:
                report.minimal_oracle_mismatch = planning
        for requirement_id, _, check in _REQUIREMENTS:
            if requirement_id == "R6":
                continue
            witness_fields = check(trace)
            if witness_fields is not None:
                counts[requirement_id] += len(seconds)
                report.unexpected_violations += len(seconds)
                if requirement_id not in minimal:
                    minimal[requirement_id] = (
                        planning,
                        _failed(requirement_id, planning, witness_fields),
                    )
        descriptor = gap(planning)
        for second in seconds:
            occupancy = _label_residue_counts(planning, descriptor, second)
            witness_fields = _count_clause("occupancy3", occupancy)
            if witness_fields is None:
                continue
            counts["R6"] += 1
            # Expected: the documented gap case at spread exactly 2.
            if not (descriptor.present and witness_fields["spread"] == 2):
                report.unexpected_violations += 1
            if "R6" not in minimal:
                params = replace(planning, second_set_size=second)
                minimal["R6"] = (params, _failed("R6", params, witness_fields))
    return report
