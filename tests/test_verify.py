"""Tests for requirement checking, the oracle, the sweep and the stage-1
end state that R2 bounds."""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter
from math import lcm
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ringfill.verify
from ringfill import (
    REQUIREMENT_DESCRIPTIONS,
    REQUIREMENT_IDS,
    LifecycleTrace,
    PlacementParams,
    RequirementCheck,
    SweepDomain,
    SweepReport,
    check_requirements,
    gap,
    plan_stage1,
    prose_oracle_stage1,
    run_lifecycle,
    sweep,
)
from ringfill.cli import sweep_report_document
from ringfill.lifecycle import _tally
from ringfill.verify import _spreads

from conftest import (
    Placement,
    _label_residue_counts,
    failures,
    instances,
    make_params,
    placement_params,
    planning_instances,
    reference_check_requirements,
    reference_sweep,
)


def build_trace(params: PlacementParams, rows) -> LifecycleTrace:
    """Assemble a trace from raw placement rows.

    Rows are (label, stage1, stage2, stage3, moved); tokens are numbered
    in order.  Used to feed the checker traces the real planner would
    never produce.
    """
    return LifecycleTrace(params, *(zip(*rows) if rows else [()] * 5))


def assert_witness_fields(check, trace, *fields) -> None:
    """The witness leads with the instance's params, then exactly ``fields``."""
    assert list(check.witness) == ["params", *fields]
    assert check.witness["params"] == trace.params._asdict()


def inject_row(monkeypatch, requirement_id: str, offender, histogram=None) -> None:
    """Swap the offender and histogram of one ``_REQUIREMENTS`` row."""
    table = list(ringfill.verify._REQUIREMENTS)
    index = REQUIREMENT_IDS.index(requirement_id)
    _, description, _, _ = table[index]
    table[index] = (requirement_id, description, offender, histogram)
    monkeypatch.setattr(ringfill.verify, "_REQUIREMENTS", tuple(table))


def always_fails(trace, buckets):
    """An offender before the first token, so every run fails, the empty
    one included."""
    return -1, {"forced": True}


def fails_from_five_tokens_of_two_two_zero(trace, buckets):
    """An offender at token 4 of the triple ``(B, C, f) = (2, 2, 0)``.

    It reads only the triple in the trace's params, so the sweep's
    prefix reads and a whole-trace check judge alike.
    """
    params = trace.params
    if (params.first_set_size, params.fill_width, params.first_bucket) == (2, 2, 0):
        return 4, {"forced": True}
    return None


def count_sweep_calls(monkeypatch, domain: SweepDomain) -> tuple[dict[str, int], SweepReport]:
    """The calls ``sweep(domain)`` makes to each piece of work it shares
    out, and its report."""
    calls = dict.fromkeys(
        ["run_lifecycle", "prose_oracle_stage1", "_spreads", "gap"], 0
    )
    for name in calls:
        real = getattr(ringfill.verify, name)

        def counting(*args, real=real, name=name, **changes):
            calls[name] += 1
            return real(*args, **changes)

        monkeypatch.setattr(ringfill.verify, name, counting)
    return calls, sweep(domain)


class FiveTokens(SweepDomain):
    """A domain of the five-token instances only."""

    def iter_triples(self):
        for *triple, token_counts in super().iter_triples():
            yield *triple, [tokens for tokens in token_counts if tokens == 5]


class TenTokensOfThreeTwoZero(SweepDomain):
    """A domain of the one run of ten tokens of ``(B, C, f) = (3, 2, 0)``."""

    def iter_triples(self):
        yield 3, 2, 0, [10]


@st.composite
def broken_traces(draw):
    """A ``run_lifecycle`` trace with one entry of one column changed:
    a move flag flipped, or a label or bucket set to another small int,
    which may lie outside its set."""
    params = draw(placement_params().filter(lambda params: params.token_count))
    trace = run_lifecycle(params)
    name = draw(st.sampled_from(Placement._fields[1:]))
    column = list(getattr(trace, name))
    token = draw(st.integers(0, len(column) - 1))
    if name == "moved_in_stage2":
        column[token] = not column[token]
    else:
        values = st.integers(-1, 2 * params.second_set_size)
        column[token] = draw(values.filter(column[token].__ne__))
    return trace._replace(**{name: tuple(column)})


class TestReportContainer:
    def test_requirements_are_reported_in_declaration_order(self):
        report = check_requirements(run_lifecycle(make_params(6, 3, 2)))
        assert tuple(check.id for check in report.checks) == REQUIREMENT_IDS

    def test_every_requirement_has_a_description(self):
        assert set(REQUIREMENT_DESCRIPTIONS) == set(REQUIREMENT_IDS)

    def test_lookup_by_id(self):
        report = check_requirements(run_lifecycle(make_params(6, 3, 2)))
        assert report["R4"].id == "R4"
        with pytest.raises(KeyError):
            report["R9"]

    def test_failures_lists_exactly_the_failing_checks(self):
        report = check_requirements(run_lifecycle(make_params(5, 4, 3, target=5)))
        assert [check.id for check in failures(report)] == ["R6"]
        assert not report.all_pass


class TestCheckRequirements:
    def test_balanced_instance_passes_everything(self):
        report = check_requirements(run_lifecycle(make_params(10, 4, 2, target=5)))
        assert report.all_pass

    def test_empty_trace_passes_everything(self):
        report = check_requirements(run_lifecycle(make_params(0, 4, 2, target=5)))
        assert report.all_pass

    def test_duplicate_labels_fail_distinctness(self):
        trace = build_trace(
            make_params(4, 2, 2, target=3),
            [
                (0, 0, 0, 0, False),
                (1, 1, 1, 1, False),
                (1, 1, 1, 1, False),
                (2, 0, 0, 2, False),
            ],
        )
        report = check_requirements(trace)
        check = report["R1"]
        assert not check.passed
        assert check.witness["token_a"] == 1
        assert check.witness["token_b"] == 2
        assert check.witness["label"] == 1
        assert_witness_fields(check, trace, "token_a", "token_b", "label")
        assert [c.id for c in failures(report)] == ["R1"]

    def test_lopsided_window_fails_count_homogeneity(self):
        # Labels balance every residue check, yet the ascending stream's
        # slots stack two extra tokens on the window start.
        trace = build_trace(
            make_params(6, 4, 2, target=5),
            [
                (0, 0, 0, 0, False),
                (4, 0, 0, 4, False),
                (1, 1, 1, 1, False),
                (2, 0, 2, 2, True),
                (6, 1, 2, 1, True),
                (3, 0, 3, 3, True),
            ],
        )
        report = check_requirements(trace)
        check = report["R2"]
        assert not check.passed
        assert check.witness["window_counts"] == [4, 2]
        assert check.witness["spread"] == 2
        assert_witness_fields(check, trace, "window_counts", "spread")
        assert [c.id for c in failures(report)] == ["R2"]

    def test_window_counts_leave_out_a_bucket_outside_the_window(self):
        # Token 3's stage-1 bucket, 2, is the slot one past the window {0, 1}.
        trace = build_trace(
            make_params(4, 4, 2, target=5),
            [
                (0, 0, 0, 0, False),
                (1, 0, 1, 1, True),
                (2, 0, 2, 2, True),
                (3, 2, 3, 3, True),
            ],
        )
        report = check_requirements(trace)
        assert tuple(check.id for check in report.checks) == REQUIREMENT_IDS
        check = report["R2"]
        assert check.witness["window_counts"] == [3, 0]
        assert check.witness["spread"] == 3

    def test_unbalanced_label_residues_are_detected(self):
        trace = build_trace(
            make_params(2, 2, 1, target=3),
            [
                (0, 0, 0, 0, False),
                (2, 0, 0, 2, False),
            ],
        )
        check = check_requirements(trace)["R3"]
        assert not check.passed
        assert check.witness["residue_counts"] == [2, 0]
        assert check.witness["spread"] == 2
        assert_witness_fields(check, trace, "residue_counts", "spread")

    def test_lying_move_flag_is_detected(self):
        trace = run_lifecycle(make_params(4, 4, 2, target=5))
        rows = list(zip(*trace.columns[1:]))
        rows[2] = rows[2][:4] + (False,)
        lying = build_trace(trace.params, rows)
        check = check_requirements(lying)["R4"]
        assert not check.passed
        assert check.witness["token"] == 2
        assert check.witness["reason"] == "flag_mismatch"
        assert_witness_fields(
            check, lying, "token", "stage1_bucket", "stage2_bucket", "reason"
        )

    def test_move_landing_inside_the_window_is_detected(self):
        trace = build_trace(
            make_params(1, 4, 3, target=5),
            [(1, 0, 1, 1, True)],
        )
        report = check_requirements(trace)
        check = report["R4"]
        assert not check.passed
        assert check.witness["reason"] == "moved_within_window"
        assert_witness_fields(
            check, trace, "token", "stage1_bucket", "stage2_bucket", "reason"
        )
        assert [c.id for c in failures(report)] == ["R4"]

    def test_rebalance_off_the_label_residue_is_detected(self):
        trace = build_trace(
            make_params(1, 2, 1, target=3),
            [(0, 0, 1, 0, True)],
        )
        report = check_requirements(trace)
        check = report["R5"]
        assert not check.passed
        assert check.witness["clause"] == "residue"
        assert check.witness["token"] == 0
        assert check.witness["expected"] == 0
        assert_witness_fields(
            check, trace, "clause", "token", "label", "stage2_bucket", "expected"
        )
        assert [c.id for c in failures(report)] == ["R5"]

    def test_lopsided_rebalance_counts_are_detected(self):
        trace = build_trace(
            make_params(2, 2, 1, target=3),
            [
                (0, 0, 0, 0, False),
                (2, 0, 0, 2, False),
            ],
        )
        check = check_requirements(trace)["R5"]
        assert not check.passed
        assert check.witness["clause"] == "count"
        assert check.witness["occupancy2"] == [2, 0]
        assert check.witness["spread"] == 2
        assert_witness_fields(check, trace, "clause", "occupancy2", "spread")

    def test_reshard_off_the_label_residue_is_detected(self):
        trace = build_trace(
            make_params(1, 2, 1, target=3),
            [(0, 0, 0, 2, False)],
        )
        report = check_requirements(trace)
        check = report["R6"]
        assert not check.passed
        assert check.witness["clause"] == "residue"
        assert check.witness["expected"] == 0
        assert_witness_fields(
            check, trace, "clause", "token", "label", "stage3_bucket", "expected"
        )
        assert [c.id for c in failures(report)] == ["R6"]

    def test_gap_instance_fails_reshard_counts(self):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        report = check_requirements(trace)
        check = report["R6"]
        assert not check.passed
        assert check.witness["clause"] == "count"
        assert check.witness["occupancy3"] == [1, 2, 1, 1, 0]
        assert check.witness["spread"] == 2
        assert_witness_fields(check, trace, "clause", "occupancy3", "spread")
        assert [c.id for c in failures(report)] == ["R6"]

    def test_ascending_stream_starting_off_the_window_start_is_detected(self):
        trace = run_lifecycle(make_params(4, 4, 2, target=5))
        rows = list(zip(*trace.columns[1:]))
        rows[2] = (rows[2][0], 1) + rows[2][2:]
        rows[3] = (rows[3][0], 0) + rows[3][2:]
        shifted = build_trace(trace.params, rows)
        report = check_requirements(shifted)
        check = report["RC"]
        assert not check.passed
        assert check.witness["position"] == 0
        assert check.witness["token"] == 2
        assert check.witness["expected_offset"] == 0
        assert check.witness["actual_offset"] == 1
        assert_witness_fields(
            check, shifted, "position", "token", "expected_offset", "actual_offset"
        )
        assert [c.id for c in failures(report)] == ["RC"]

    def test_witness_params_reproduce_the_failure(self):
        params = make_params(5, 4, 3, target=5)
        check = check_requirements(run_lifecycle(params))["R6"]
        rebuilt = PlacementParams(**check.witness["params"])
        assert check_requirements(run_lifecycle(rebuilt))["R6"] == check

    def test_requirements_that_share_a_histogram_share_its_tally(self, tally_sizes):
        # R3 and R5 both count label % B: three whole-column tallies, not four.
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        report = check_requirements(trace)
        assert [check.id for check in failures(report)] == ["R6"]
        assert tally_sizes == [3, 4, 5]

    def test_each_histogram_builds_its_buckets_once(self):
        # R5's and R6's residue clauses read the label residues their
        # histograms built: one window-slot column, and one residue
        # column per set size, B for R3 and R5 and B' for R6.
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        calls = Counter()

        def count_calls(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(count_calls)
        try:
            check_requirements(trace)
        finally:
            sys.setprofile(None)
        assert [calls[name] for name in ("_window_slots", "_label_residues")] == [1, 2]

    def test_peak_memory_above_the_trace_is_a_quarter_of_it(self):
        # R1 sorts the labels instead of building a set of them, and each
        # histogram's buckets go before the next one's are built.
        tracemalloc.start()
        try:
            trace = run_lifecycle(make_params(20003, 37, 20, first=5, target=60))
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = check_requirements(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak - kept <= 0.25 * kept

    @given(broken_traces())
    def test_broken_traces_get_the_reference_verdict(self, trace):
        # repr compares the witnesses' key order too.
        assert repr(check_requirements(trace)) == repr(reference_check_requirements(trace))

    @given(placement_params())
    def test_real_traces_only_ever_fail_reshard_counts_on_gaps(self, params):
        report = check_requirements(run_lifecycle(params))
        for check in failures(report):
            assert check.id == "R6"
            assert check.witness["clause"] == "count"
            assert check.witness["spread"] == 2
            assert gap(params).present


class TestProseOracle:
    def test_opposite_pointers_share_the_window(self):
        assert prose_oracle_stage1(make_params(4, 4, 2)) == [
            (0, 1),
            (1, 0),
            (2, 0),
            (3, 1),
        ]

    def test_wide_ring_keeps_the_ascending_pointer_cycling(self):
        assert prose_oracle_stage1(make_params(5, 5, 2)) == [
            (0, 1),
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 0),
        ]

    def test_single_bucket_window_takes_everything(self):
        assert prose_oracle_stage1(make_params(3, 3, 1, first=2)) == [
            (0, 2),
            (1, 2),
            (2, 2),
        ]

    @given(placement_params())
    def test_oracle_agrees_with_the_closed_form_planner(self, params):
        assert prose_oracle_stage1(params) == plan_stage1(params)


class TestSweepDomain:
    def test_default_ranges(self):
        domain = SweepDomain()
        assert domain.max_buckets == 10
        assert domain.max_rounds == 4
        assert domain.target_span == 2
        assert domain.token_limit(10) == 43

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError, match="max_buckets"):
            SweepDomain(max_buckets=0)
        with pytest.raises(ValueError, match="max_rounds"):
            SweepDomain(max_rounds=0)
        with pytest.raises(ValueError, match="target_span"):
            SweepDomain(target_span=1)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0, 4, 2), "max_buckets must be >= 1, got 0"),
            ((10, 0, 2), "max_rounds must be >= 1, got 0"),
            ((10, 4, 1), "target_span must be >= 2 for a non-empty second-set range, got 1"),
        ],
    )
    def test_every_construction_raises_the_same_message(self, values, message):
        keywords = dict(zip(SweepDomain._fields, values))
        builds = (
            lambda: SweepDomain(*values),
            lambda: SweepDomain(**keywords),
            lambda: FiveTokens(*values),
            lambda: FiveTokens(**keywords),
        )
        for build in builds:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    def test_single_bucket_domain_size(self):
        every = list(instances(SweepDomain(max_buckets=1)))
        assert len(every) == 8
        assert every[0] == PlacementParams(0, 1, 1, 0, 2)
        assert every[-1] == PlacementParams(7, 1, 1, 0, 2)

    def test_two_bucket_domain_size(self):
        assert sum(1 for _ in instances(SweepDomain(max_buckets=2))) == 104

    def test_three_bucket_domain_size(self):
        assert sum(1 for _ in instances(SweepDomain(max_buckets=3))) == 536

    def test_instances_come_out_in_lexicographic_order(self):
        seen = list(instances(SweepDomain(max_buckets=3)))
        keys = [
            (p.first_set_size, p.fill_width, p.first_bucket, p.token_count, p.second_set_size)
            for p in seen
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize(
        "domain, size",
        [
            (SweepDomain(max_buckets=2), 104),
            (SweepDomain(max_buckets=3), 536),
            (SweepDomain(), 113432),
            # One token count per triple, B window starts and widths, B second sets.
            (FiveTokens(), sum(buckets**3 for buckets in range(1, 11))),
        ],
    )
    def test_the_enumerator_yields_what_the_sweep_checks(self, domain, size):
        assert sum(1 for _ in instances(domain)) == sweep(domain).instances_checked == size

    def test_planning_instances_collapse_the_second_set_axis(self):
        domain = SweepDomain(max_buckets=3)
        planning = list(planning_instances(domain))
        assert len(planning) == 200
        assert all(p.second_set_size == p.first_set_size + 1 for p in planning)


class TestSweep:
    def test_single_bucket_domain_is_violation_free(self):
        domain = SweepDomain(max_buckets=1)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        assert report.instances_checked == 8
        assert all(count == 0 for count in report.violation_counts.values())
        assert report.minimal_violations == {}
        assert report.oracle_mismatches == 0
        assert report.only_expected_failures

    def test_two_bucket_domain_finds_exactly_the_gap_cases(self):
        domain = SweepDomain(max_buckets=2)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        assert report.instances_checked == 104
        assert report.violation_counts == {
            "R1": 0,
            "R2": 0,
            "R3": 0,
            "R4": 0,
            "R5": 0,
            "R6": 4,
            "RC": 0,
        }
        failing = [
            params
            for params in instances(domain)
            if not check_requirements(run_lifecycle(params)).all_pass
        ]
        assert failing == [
            PlacementParams(3, 2, 2, 0, 3),
            PlacementParams(9, 2, 2, 0, 3),
            PlacementParams(3, 2, 2, 1, 3),
            PlacementParams(9, 2, 2, 1, 3),
        ]
        assert report.unexpected_violations == 0
        assert report.only_expected_failures

    def test_minimal_violation_is_the_lexicographically_first_one(self):
        report = sweep(SweepDomain(max_buckets=2))
        params, check = report.minimal_violations["R6"]
        assert params == PlacementParams(3, 2, 2, 0, 3)
        assert check.witness["clause"] == "count"
        assert check.witness["occupancy3"] == [2, 1, 0]
        assert check.witness["spread"] == 2

    def test_minimal_r6_witness_is_taken_at_its_own_second_set_size(self):
        # In every SweepDomain the first R6 failure, (3, 2, 2, 0, 3), is at the
        # smallest second-set size; with five tokens it is at B' = 5, not B + 1.
        domain = FiveTokens(max_buckets=2, target_span=3)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        params, check = report.minimal_violations["R6"]
        assert params == PlacementParams(5, 2, 2, 0, 5)
        assert check.witness["params"] == params._asdict()
        assert len(check.witness["occupancy3"]) == 5

    def test_minimal_r6_witness_takes_the_least_of_tied_larger_second_sets(self):
        # Ten tokens of (3, 2, 0) pass R6 at the smallest B', 4, and fail
        # it first at B' = 5 and again at B' = 10, both folded into the
        # spread record above the smallest: the witness takes B' = 5.
        domain = TenTokensOfThreeTwoZero(target_span=4)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        assert report.violation_counts["R6"] == 2
        params, check = report.minimal_violations["R6"]
        assert params == PlacementParams(10, 3, 2, 0, 5)
        assert len(check.witness["occupancy3"]) == 5

    def test_gap_free_instances_pass_everything(self):
        for params in instances(SweepDomain(max_buckets=4)):
            if not gap(params).present:
                assert check_requirements(run_lifecycle(params)).all_pass

    def test_quadruple_failure_fans_out_to_every_instance(self, monkeypatch):
        inject_row(monkeypatch, "R2", always_fails)
        domain = SweepDomain(max_buckets=2)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        assert report.violation_counts["R2"] == 104
        first = next(instances(domain))
        assert first.second_set_size == first.first_set_size + 1
        witness = {"params": first._asdict(), "forced": True}
        assert report.minimal_violations["R2"] == (
            first,
            RequirementCheck("R2", False, witness),
        )
        assert report.unexpected_violations == 104
        assert report.violation_counts["R6"] == 4

    def test_json_lists_minimal_violations_in_requirement_order(self, monkeypatch):
        # RC fails on the quadruple (5, 2, 2, 0), where R6 fails only at
        # B' = 5: the sweep, which reads by requirement, finds R6 first,
        # while the reference, which goes by instance, finds RC first.
        inject_row(monkeypatch, "RC", fails_from_five_tokens_of_two_two_zero)
        domain = FiveTokens(max_buckets=2, target_span=3)
        report = sweep(domain)
        reference = reference_sweep(domain)
        assert list(report.minimal_violations) == ["R6", "RC"]
        assert list(reference.minimal_violations) == ["RC", "R6"]
        document = sweep_report_document(report)
        assert list(document["minimal_violations"]) == ["R6", "RC"]
        assert json.dumps(document) == json.dumps(sweep_report_document(reference))

    def test_sweep_runs_one_lifecycle_and_one_oracle_walk_per_triple(
        self, monkeypatch
    ):
        domain = SweepDomain(max_buckets=4)
        calls, report = count_sweep_calls(monkeypatch, domain)
        # One (B, C, f) triple per window width and start: 1 + 4 + 9 + 16.
        # Each (B, C) pair builds B + 2 spread records, shared by its B
        # window starts: R2's, the one R3 and R5 share, and R6's for each
        # of the B second-set sizes.  Gap presence is asked once per
        # planning instance that R6's count clause fails at spread 2,
        # never once per second-set size.  The only parameters built from
        # others are those of R6's minimal witness.
        assert calls == {
            "run_lifecycle": 30,
            "prose_oracle_stage1": 30,
            "_spreads": 50,
            "gap": 112,
        }
        assert report.instances_checked == sum(1 for _ in instances(domain))

    def test_default_sweep_builds_each_spread_record_once_per_pair(self, monkeypatch):
        # The sum of B * (B + 2) over B <= 10 records, not one set per triple.
        calls, report = count_sweep_calls(monkeypatch, SweepDomain())
        assert calls == {
            "run_lifecycle": 385,
            "prose_oracle_stage1": 385,
            "_spreads": 495,
            "gap": 4631,
        }
        assert report.instances_checked == 113432

    def test_default_sweep_reads_only_columns(self, tally_sizes):
        # The sweep judges every prefix from the spread records of the
        # trace's columns; the one whole-column histogram it tallies is
        # that of R6's minimal witness, over the second set of 3.
        report = sweep()
        assert report.instances_checked == 113432
        assert report.only_expected_failures
        assert tally_sizes == [3]

    def test_wide_spans_and_long_runs_match_the_reference(self):
        domain = SweepDomain(max_buckets=5, max_rounds=6, target_span=4)
        assert sweep(domain) == reference_sweep(domain)

    def test_full_period_verdict(self):
        # Twenty rounds cover every period of R2 (lcm(B, C) tokens) and of
        # R6 (lcm(B, B') tokens) for B <= 10 at span 2.
        report = sweep(SweepDomain(max_rounds=20))
        assert report.instances_checked == 518760
        assert report.violation_counts == {
            "R1": 0,
            "R2": 0,
            "R3": 0,
            "R4": 0,
            "R5": 0,
            "R6": 80772,
            "RC": 0,
        }
        assert report.unexpected_violations == 0
        assert report.oracle_mismatches == 0
        assert report.minimal_oracle_mismatch is None
        params = PlacementParams(3, 2, 2, 0, 3)
        witness = {
            "params": params._asdict(),
            "clause": "count",
            "occupancy3": [2, 1, 0],
            "spread": 2,
        }
        assert report.minimal_violations == {
            "R6": (params, RequirementCheck("R6", False, witness))
        }

    def test_twenty_bucket_verdict(self):
        # Rings of up to twenty buckets, 27 times the default domain's
        # instances: still only the documented gap cases fail.
        report = sweep(SweepDomain(max_buckets=20))
        assert report.instances_checked == 3067064
        assert report.violation_counts == {
            "R1": 0,
            "R2": 0,
            "R3": 0,
            "R4": 0,
            "R5": 0,
            "R6": 531856,
            "RC": 0,
        }
        assert report.unexpected_violations == 0
        assert report.oracle_mismatches == 0
        assert report.minimal_oracle_mismatch is None
        params = PlacementParams(3, 2, 2, 0, 3)
        witness = {
            "params": params._asdict(),
            "clause": "count",
            "occupancy3": [2, 1, 0],
            "spread": 2,
        }
        assert report.minimal_violations == {
            "R6": (params, RequirementCheck("R6", False, witness))
        }

    def test_oracle_disagreement_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            ringfill.verify, "prose_oracle_stage1", lambda params: []
        )
        domain = SweepDomain(max_buckets=1)
        report = sweep(domain)
        assert report == reference_sweep(domain)
        assert report.oracle_mismatches == 7
        assert report.minimal_oracle_mismatch == PlacementParams(1, 1, 1, 0, 2)
        assert not report.only_expected_failures


def edit_token(trace: LifecycleTrace, column: str, token: int, change) -> LifecycleTrace:
    """The trace with entry ``token`` of ``column`` replaced by
    ``change(entry, params)``, when the run has that token."""
    values = list(getattr(trace, column))
    if token < len(values):
        values[token] = change(values[token], trace.params)
    return trace._replace(**{column: tuple(values)})


def label_plus_one_at_token_7(trace):
    return edit_token(trace, "label", 7, lambda value, _: value + 1)


def ascending_stage1_slots_plus_one(trace):
    """Every moved token, which is an ascending one, a stage-1 bucket on."""
    size = trace.params.first_set_size
    column = zip(trace.stage1_bucket, trace.moved_in_stage2)
    return trace._replace(
        stage1_bucket=tuple((bucket + 1) % size if moved else bucket for bucket, moved in column),
    )


def stage1_past_the_window_at_token_3(trace):
    """Token 3 one slot past the window, whenever the window leaves the
    ring a slot."""
    params = trace.params
    if params.fill_width == params.first_set_size:
        return trace
    past = (params.first_bucket + params.fill_width) % params.first_set_size
    return edit_token(trace, "stage1_bucket", 3, lambda *_: past)


def label_plus_one_at_token_7_from_start_1(trace):
    """The label edit at window start 1 only, against the window-start law."""
    if trace.params.first_bucket != 1:
        return trace
    return label_plus_one_at_token_7(trace)


def stage1_past_the_window_at_token_3_from_start_1(trace):
    """The stage-1 edit at window start 1 only, against the window-start law."""
    if trace.params.first_bucket != 1:
        return trace
    return stage1_past_the_window_at_token_3(trace)


def move_flag_dropped_at_token_9(trace):
    return edit_token(trace, "moved_in_stage2", 9, lambda *_: False)


def move_flag_flipped_at_token_5(trace):
    return edit_token(trace, "moved_in_stage2", 5, lambda flag, _: not flag)


def stage2_plus_one_at_token_5(trace):
    return edit_token(
        trace, "stage2_bucket", 5, lambda bucket, params: (bucket + 1) % params.first_set_size
    )


def stage3_plus_one_at_token_4(trace):
    return edit_token(
        trace, "stage3_bucket", 4, lambda bucket, params: (bucket + 1) % params.second_set_size
    )


def stage3_modulo_one_more(trace):
    """Stage 3 taken modulo one more than the second-set size."""
    size = trace.params.second_set_size + 1
    return trace._replace(stage3_bucket=tuple(value % size for value in trace.label))


class Mutant(NamedTuple):
    """A trace mutant and what the sweep of ``domain`` must make of it.

    ``caught`` maps each requirement that must catch the mutant, or
    ``"oracle"``, to its count; every other count is the unmutated
    sweep's.  ``reference`` says whether ``reference_sweep`` can judge
    it: its own checks refuse an R6 failure other than the documented
    gap case.  ``minimal`` pins the parameters and some witness fields
    of a requirement's minimal violation.
    """

    edit: Callable[[LifecycleTrace], LifecycleTrace]
    domain: SweepDomain
    caught: dict[str, int]
    unexpected: int
    reference: bool = True
    minimal: dict[str, tuple[PlacementParams, dict]] = {}


FOUR = SweepDomain(max_buckets=4)

MUTANTS = (
    Mutant(
        label_plus_one_at_token_7,
        FOUR,
        {"R1": 907, "R3": 989, "R5": 1016, "R6": 986},
        3654,
        reference=False,
    ),
    Mutant(
        ascending_stage1_slots_plus_one,
        FOUR,
        {"R2": 449, "R4": 672, "RC": 1099, "oracle": 1099},
        2220,
    ),
    # R2's spread record skips the offset past the window, which is not
    # below the window width, on every run of more than three tokens.
    Mutant(
        stage1_past_the_window_at_token_3,
        FOUR,
        {"R2": 148, "R4": 504, "RC": 800, "oracle": 1016},
        1452,
    ),
    # Two mutants of window start 1 alone, against the window-start law.
    # A pair's spread records are shared only while the content they
    # count agrees, so start 1 is recorded again, and start 2 after it;
    # records keyed on (B, C) alone would miss R2's 40 or R3's 271.  The
    # reference cannot judge the label edit, which breaks R6's residue
    # clause: its counts are those of a sweep that records every triple.
    Mutant(
        label_plus_one_at_token_7_from_start_1,
        FOUR,
        {"R1": 251, "R3": 271, "R5": 280, "R6": 391},
        1009,
        reference=False,
    ),
    Mutant(
        stage1_past_the_window_at_token_3_from_start_1,
        FOUR,
        {"R2": 40, "R4": 152, "RC": 208, "oracle": 280},
        400,
    ),
    Mutant(move_flag_dropped_at_token_9, FOUR, {"R4": 168}, 168),
    Mutant(stage2_plus_one_at_token_5, FOUR, {"R4": 990, "R5": 1214}, 2204),
    Mutant(stage3_plus_one_at_token_4, FOUR, {"R6": 465}, 370, reference=False),
    # A first failure counts from its offending token: R4 fails exactly on
    # the runs of more than five tokens, 50 instances of the domain.
    Mutant(
        move_flag_flipped_at_token_5,
        SweepDomain(max_buckets=2),
        {"R4": 50},
        50,
        minimal={"R4": (PlacementParams(6, 1, 1, 0, 2), {"token": 5})},
    ),
    # Token 2, label 2, lands in bucket 2 of (1, 1, 0)'s second set of 2.
    Mutant(
        stage3_modulo_one_more,
        SweepDomain(max_buckets=3),
        {"R6": 167},
        152,
        reference=False,
        minimal={"R6": (PlacementParams(3, 1, 1, 0, 2), {"clause": "residue", "token": 2})},
    ),
)


def gap_length_plus_one(descriptor):
    return descriptor._replace(gap_length=descriptor.gap_length + 1)


def gap_start_minus_one(descriptor):
    return descriptor._replace(gap_start=descriptor.gap_start - 1)


class TestMutantCatalogue:
    """Broken lifecycles the sweep must flag, each through a wrapper of
    ``ringfill.verify.run_lifecycle`` that edits every trace it returns."""

    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.edit.__name__)
    def test_the_sweep_catches_the_mutant(self, monkeypatch, mutant):
        clean = sweep(mutant.domain)
        real = ringfill.verify.run_lifecycle
        monkeypatch.setattr(
            ringfill.verify, "run_lifecycle", lambda params: mutant.edit(real(params))
        )
        report = sweep(mutant.domain)
        assert not report.only_expected_failures
        caught = {**report.violation_counts, "oracle": report.oracle_mismatches}
        assert all(caught[catcher] for catcher in mutant.caught)
        assert caught == {
            **clean.violation_counts,
            "oracle": clean.oracle_mismatches,
            **mutant.caught,
        }
        assert report.unexpected_violations == mutant.unexpected
        for requirement_id, (params, fields) in mutant.minimal.items():
            found, check = report.minimal_violations[requirement_id]
            assert found == params
            assert {name: check.witness[name] for name in fields} == fields
        if mutant.reference:
            assert report == reference_sweep(mutant.domain)

    @pytest.mark.xfail(
        strict=True,
        reason="known escape: the sweep reads only whether a gap is present, "
        "so a mislaid gap passes as the documented gap case",
    )
    @pytest.mark.parametrize("edit", [gap_length_plus_one, gap_start_minus_one])
    def test_a_mislaid_gap_is_caught(self, monkeypatch, edit):
        real = ringfill.verify.gap
        monkeypatch.setattr(ringfill.verify, "gap", lambda params: edit(real(params)))
        report = sweep()
        assert report.violation_counts["R6"] == 17264
        assert not report.only_expected_failures


@st.composite
def tally_feeds(draw):
    """A set size from 1 to 64 and +1 increments into it, sometimes
    drawn from a few buckets only, so that some bucket is hit many times."""
    size = draw(st.integers(1, 64))
    buckets = st.integers(0, size - 1)
    favourites = draw(st.lists(buckets, min_size=1, max_size=3))
    return size, draw(
        st.lists(st.one_of(buckets, st.sampled_from(favourites)), max_size=300)
    )


class TestTally:
    @given(tally_feeds())
    @example((1, [0] * 5))
    @example((3, [2] * 40 + [0, 1]))
    def test_spread_is_current_after_every_increment(self, feed):
        size, increments = feed
        spreads = _spreads(increments, size)
        assert len(spreads) == len(increments) + 1
        plain = [0] * size
        assert spreads[0] == 0
        for tokens, bucket in enumerate(increments, 1):
            plain[bucket] += 1
            assert spreads[tokens] == max(plain) - min(plain)

    @given(tally_feeds(), st.integers(-3, 3))
    def test_increments_equal_the_whole_column_tally(self, feed, shift):
        # The sweep's spread record of a column ends at check_requirements'
        # spread, which counts the column whole: neither counts a bucket
        # outside [0, size), below it or beyond it.
        size, increments = feed
        column = [bucket + shift for bucket in increments]
        whole = _tally(column, size)
        assert whole == tuple(map(column.count, range(size)))
        assert _spreads(column, size)[-1] == max(whole) - min(whole)

    def test_a_negative_bucket_is_not_counted(self):
        # A negative index would count into bucket size + bucket.
        assert _tally((-1, 0, 5), 3) == (1, 0, 0)
        assert _spreads([-1, 0], 2) == [0, 0, 1]

    def test_a_long_stretch_leaves_the_minimum_count_current(self):
        # Six increments fill three buckets evenly; the next increment must
        # see all three still at the minimum, so the spread is 1.
        assert _spreads([0, 1, 2, 0, 1, 2, 0], 3) == [0, 1, 1, 0, 1, 1, 0, 1]

    @given(tally_feeds(), st.data())
    def test_renaming_the_buckets_keeps_every_spread(self, feed, data):
        # The sweep's sharing rule: label % size at one window start is
        # that at another with the buckets renamed by a rotation.
        size, increments = feed
        names = data.draw(st.permutations(range(size)))
        assert _spreads([names[bucket] for bucket in increments], size) == _spreads(
            increments, size
        )


class TestLabelResidueCounts:
    def test_gap_instance(self):
        params = make_params(5, 4, 3, target=5)
        assert _label_residue_counts(params, gap(params), 5) == [1, 2, 1, 1, 0]

    @given(placement_params(max_buckets=64, max_tokens=5000, target_span=4))
    def test_closed_form_equals_the_trace_tally(self, params):
        counts = _label_residue_counts(params, gap(params), params.second_set_size)
        assert counts == list(run_lifecycle(params).occupancy3)


def window_counts(trace: LifecycleTrace) -> list[int]:
    """Stage-1 token counts of the fill window, in window order."""
    params = trace.params
    size = params.first_set_size
    return [trace.occupancy1[(params.first_bucket + i) % size] for i in range(params.fill_width)]


def stream_ends(trace: LifecycleTrace) -> tuple[int | None, int | None]:
    """Window offsets of the ascending and the descending stream's last
    token, None for a stream that never ran.  Only ascending tokens move
    in the rebalance, so the move flag names each token's stream."""
    ends: dict[bool, int | None] = {True: None, False: None}
    for bucket, moved in zip(trace.stage1_bucket, trace.moved_in_stage2):
        ends[moved] = trace.params.window_offset(bucket)
    return ends[True], ends[False]


class TestClassifyEndState:
    """Where the two streams stop decides how stage 1 leaves the window.

    When the run ends on a descending token short of the window start and
    the ascending stream has run, with ``z`` the ascending stream's last
    offset and ``y`` the descending stream's: the counts are even when
    ``z + 1 == y``, one short on the offsets strictly between them when
    ``z + 1 < y``, and one over on offsets ``y`` through ``z`` when
    ``z + 1 > y``.
    """

    def test_adjacent_pointers_mean_equal_counts(self):
        trace = run_lifecycle(make_params(6, 5, 3))
        assert stream_ends(trace) == (1, 2)
        assert window_counts(trace) == [2, 2, 2]

    def test_overlapping_pointers_mean_a_surplus_run(self):
        trace = run_lifecycle(make_params(7, 5, 3))
        assert stream_ends(trace) == (1, 1)
        assert window_counts(trace) == [2, 3, 2]

    def test_separated_pointers_mean_a_deficit_run(self):
        trace = run_lifecycle(make_params(6, 5, 4))
        assert stream_ends(trace) == (0, 3)
        assert window_counts(trace) == [2, 1, 1, 2]

    def test_classification_is_phase_invariant(self):
        trace = run_lifecycle(make_params(7, 5, 3, first=2))
        assert stream_ends(trace) == (1, 1)
        assert window_counts(trace) == [2, 3, 2]

    def test_empty_trace_is_unclassified(self):
        trace = run_lifecycle(make_params(0, 5, 3))
        assert stream_ends(trace) == (None, None)
        assert window_counts(trace) == [0, 0, 0]

    def test_ascending_final_token_is_unclassified(self):
        trace = run_lifecycle(make_params(4, 4, 2))
        assert trace.moved_in_stage2[-1]
        assert stream_ends(trace) == (1, 0)
        assert window_counts(trace) == [2, 2]

    def test_missing_ascending_stream_is_unclassified(self):
        # The descending sweep stops one short of the window start.
        trace = run_lifecycle(make_params(3, 4, 4))
        assert stream_ends(trace) == (None, 1)
        assert window_counts(trace) == [0, 1, 1, 1]

    def test_completed_sweep_is_unclassified(self):
        trace = run_lifecycle(make_params(2, 4, 2))
        assert stream_ends(trace) == (None, 0)
        assert window_counts(trace) == [1, 1]

    @given(placement_params())
    def test_classification_predicts_the_window_counts(self, params):
        trace = run_lifecycle(params)
        if not trace.moved_in_stage2 or trace.moved_in_stage2[-1]:
            return
        ascending, descending = stream_ends(trace)
        if ascending is None or descending == 0:
            return
        if ascending + 1 <= descending:
            run, step = range(ascending + 1, descending), -1
        else:
            run, step = range(descending, ascending + 1), 1
        counts = window_counts(trace)
        rest = {count for offset, count in enumerate(counts) if offset not in run}
        assert len(rest) == 1
        assert all(counts[offset] == min(rest) + step for offset in run)


@st.composite
def residue_periods(draw):
    """An instance with ``B < B' <= 10**4`` and ``T <= 10**12``, and one
    of its two set sizes."""
    buckets = draw(st.integers(1, 10**4 - 1))
    params = PlacementParams(
        token_count=draw(st.integers(0, 10**12)),
        first_set_size=buckets,
        fill_width=draw(st.integers(1, buckets)),
        first_bucket=draw(st.integers(0, buckets - 1)),
        second_set_size=draw(st.integers(buckets + 1, 10**4)),
    )
    return params, draw(st.sampled_from([buckets, params.second_set_size]))


class TestPeriods:
    """Each histogram repeats in the token count, as the ``verify``
    docstring argues: ``lcm`` more tokens add ``lcm / size`` to every
    bucket of a histogram of ``size`` buckets."""

    @given(residue_periods())
    @example((make_params(0, 3, 2, target=4), 4))
    @example((make_params(5, 4, 3, target=5), 5))
    def test_label_residue_counts_repeat_every_lcm_of_b_and_the_size(self, instance):
        params, size = instance
        period = lcm(params.first_set_size, size)
        later = params._replace(token_count=params.token_count + period)
        counts = _label_residue_counts(params, gap(params), size)
        assert _label_residue_counts(later, gap(later), size) == [
            held + period // size for held in counts
        ]

    @given(placement_params(max_buckets=40, max_tokens=200))
    def test_window_counts_repeat_every_lcm_of_b_and_c(self, params):
        period = lcm(params.first_set_size, params.fill_width)
        later = params._replace(token_count=params.token_count + period)
        counts = window_counts(run_lifecycle(params))
        assert window_counts(run_lifecycle(later)) == [
            held + period // params.fill_width for held in counts
        ]


def verdicts(params: PlacementParams) -> list[tuple]:
    """Each requirement's pass or fail, spread and offending token on the
    instance's own trace."""
    return [
        (check.id, check.passed, witness.get("spread"), witness.get("token"))
        for check in check_requirements(run_lifecycle(params)).checks
        for witness in [check.witness or {}]
    ]


class TestWindowStartLaw:
    """An instance's verdict does not read the window start ``f``: its
    labels are those at start 0 plus ``f``, R2's window offsets do not
    read ``f``, and ``label % size`` at start ``f`` is that at start 0
    rotated by ``f``, which keeps every spread.  So the sweep's spread
    records, shared while this content agrees, serve every start of a
    ``(B, C)`` pair."""

    @given(placement_params())
    @example(make_params(5, 4, 3, target=5))
    def test_every_window_start_gets_the_verdict_of_start_0(self, params):
        at_zero = verdicts(params._replace(first_bucket=0))
        for start in range(1, params.first_set_size):
            assert verdicts(params._replace(first_bucket=start)) == at_zero
