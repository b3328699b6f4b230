"""Tests for the label map, stage-1 planner and gap analysis.

The library states the label map once, as the label column of a trace;
``conftest.label`` is the per-token closed form it is held to."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given

from ringfill import (
    PlacementParams,
    gap,
    plan_stage1,
    run_lifecycle,
)

from conftest import label, make_params, placement_params, trace_rows


def window_buckets(params: PlacementParams) -> list[int]:
    """The ring buckets of the fill window, in window order."""
    size = params.first_set_size
    return [(params.first_bucket + i) % size for i in range(params.fill_width)]


class TestPlacementParams:
    def test_rejects_negative_token_count(self):
        with pytest.raises(ValueError, match="token_count"):
            make_params(-1, 4, 2)

    def test_rejects_empty_first_set(self):
        with pytest.raises(ValueError, match="first_set_size"):
            PlacementParams(0, 0, 1, 0, 1)

    def test_rejects_window_wider_than_ring(self):
        with pytest.raises(ValueError, match="fill_width"):
            make_params(5, 4, 5)

    def test_rejects_zero_width_window(self):
        with pytest.raises(ValueError, match="fill_width"):
            make_params(5, 4, 0)

    def test_rejects_window_start_off_the_ring(self):
        with pytest.raises(ValueError, match="first_bucket"):
            make_params(5, 4, 2, first=4)

    def test_rejects_second_set_not_larger(self):
        with pytest.raises(ValueError, match="second_set_size"):
            make_params(5, 4, 2, target=4)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((-1, 4, 2, 0, 5), "token_count must be >= 0, got -1"),
            ((0, 0, 1, 0, 1), "first_set_size must be >= 1, got 0"),
            (
                (5, 4, 5, 0, 5),
                "fill_width must be between 1 and first_set_size, got "
                "fill_width=5 with first_set_size=4",
            ),
            (
                (5, 4, 0, 0, 5),
                "fill_width must be between 1 and first_set_size, got "
                "fill_width=0 with first_set_size=4",
            ),
            (
                (5, 4, 2, 4, 5),
                "first_bucket must be between 0 and first_set_size - 1, got "
                "first_bucket=4 with first_set_size=4",
            ),
            (
                (5, 4, 2, -1, 5),
                "first_bucket must be between 0 and first_set_size - 1, got "
                "first_bucket=-1 with first_set_size=4",
            ),
            (
                (5, 4, 2, 0, 4),
                "second_set_size must exceed first_set_size, got "
                "second_set_size=4 with first_set_size=4",
            ),
        ],
    )
    def test_positional_and_keyword_construction_raise_the_same_message(self, values, message):
        keywords = dict(zip(PlacementParams._fields, values))
        for build in (lambda: PlacementParams(*values), lambda: PlacementParams(**keywords)):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    def test_replace_builds_the_tuple_without_the_checks(self):
        # Why the package never calls ``_replace``: it skips ``__new__``.
        params = make_params(5, 4, 2)._replace(token_count=-1)
        assert params.token_count == -1
        with pytest.raises(ValueError, match="token_count"):
            PlacementParams(*params)

    def test_fill_window_lists_consecutive_ring_buckets(self):
        params = make_params(0, 5, 3, first=1)
        assert window_buckets(params) == [1, 2, 3]
        inside = [bucket for bucket in range(5) if params.in_fill_window(bucket)]
        assert sorted(inside, key=params.window_offset) == [1, 2, 3]

    def test_fill_window_wraps_around_the_ring(self):
        params = make_params(0, 4, 3, first=3)
        assert window_buckets(params) == [3, 0, 1]
        inside = [bucket for bucket in range(4) if params.in_fill_window(bucket)]
        assert sorted(inside, key=params.window_offset) == [3, 0, 1]

    def test_window_offset_inverts_fill_window(self):
        params = make_params(0, 6, 4, first=4)
        for offset, bucket in enumerate(window_buckets(params)):
            assert params.window_offset(bucket) == offset
            assert params.in_fill_window(bucket)

    def test_buckets_outside_window_are_recognized(self):
        params = make_params(0, 6, 4, first=4)
        assert not params.in_fill_window(2)
        assert not params.in_fill_window(3)


class TestStreams:
    """Which stream carries each token, read off the move flag: only the
    ascending stream's tokens move in the rebalance."""

    def test_round_starts_with_descending_tokens(self):
        trace = run_lifecycle(make_params(8, 4, 2))
        observed = [not moved for moved in trace.moved_in_stage2]
        assert observed == [True, True, False, False, True, True, False, False]

    def test_full_width_window_has_no_ascending_tokens(self):
        trace = run_lifecycle(make_params(8, 4, 4))
        assert not any(trace.moved_in_stage2)


def labels_of(params: PlacementParams) -> tuple[int, ...]:
    """The library's label column of ``params``."""
    return run_lifecycle(params).label


class TestLabel:
    def test_first_rounds_interleave_descending_and_ascending_values(self):
        params = make_params(8, 4, 2)
        assert list(labels_of(params)) == [1, 0, 2, 3, 5, 4, 6, 7]

    def test_descending_segment_counts_down_to_round_base(self):
        params = make_params(5, 4, 3)
        assert list(labels_of(params)) == [2, 1, 0, 3, 6]

    def test_round_boundary_values(self):
        # First and last token of each stream segment pin the whole map:
        # the descending segment opens at first_bucket + fill_width - 1 and
        # closes at first_bucket, then repeats one ring size higher.
        params = make_params(12, 7, 4, first=2)
        width = params.fill_width
        size = params.first_set_size
        start = params.first_bucket
        labels = labels_of(params)
        assert labels[0] == start + width - 1
        assert labels[width - 1] == start
        assert labels[size] == start + size + width - 1
        assert labels[size + width - 1] == start + size

    @given(placement_params())
    def test_labels_are_pairwise_distinct(self, params):
        labels = labels_of(params)
        assert len(set(labels)) == len(labels)

    @given(placement_params())
    def test_labels_stay_in_the_instance_range(self, params):
        for value in labels_of(params):
            assert params.first_bucket <= value
            assert value < params.first_bucket + params.token_count + params.fill_width


class TestPlanStage1:
    def test_two_streams_share_the_window(self):
        assert plan_stage1(make_params(4, 4, 2)) == [(0, 1), (1, 0), (2, 0), (3, 1)]

    def test_window_wrapping_keeps_assignments_on_the_ring(self):
        assert plan_stage1(make_params(4, 4, 2, first=3)) == [
            (0, 0),
            (1, 3),
            (2, 3),
            (3, 0),
        ]

    def test_single_bucket_window_takes_everything(self):
        assert plan_stage1(make_params(3, 3, 1, first=2)) == [(0, 2), (1, 2), (2, 2)]

    def test_two_rounds_repeat_the_bucket_pattern(self):
        buckets = [bucket for _, bucket in plan_stage1(make_params(8, 4, 2))]
        assert buckets == [1, 0, 0, 1, 1, 0, 0, 1]

    def test_empty_instance_yields_empty_plan(self):
        assert plan_stage1(make_params(0, 3, 1)) == []

    def test_a_wide_window_builds_only_the_slots_its_tokens_take(self):
        params = make_params(3, 2_000_000, 2_000_000)
        tracemalloc.start()
        try:
            plan = plan_stage1(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan == [(0, 1_999_999), (1, 1_999_998), (2, 1_999_997)]
        assert peak < 64 * 1024

    @given(placement_params())
    def test_all_assignments_stay_inside_the_window(self, params):
        for _, bucket in plan_stage1(params):
            assert params.in_fill_window(bucket)

    @given(placement_params())
    def test_descending_tokens_sit_at_their_label_residue(self, params):
        for token, bucket in plan_stage1(params):
            if token % params.first_set_size < params.fill_width:
                assert bucket == label(params, token) % params.first_set_size


class TestStageMaps:
    """Stages 2 and 3 reduce the label modulo the first and the second set
    size; ``run_lifecycle`` records both per token."""

    def test_rejects_out_of_range_token(self):
        params = make_params(3, 4, 2)
        for token in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                label(params, token)

    def test_rebalance_reduces_label_modulo_ring_size(self):
        trace = run_lifecycle(make_params(12, 5, 3, first=3, target=7))
        stage2 = list(trace.stage2_bucket)
        assert stage2 == [0, 4, 3, 1, 2, 0, 4, 3, 1, 2, 0, 4]

    def test_reshard_reduces_label_modulo_second_set_size(self):
        trace = run_lifecycle(make_params(12, 5, 3, first=3, target=7))
        stage3 = list(trace.stage3_bucket)
        assert stage3 == [5, 4, 3, 6, 0, 3, 2, 1, 4, 5, 1, 0]

    @given(placement_params())
    def test_stage_maps_agree_with_the_label(self, params):
        for placement in trace_rows(run_lifecycle(params)):
            value = label(params, placement.token)
            assert placement.label == value
            assert placement.stage2_bucket == value % params.first_set_size
            assert placement.stage3_bucket == value % params.second_set_size


class TestGap:
    def test_truncated_descending_sweep_leaves_a_gap(self):
        descriptor = gap(make_params(5, 4, 3))
        assert descriptor.present
        assert descriptor.gap_start == 4
        assert descriptor.gap_length == 2
        assert descriptor.round == 1
        assert descriptor.offset == 2

    def test_ascending_tail_leaves_no_gap(self):
        assert not gap(make_params(8, 4, 2)).present

    def test_one_step_truncation_leaves_a_single_missing_label(self):
        descriptor = gap(make_params(5, 4, 2))
        assert descriptor.present
        assert descriptor.gap_start == 4
        assert descriptor.gap_length == 1
        assert descriptor.round == 1
        assert descriptor.offset == 1

    def test_empty_instance_has_no_gap(self):
        assert not gap(make_params(0, 4, 3)).present

    def test_gap_interval_shifts_with_the_window_start(self):
        descriptor = gap(make_params(5, 4, 3, first=2))
        assert descriptor.present
        assert descriptor.gap_start == 6
        assert descriptor.gap_length == 2

    @given(placement_params())
    def test_gap_matches_brute_force_diff_of_the_label_set(self, params):
        labels = set(labels_of(params))
        top = max(labels, default=params.first_bucket - 1)
        missing = sorted(set(range(params.first_bucket, top + 1)) - labels)
        descriptor = gap(params)
        if descriptor.present:
            assert missing == list(
                range(descriptor.gap_start, descriptor.gap_start + descriptor.gap_length)
            )
        else:
            assert missing == []

    @given(placement_params())
    @example(make_params(5, 4, 3))
    @example(make_params(13, 5, 5, first=4))
    def test_last_label_sits_exactly_gap_length_above_the_round_base(self, params):
        descriptor = gap(params)
        if descriptor.present:
            above = labels_of(params)[-1] - descriptor.gap_start
            assert above == descriptor.gap_length == descriptor.offset
            assert descriptor.round == (
                (descriptor.gap_start - params.first_bucket) // params.first_set_size
            )
