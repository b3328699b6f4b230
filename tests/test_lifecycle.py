"""Tests for full-lifecycle traces."""

from __future__ import annotations

import inspect
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringfill.lifecycle
from ringfill import LifecycleTrace, prose_oracle_stage1, run_lifecycle

from conftest import (
    Placement,
    label,
    large_ring_params,
    make_params,
    placement_params,
    reference_lifecycle,
    reference_placement,
    trace_of,
    trace_rows,
)


class TestRunLifecycle:
    def test_balanced_instance_spreads_evenly_at_every_stage(self):
        trace = run_lifecycle(make_params(10, 4, 2, target=5))
        assert trace.occupancy1 == (5, 5, 0, 0)
        assert trace.occupancy2 == (3, 3, 2, 2)
        assert trace.occupancy3 == (2, 2, 2, 2, 2)

    def test_gap_instance_full_trace(self):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        assert trace_rows(trace) == (
            Placement(0, 2, 2, 2, 2, False),
            Placement(1, 1, 1, 1, 1, False),
            Placement(2, 0, 0, 0, 0, False),
            Placement(3, 3, 0, 3, 3, True),
            Placement(4, 6, 2, 2, 1, False),
        )
        assert trace.occupancy1 == (2, 1, 2, 0)
        assert trace.occupancy2 == (1, 1, 2, 1)
        assert trace.occupancy3 == (1, 2, 1, 1, 0)

    def test_full_width_window_never_moves_anything(self):
        trace = run_lifecycle(make_params(4, 4, 4, target=5))
        assert not any(trace.moved_in_stage2)

    def test_empty_instance_yields_empty_trace(self):
        trace = run_lifecycle(make_params(0, 3, 2))
        assert trace_rows(trace) == ()
        assert trace.occupancy1 == (0, 0, 0)
        assert trace.occupancy3 == (0, 0, 0, 0)

    @given(placement_params())
    def test_histograms_tally_the_placements(self, params):
        trace = run_lifecycle(params)
        tokens = params.token_count
        assert sum(trace.occupancy1) == tokens
        assert sum(trace.occupancy2) == tokens
        assert sum(trace.occupancy3) == tokens
        for placement in trace_rows(trace):
            assert trace.occupancy1[placement.stage1_bucket] > 0
            assert trace.occupancy2[placement.stage2_bucket] > 0
            assert trace.occupancy3[placement.stage3_bucket] > 0

    def test_histograms_are_tallied_on_first_read_and_only_once(self, tally_sizes):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        assert tally_sizes == []
        for _ in range(2):
            assert trace.occupancy3 == (1, 2, 1, 1, 0)
            assert trace.occupancy1 == (2, 1, 2, 0)
            assert trace.occupancy2 == (1, 1, 2, 1)
        assert tally_sizes == [5, 4, 4]

    def test_peak_memory_is_bounded_by_the_finished_trace(self):
        # The columns are built a round at a time, with no per-token
        # record and no list held beside them.
        params = make_params(20003, 37, 20, first=5, target=60)
        tracemalloc.start()
        try:
            trace = run_lifecycle(params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.label) == 20003
        assert peak <= 1.15 * kept

    def test_trace_stores_only_params_and_columns(self):
        assert list(LifecycleTrace._fields) == [
            "params",
            *Placement._fields[1:],
        ]
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        with pytest.raises(AttributeError):
            trace.occupancy1 = (5, 0, 0, 0)
        assert trace.occupancy1 == (2, 1, 2, 0)
        # The cached histograms sit beside the fields, yet no attribute,
        # field or not, can be set or deleted.
        with pytest.raises(AttributeError):
            trace.anything = 1
        with pytest.raises(AttributeError):
            trace.label = ()
        with pytest.raises(AttributeError):
            del trace.occupancy1
        assert not hasattr(trace, "anything")
        assert trace.occupancy1 == (2, 1, 2, 0)

    @given(placement_params())
    def test_stage1_occupancy_is_confined_to_the_window(self, params):
        trace = run_lifecycle(params)
        for bucket, count in enumerate(trace.occupancy1):
            assert count == 0 or params.in_fill_window(bucket)

    @given(placement_params())
    def test_move_flag_mirrors_the_bucket_change(self, params):
        for placement in trace_rows(run_lifecycle(params)):
            assert placement.moved_in_stage2 == (
                placement.stage1_bucket != placement.stage2_bucket
            )

    @given(placement_params())
    def test_each_complete_round_has_fill_width_unmoved_tokens(self, params):
        moved = run_lifecycle(params).moved_in_stage2
        size = params.first_set_size
        for start in range(0, params.token_count - size + 1, size):
            unmoved = sum(not flag for flag in moved[start : start + size])
            assert unmoved == params.fill_width

    @given(placement_params())
    def test_tokens_are_dense_and_ordered(self, params):
        trace = run_lifecycle(params)
        assert [p.token for p in trace_rows(trace)] == list(range(params.token_count))

    @given(placement_params())
    def test_reruns_are_identical(self, params):
        assert run_lifecycle(params) == run_lifecycle(params)


class TestColumns:
    """The columns, each built for one period and repeated, against
    per-token references."""

    @given(placement_params())
    @example(make_params(0, 3, 2))
    @example(make_params(9, 4, 3, first=3, target=7))
    @example(make_params(7, 5, 5, first=4))
    @example(make_params(5, 8, 3, first=6, target=9))  # T < B and B' = B + 1
    @example(make_params(30, 8, 3, first=2, target=9))  # T < lcm(B, B')
    @example(make_params(3, 10**20, 5, first=10**20 - 1, target=10**20 + 1))
    def test_placements_equal_the_per_token_reference(self, params):
        trace = run_lifecycle(params)
        placements = reference_lifecycle(params)
        assert trace_rows(trace) == placements
        assert trace == trace_of(params, placements)

    @given(placement_params(max_buckets=64, max_tokens=5000))
    def test_label_column_is_the_label_map(self, params):
        trace = run_lifecycle(params)
        assert list(trace.label) == [label(params, t) for t in range(params.token_count)]

    @given(placement_params(max_buckets=64, max_tokens=5000))
    def test_stage1_column_is_the_pointer_walk(self, params):
        trace = run_lifecycle(params)
        assert list(enumerate(trace.stage1_bucket)) == prose_oracle_stage1(params)

    def test_occupancies_are_built_on_first_read_and_only_once(self, tally_sizes):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        assert tally_sizes == []
        assert trace.occupancy1 is trace.occupancy1
        assert trace.occupancy3 is trace.occupancy3
        assert tally_sizes == [4, 5]

    @settings(max_examples=15, deadline=None)
    @given(large_ring_params(), st.lists(st.integers(0, 3 * 10**6), max_size=20))
    @example(make_params(150_003, 50_000, 20_001, first=49_999, target=99_999), [])
    @example(make_params(200_000, 10**6, 999_999, first=1, target=2 * 10**6), [])
    def test_large_rings_agree_with_the_references(self, params, draws):
        # Each round is built from its runs, so every run's first and last
        # token of the first two rounds and the last are checked, with a
        # few drawn tokens; the stage-1 column is walked in full.
        trace = run_lifecycle(params)
        tokens = params.token_count
        size, width = params.first_set_size, params.fill_width
        last_round = (tokens - 1) // size * size if tokens else 0
        checked = {
            base + position
            for base in (0, size, last_round)
            for position in (0, width - 1, width, size - 1)
            if base + position < tokens
        }
        if tokens:
            checked.update(draw % tokens for draw in draws)
        for token in sorted(checked):
            found = tuple(column[token] for column in trace.columns)
            assert found == reference_placement(params, token)
        assert all(len(column) == tokens for column in trace.columns)
        assert list(enumerate(trace.stage1_bucket)) == prose_oracle_stage1(params)


def test_the_benchmark_breaks_only_the_move_flag():
    # The benchmark's self-test breaks the program by rewriting this text
    # of lifecycle.py to "False)", so the text must name one place alone:
    # the move flag that run_lifecycle builds.
    seam = "bucket != after)"
    source = Path(ringfill.lifecycle.__file__).read_text(encoding="utf-8")
    assert source.count(seam) == 1
    assert seam in inspect.getsource(run_lifecycle)
