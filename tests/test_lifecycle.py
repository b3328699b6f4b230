"""Tests for full-lifecycle traces."""

from __future__ import annotations

import tracemalloc
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given

from ringfill import LifecycleTrace, TokenPlacement, run_lifecycle

from conftest import make_params, placement_params


class TestRunLifecycle:
    def test_balanced_instance_spreads_evenly_at_every_stage(self):
        trace = run_lifecycle(make_params(10, 4, 2, target=5))
        assert trace.occupancy1 == (5, 5, 0, 0)
        assert trace.occupancy2 == (3, 3, 2, 2)
        assert trace.occupancy3 == (2, 2, 2, 2, 2)

    def test_gap_instance_full_trace(self):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        assert trace.placements == (
            TokenPlacement(0, 2, 2, 2, 2, False),
            TokenPlacement(1, 1, 1, 1, 1, False),
            TokenPlacement(2, 0, 0, 0, 0, False),
            TokenPlacement(3, 3, 0, 3, 3, True),
            TokenPlacement(4, 6, 2, 2, 1, False),
        )
        assert trace.occupancy1 == (2, 1, 2, 0)
        assert trace.occupancy2 == (1, 1, 2, 1)
        assert trace.occupancy3 == (1, 2, 1, 1, 0)

    def test_full_width_window_never_moves_anything(self):
        trace = run_lifecycle(make_params(4, 4, 4, target=5))
        assert not any(p.moved_in_stage2 for p in trace.placements)

    def test_empty_instance_yields_empty_trace(self):
        trace = run_lifecycle(make_params(0, 3, 2))
        assert trace.placements == ()
        assert trace.occupancy1 == (0, 0, 0)
        assert trace.occupancy3 == (0, 0, 0, 0)

    @given(placement_params())
    def test_histograms_tally_the_placements(self, params):
        trace = run_lifecycle(params)
        tokens = params.token_count
        assert sum(trace.occupancy1) == tokens
        assert sum(trace.occupancy2) == tokens
        assert sum(trace.occupancy3) == tokens
        for placement in trace.placements:
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
        # Each label and stage-1 bucket is read as the placements are
        # built, so no plan list is held beside them.
        params = make_params(20003, 37, 20, first=5, target=60)
        tracemalloc.start()
        try:
            trace = run_lifecycle(params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.placements) == 20003
        assert peak <= 1.15 * kept

    def test_trace_stores_only_params_and_placements(self):
        assert [f.name for f in fields(LifecycleTrace)] == ["params", "placements"]
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        with pytest.raises(FrozenInstanceError):
            trace.occupancy1 = (5, 0, 0, 0)
        assert trace.occupancy1 == (2, 1, 2, 0)

    @given(placement_params())
    def test_stage1_occupancy_is_confined_to_the_window(self, params):
        trace = run_lifecycle(params)
        for bucket, count in enumerate(trace.occupancy1):
            assert count == 0 or params.in_fill_window(bucket)

    @given(placement_params())
    def test_move_flag_mirrors_the_bucket_change(self, params):
        for placement in run_lifecycle(params).placements:
            assert placement.moved_in_stage2 == (
                placement.stage1_bucket != placement.stage2_bucket
            )

    @given(placement_params())
    def test_each_complete_round_has_fill_width_unmoved_tokens(self, params):
        placements = run_lifecycle(params).placements
        size = params.first_set_size
        for start in range(0, params.token_count - size + 1, size):
            unmoved = sum(
                not p.moved_in_stage2 for p in placements[start : start + size]
            )
            assert unmoved == params.fill_width

    @given(placement_params())
    def test_tokens_are_dense_and_ordered(self, params):
        trace = run_lifecycle(params)
        assert [p.token for p in trace.placements] == list(range(params.token_count))

    @given(placement_params())
    def test_reruns_are_identical(self, params):
        assert run_lifecycle(params) == run_lifecycle(params)
