"""Shared helpers: a terse instance builder, a hypothesis strategy, a
runner for the module command line and a recorder of histogram tallies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ringfill.lifecycle
from ringfill import PlacementParams

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -m ringfill.cli ARGS`` in a child, capturing bytes.

    The checkout's ``src`` goes first on the child's ``PYTHONPATH``, so
    the child imports the same package as the tests without an install.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        [sys.executable, "-m", "ringfill.cli"] + args, capture_output=True, env=env
    )


def make_params(
    tokens: int, buckets: int, fill: int, first: int = 0, target: int | None = None
) -> PlacementParams:
    """Build an instance; the second set defaults to one past the first."""
    if target is None:
        target = buckets + 1
    return PlacementParams(
        token_count=tokens,
        first_set_size=buckets,
        fill_width=fill,
        first_bucket=first,
        second_set_size=target,
    )


@st.composite
def placement_params(
    draw, max_buckets: int = 8, max_tokens: int = 40, target_span: int = 3
) -> PlacementParams:
    """Valid instances across small rings, windows, phases and horizons."""
    buckets = draw(st.integers(1, max_buckets))
    fill = draw(st.integers(1, buckets))
    first = draw(st.integers(0, buckets - 1))
    tokens = draw(st.integers(0, max_tokens))
    target = draw(st.integers(buckets + 1, target_span * buckets))
    return PlacementParams(
        token_count=tokens,
        first_set_size=buckets,
        fill_width=fill,
        first_bucket=first,
        second_set_size=target,
    )


@pytest.fixture
def tally_sizes(monkeypatch) -> list[int]:
    """Set sizes of the trace histograms tallied from now on, in order."""
    sizes: list[int] = []
    real_tally = ringfill.lifecycle._tally

    def counting_tally(buckets, size):
        sizes.append(size)
        return real_tally(buckets, size)

    monkeypatch.setattr(ringfill.lifecycle, "_tally", counting_tally)
    return sizes
