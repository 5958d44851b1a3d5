"""Shared test tooling: every memory test measures with traced_peak."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """Peak bytes traced while fn runs (numpy reports its buffers), and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn) -> (peak bytes traced while fn runs, fn's result)."""
    return _traced_peak
