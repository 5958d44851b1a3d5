"""Shared test tooling: every memory test measures with traced_peak, every
hand-built one-layer model comes from linear_model, every CSV cell's
digits are read with significant_digits, and every write that fails midway
comes from failing_midstream."""

import tracemalloc

import numpy as np
import pytest

from domex import nn


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


def _linear_model(bias, weights=None, input_dim=2):
    """The one-layer model whose logits are x @ weights.T + bias; without
    weights, zero weights over input_dim features make them bias on every row."""
    bias = np.asarray(bias, dtype=np.float64)
    if weights is None:
        weights = np.zeros((bias.size, input_dim))
    weights = np.asarray(weights, dtype=np.float64)
    return nn.MlpModel([weights.shape[1], bias.size], np.concatenate([weights.ravel(), bias]))


@pytest.fixture
def linear_model():
    """linear_model(bias, weights=None, input_dim=2) -> a one-layer nn.MlpModel."""
    return _linear_model


def _significant_digits(text):
    """The significant digits of a decimal float literal: "-1.50e+3" -> "15",
    and "" for a zero."""
    return text.lstrip("-").lower().split("e")[0].replace(".", "").strip("0")


@pytest.fixture
def significant_digits():
    """significant_digits(text) -> the digits of a float literal, without its
    sign, point, exponent and leading or trailing zeros."""
    return _significant_digits


def _failing_midstream(write_atomic, error):
    """write_atomic, fed a chunk stream that raises error after the first of
    the chunks its caller passes, once that chunk is written."""

    def write(path, chunks):
        def first_then_error():
            yield next(iter(chunks))
            raise error

        write_atomic(path, first_then_error())

    return write


@pytest.fixture
def failing_midstream():
    """failing_midstream(write_atomic, error) -> a stand-in for write_atomic
    whose write fails with error after the first chunk."""
    return _failing_midstream
