"""The traced paper_default pipeline at pipeline seed 0 makes pinned call counts.

Run with: python3 -m pytest benchmarks/test_trace_counts.py

The counts prove that the tracer wraps every binding: expansion and fusion
call forward_logits through their own by-name imports, and cli calls
load_csv, write_csv and write_manifest the same way. A wrapper on the
defining module alone would see none of those calls.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PINNED = {
    ("pretrain", "nn.forward_logits"): 993,
    ("pretrain", "nn.backward"): 990,
    ("pretrain", "nn.sgd_step"): 990,
    ("expand", "nn.forward_logits"): 1680,
    ("expand", "nn.backward"): 660,
    ("expand", "nn.sgd_step"): 330,
    ("expand", "expansion.mean_entropy"): 30,
    ("evaluate", "nn.forward_logits"): 51,
    # Calls that go through cli's by-name imports.
    ("synth", "data.write_csv"): 9,
    ("pretrain", "data.load_csv"): 3,
    ("evaluate", "data.load_csv"): 5,
    ("expand", "config.write_manifest"): 1,
}


def traced_pass(work: Path) -> dict:
    work.mkdir()
    runner = run.Runner("paper_default", 0, work)
    passed = runner.pipeline(0, trace=True)
    assert passed["ok"], runner.failures
    assert passed["seed"] == 0
    return passed["layers"]


def counts(layers: dict) -> dict:
    return {
        (stage, name): stats["calls"]
        for stage, functions in layers["stages"].items()
        for name, stats in functions.items()
    }


def test_traced_counts_are_pinned_and_repeat_exactly(tmp_path):
    first = traced_pass(tmp_path / "first")
    second = traced_pass(tmp_path / "second")
    found = counts(first)
    assert {key: found.get(key, 0) for key in PINNED} == PINNED
    assert counts(second) == found
    assert second["derived"] == first["derived"]
    assert second["spans"] == first["spans"]
