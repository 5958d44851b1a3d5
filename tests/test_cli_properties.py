"""Property tests of the CLI's contract on drawn bad input: every stage exits
0, 2, 3 or 4, a failure writes exactly one error: line to stderr, and a
success writes nothing there. One half sets one config key to a value from a
typed pool; the other corrupts one file of a good run."""

import contextlib
import io
import json
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domex import cli
from domex.config import OutputLayout, RunConfig

BASE = {
    "data": {"num_classes": 3, "feature_dim": 4, "samples_per_class": 12},
    "model": {"hidden_units": [6]},
    "pretrain": {"epochs": 1},
    "expansion": {"epochs": 1},
    "gradcheck": {"seeds": [0]},
}
VALUES = [0, -1, -0.0, 5e-324, 1e308, 2**31, 10**20, [], None, "a string", True, ["m1", "m1"]]
# Valid values that would only make a run long or its arrays large; 10**20
# stays for the size keys, as the config refuses it before any allocation.
RUNS_LONG = {
    ("pretrain", "epochs"): [2**31, 10**20],
    ("expansion", "epochs"): [2**31, 10**20],
    ("data", "num_classes"): [2**31],
    ("data", "feature_dim"): [2**31],
    ("data", "samples_per_class"): [2**31],
}
KEYS = [
    (section.name, key.name)
    for section in fields(RunConfig)
    for key in fields(section.default_factory())
]
CASES = [(key, value) for key in KEYS for value in VALUES if value not in RUNS_LONG.get(key, [])]


def run_stages(stages, out, config=None):
    """Run stages in order with cli.main until one fails; check each one's
    exit code and streams, and return the last exit code."""
    for stage in stages:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [stage, "--out", str(out)] + (["--config", str(config)] if config else [])
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERIC), stage
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            return code
        assert err == "", stage
        # One summary line; evaluate prints its results table.
        assert stage == "evaluate" or stdout.getvalue().count("\n") == 1, stage
    return code


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=st.sampled_from(CASES))
@example(case=(("data", "mean_scale"), -0.0))
# An integer beyond float64's range; float() would raise OverflowError on it.
@example(case=(("data", "mean_scale"), 10**400))
def test_one_drawn_config_value_ends_in_a_documented_exit(tmp_path_factory, case):
    (section, key), value = case
    raw = json.loads(json.dumps(BASE))
    raw.setdefault(section, {})[key] = value
    out = tmp_path_factory.mktemp("config_case")
    config = out / "config.json"
    config.write_text(json.dumps(raw))
    run_stages(cli.STAGES, out / "run", config)


# Each file of a good run, and the stages that read it and what follows.
DOWNSTREAM = {
    "data/source_0_train.csv": ["pretrain", "expand", "evaluate"],
    "data/new_unlabelled.csv": ["expand", "evaluate"],
    "data/new_test.csv": ["evaluate"],
    OutputLayout(Path()).original_model(0).as_posix(): ["expand", "evaluate"],
    OutputLayout(Path()).updated_model(1).as_posix(): ["evaluate"],
}


@st.composite
def corruptions(draw):
    """A file of the good run and a function that corrupts its bytes: empty,
    truncated, a flipped bit, CRLF line ends, a BOM, a duplicated line or a
    nan cell."""
    target = draw(st.sampled_from(sorted(DOWNSTREAM)))
    kind = draw(st.sampled_from(["empty", "truncated", "bit flip", "crlf", "bom", "dup", "nan"]))
    at = draw(st.floats(0.0, 1.0, exclude_max=True))
    bit, column = draw(st.integers(0, 7)), draw(st.integers(0, 63))

    def corrupt(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        k = int(at * len(lines))
        if kind == "empty":
            return b""
        if kind == "truncated":
            return raw[: int(at * len(raw))]
        if kind == "bit flip":
            i = int(at * len(raw))
            return raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1 :]
        if kind == "crlf":
            return raw.replace(b"\n", b"\r\n")
        if kind == "bom":
            return b"\xef\xbb\xbf" + raw
        if kind == "dup":
            return b"\n".join(lines[: k + 1] + lines[k:])
        cells = lines[k].split(b",")
        cells[column % len(cells)] = b"nan"
        return b"\n".join(lines[:k] + [b",".join(cells)] + lines[k + 1 :])

    return target, kind, corrupt


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A config and the run directory that synth, pretrain and expand made from it."""
    root = tmp_path_factory.mktemp("good_run")
    (root / "config.json").write_text(json.dumps(BASE))
    assert run_stages(["synth", "pretrain", "expand"], root / "run", root / "config.json") == 0
    return root


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(corruption=corruptions())
def test_one_corrupted_file_ends_in_a_documented_exit(tmp_path_factory, good_run, corruption):
    target, _, corrupt = corruption
    case = tmp_path_factory.mktemp("file_case")
    shutil.copytree(good_run, case, dirs_exist_ok=True)
    path = case / "run" / target
    path.write_bytes(corrupt(path.read_bytes()))
    run_stages(DOWNSTREAM[target], case / "run", case / "config.json")
