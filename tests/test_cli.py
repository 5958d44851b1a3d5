"""End-to-end subcommand behavior, exit codes, and manifest audits."""

import base64
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domex import checks, cli, data, fusion, nn
from domex.config import OutputLayout, sha256_file
from domex.errors import ConfigError, DomexError, InputError, NumericError


def tiny_config(tmp_path, **overrides):
    """Small two-source benchmark so each stage runs in well under a second."""
    raw = {
        "data": {
            "num_classes": 3,
            "feature_dim": 4,
            "samples_per_class": 12,
            "source_rotations_deg": [10.0, 50.0],
            "source_shift_sigmas": [0.5, 1.5],
            "seed": 0,
        },
        "model": {"hidden_units": [8]},
        "pretrain": {"epochs": 10, "seed": 0},
        "expansion": {"epochs": 2, "seed": 0},
        "gradcheck": {"seeds": [0, 1]},
    }
    for section, fields in overrides.items():
        raw.setdefault(section, {}).update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def digests(root):
    return {
        p.relative_to(root).as_posix(): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_domain_csvs(layout, datasets):
    layout.data_dir.mkdir(parents=True, exist_ok=True)
    for (domain, part), ds in datasets.items():
        data.write_csv(ds, layout.domain_csv(domain, part))


def widen_csv(path):
    """Rewrite the CSV at path with one more feature column, of zeros."""
    ds = data.load_csv(path)
    wider = np.hstack([ds.features, np.zeros((ds.n, 1))])
    data.write_csv(data.DomainDataset(ds.name, wider, ds.labels), path)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_the_expected_files(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    names = sorted(p.name for p in (out / "data").iterdir())
    assert names == [
        "new_test.csv",
        "new_unlabelled.csv",
        "source_0_test.csv",
        "source_0_train.csv",
        "source_1_test.csv",
        "source_1_train.csv",
    ]
    manifest = json.loads((out / "synth_manifest.json").read_text())
    assert [entry["path"] for entry in manifest["outputs"]] == [
        "data/source_0_train.csv",
        "data/source_0_test.csv",
        "data/source_1_train.csv",
        "data/source_1_test.csv",
        "data/new_test.csv",
        "data/new_unlabelled.csv",
    ]
    unlabelled = data.load_csv(out / "data" / "new_unlabelled.csv")
    assert not unlabelled.labelled


def test_synth_reruns_byte_identically(tmp_path):
    cfg = tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--config", cfg, "--out", out_a) == 0
    assert run("synth", "--config", cfg, "--out", out_b) == 0
    assert digests(out_a) == digests(out_b)


def test_synth_seed_override_changes_the_data(tmp_path):
    cfg = tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--config", cfg, "--out", out_a, "--seed", 1) == 0
    assert run("synth", "--config", cfg, "--out", out_b, "--seed", 2) == 0
    assert digests(out_a) != digests(out_b)


def test_synth_single_source_is_a_config_error(tmp_path):
    cfg = tiny_config(
        tmp_path,
        data={"source_rotations_deg": [10.0], "source_shift_sigmas": [0.5]},
    )
    assert run("synth", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# pretrain


def separable_sources(layout, num_sources=2, samples=30, seed=0):
    """Linearly separable two-class blobs, one CSV per source domain."""
    rng = np.random.default_rng(seed)
    sets = {}
    for i in range(num_sources):
        x = np.concatenate(
            [rng.normal((-4.0, 0.0), 0.3, size=(samples, 2)),
             rng.normal((4.0, 0.0), 0.3, size=(samples, 2))]
        )
        y = np.repeat([0, 1], samples)
        sets[(f"source_{i}", "train")] = data.DomainDataset(f"source_{i}", x, y)
    write_domain_csvs(layout, sets)


def separable_config(tmp_path, **overrides):
    merged = {
        "data": {
            "num_classes": 2,
            "feature_dim": 2,
            "source_rotations_deg": [0.0, 0.0],
            "source_shift_sigmas": [0.0, 0.0],
        },
        "model": {"hidden_units": [8]},
        "pretrain": {"epochs": 20},
    }
    for section, fields in overrides.items():
        merged.setdefault(section, {}).update(fields)
    return tiny_config(tmp_path, **merged)


def test_pretrain_fits_separable_sources_exactly_and_writes_nothing_to_stderr(tmp_path, capsys):
    # Pretrain reports no train accuracy: the fit is read back from the saved
    # models, and stderr stays empty.
    out = tmp_path / "run"
    separable_sources(OutputLayout(out))
    cfg = separable_config(tmp_path)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == 0
    assert capsys.readouterr().err == ""
    for i in range(2):
        model = nn.load_model(OutputLayout(out).original_model(i))
        train = data.load_csv(out / "data" / f"source_{i}_train.csv")
        logits, _ = nn.forward_logits(model, train.features)
        assert np.array_equal(np.argmax(logits, axis=1), train.labels)


def test_pretrain_zero_epochs_ignores_the_data(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    separable_sources(OutputLayout(out_a), seed=1)
    separable_sources(OutputLayout(out_b), seed=99)  # different data, same shape
    cfg = separable_config(tmp_path, pretrain={"epochs": 0})
    assert run("pretrain", "--config", cfg, "--out", out_a) == 0
    assert run("pretrain", "--config", cfg, "--out", out_b) == 0
    for i in range(2):
        assert sha256_file(OutputLayout(out_a).original_model(i)) == sha256_file(
            OutputLayout(out_b).original_model(i)
        )


def test_pretrain_forwards_only_for_sgd_steps(tmp_path, monkeypatch):
    out = tmp_path / "run"
    separable_sources(OutputLayout(out))
    cfg = separable_config(tmp_path)
    counts = {"forward_logits": 0, "sgd_step": 0}

    def counted(name):
        real = getattr(nn, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(nn, name, counted(name))
    assert run("pretrain", "--config", cfg, "--out", out) == 0
    # 2 sources x 20 epochs x 60 rows in batches of 64
    assert counts == {"forward_logits": 40, "sgd_step": 40}


def test_pretrain_rejects_disagreeing_label_sets(tmp_path, capsys):
    out = tmp_path / "run"
    layout = OutputLayout(out)
    rng = np.random.default_rng(5)
    full = data.DomainDataset(
        "source_0", rng.normal(size=(9, 2)), np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    )
    partial = data.DomainDataset(
        "source_1", rng.normal(size=(6, 2)), np.array([0, 0, 0, 1, 1, 1])
    )
    write_domain_csvs(layout, {("source_0", "train"): full, ("source_1", "train"): partial})
    cfg = tiny_config(
        tmp_path,
        data={
            "num_classes": 3,
            "feature_dim": 2,
            "source_rotations_deg": [0.0, 0.0],
            "source_shift_sigmas": [0.0, 0.0],
        },
    )
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    first, second = (layout.domain_csv(f"source_{i}", "train") for i in range(2))
    expected = f"error: {second} has labels [0, 1] but {first} has [0, 1, 2]\n"
    assert capsys.readouterr().err == expected


def test_pretrain_refuses_source_csvs_of_different_widths(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    layout = OutputLayout(out)
    first, wider = (layout.domain_csv(f"source_{i}", "train") for i in range(2))
    widen_csv(wider)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {wider} has 5 features but {first} has 4\n"
    assert not layout.original_model(0).exists()


@pytest.mark.parametrize(
    "column, text, refusal",
    [(0, "nan", "contains non-finite features"), (-1, "-1", "labels must be nonnegative")],
    ids=["nan feature", "negative label"],
)
def test_pretrain_names_the_csv_whose_values_no_dataset_holds(
    tmp_path, capsys, column, text, refusal
):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    path = OutputLayout(out).domain_csv("source_1", "train")
    lines = _replace_cell(path.read_text().splitlines(), 3, column, text)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and refusal in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "content, refusal",
    [("", "{path} is empty"), ("label\n", "line 1: {path} declares no feature columns")],
    ids=["empty", "label-only header"],
)
def test_pretrain_refuses_a_source_csv_without_features(tmp_path, capsys, content, refusal):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    path = OutputLayout(out).domain_csv("source_0", "train")
    path.write_text(content)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {refusal.format(path=path)}\n"


def test_a_refused_stage_leaves_no_empty_directory(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    layout = OutputLayout(out)
    path = layout.domain_csv("source_0", "train")
    train = data.load_csv(path)
    data.write_csv(data.DomainDataset(train.name, train.features), path)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {path} has no label column\n"
    assert not layout.models_dir.exists()


def test_pretrain_without_data_is_an_io_error(tmp_path):
    cfg = tiny_config(tmp_path)
    assert run("pretrain", "--config", cfg, "--out", tmp_path / "nowhere") == cli.EXIT_IO


def test_pretrain_refuses_to_save_a_model_whose_parameters_overflowed(tmp_path, capsys):
    # One full-batch step at this rate leaves theta infinite; the forward
    # before it is still finite, so only save_model sees the overflow.
    cfg = tiny_config(
        tmp_path,
        data={"mean_scale": 1000.0},
        pretrain={"epochs": 1, "batch_size": 100000, "learning_rate": 1.7e308},
    )
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_NUMERIC
    path = OutputLayout(out).original_model(0)
    assert capsys.readouterr().err == (
        f"error: refusing to save {path}: model parameters are not finite\n"
    )
    assert not OutputLayout(out).models_dir.exists()


# ---------------------------------------------------------------------------
# expand


def pipeline_through_pretrain(tmp_path, **overrides):
    cfg = tiny_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    assert run("pretrain", "--config", cfg, "--out", out) == 0
    return cfg, out


def test_expand_lambda_zero_leaves_model_files_equivalent(tmp_path):
    cfg, out = pipeline_through_pretrain(tmp_path, expansion={"lam": 0.0})
    assert run("expand", "--config", cfg, "--out", out) == 0
    for i in range(2):
        original = nn.load_model(OutputLayout(out).original_model(i))
        updated = nn.load_model(OutputLayout(out).updated_model(i))
        assert np.array_equal(updated.theta, original.theta)


def test_expand_manifest_lists_no_source_data(tmp_path):
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "expand_manifest.json").read_text())
    assert any(p.endswith("new_unlabelled.csv") for p in manifest["inputs"])
    for entry in manifest["inputs"]:
        assert "source_" not in entry
        assert not entry.endswith("_train.csv") and not entry.endswith("_test.csv")


def test_expand_refuses_a_truncated_model_file(tmp_path, capsys):
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(0)
    path.write_bytes(path.read_bytes()[:-8])  # one value short
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_expand_refuses_a_model_file_in_the_older_json_format(tmp_path, capsys):
    """Both formats that development builds wrote before the dims header:
    one indented JSON document with theta as base64, and a header line that
    lists each layer's shape and activation. The header checks refuse both."""
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(0)
    model = nn.load_model(path)
    dims = model.dims
    header = {
        "input_dim": dims[0],
        "num_classes": dims[-1],
        "layers": [
            {"in": i, "out": o, "activation": "relu" if k < len(dims) - 2 else "identity"}
            for k, (i, o) in enumerate(zip(dims, dims[1:]))
        ],
    }
    with_base64 = {**header, "theta": base64.b64encode(model.theta.tobytes()).decode()}
    for content, says in (
        ((json.dumps(with_base64, indent=2) + "\n").encode(), "the header line is not JSON"),
        (
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + model.theta.tobytes(),
            "the header line is not a JSON object with the key dims",
        ),
    ):
        path.write_bytes(content)
        capsys.readouterr()
        assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and says in err
        assert "rerun" not in err


def test_expand_refuses_a_dims_width_past_pythons_digit_limit(tmp_path, capsys):
    """json.loads raises a plain ValueError, not a JSONDecodeError, on an
    integer of more than 4300 digits."""
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(0)
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b'{"dims":[' + b"9" * 5000 + b",3]}\n" + body)
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: {path}: the header line is not JSON in UTF-8: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "dims, named",
    [
        ([], "dims"),
        ([3], "dims"),
        ([0, 2], "dims[0]"),
        ([2, True], "dims[1]"),
        ([2, 2.0], "dims[1]"),
        ("3", "dims"),
        (None, "dims"),
    ],
    ids=["empty", "one-width", "zero", "true", "float", "string", "missing"],
)
def test_expand_refuses_a_malformed_dims_header(tmp_path, capsys, dims, named):
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(0)
    body = path.read_bytes().split(b"\n", 1)[1]
    header = {} if dims is None else {"dims": dims}
    path.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert re.search(rf" {re.escape(named)}( |$)", err, re.M)


@pytest.mark.parametrize("damage", ["truncated", "nan-filled"])
def test_expand_names_the_damaged_model_file(tmp_path, capsys, damage):
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(1)
    header, body = path.read_bytes().split(b"\n", 1)
    if damage == "truncated":
        body = body[:-8]
    else:
        body = np.full(len(body) // 8, np.nan).tobytes()
    path.write_bytes(header + b"\n" + body)
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) in (cli.EXIT_IO, cli.EXIT_NUMERIC)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "original_1.model" in err


def test_expand_refuses_a_non_finite_model_parameter(tmp_path, capsys):
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = OutputLayout(out).original_model(0)
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.inf))
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_expand_refuses_source_models_of_another_class_count(tmp_path, capsys):
    """Models pretrained on 3 classes, expanded under a 4-class config."""
    cfg, out = pipeline_through_pretrain(tmp_path)
    (tmp_path / "four").mkdir()
    four = tiny_config(tmp_path / "four", data={"num_classes": 4})
    capsys.readouterr()
    assert run("expand", "--config", four, "--out", out) == cli.EXIT_IO
    path = OutputLayout(out).original_model(0)
    assert capsys.readouterr().err == f"error: {path} emits 3 classes but num_classes is 4\n"
    assert not OutputLayout(out).expanded_dir.exists()


def test_expand_identical_sources_log_zero_bias(tmp_path):
    out = tmp_path / "run"
    layout = OutputLayout(out)
    layout.models_dir.mkdir(parents=True)
    layout.data_dir.mkdir(parents=True)
    rng = np.random.default_rng(6)
    model = nn.init_mlp(4, [8], 3, rng)
    for i in range(2):
        nn.save_model(model, layout.original_model(i))
    data.write_csv(
        data.DomainDataset("new_unlabelled", rng.normal(size=(16, 4))),
        layout.domain_csv("new", "unlabelled"),
    )
    cfg = tiny_config(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    records = [
        json.loads(line) for line in layout.training_log.read_text().splitlines()
    ]
    assert records and all(r["mean_L_bias"] == 0.0 for r in records)
    assert {tuple(sorted(r)) for r in records} == {
        ("E_i", "mean_L_bias", "mean_L_org", "model_index", "round", "w_i")
    }


def test_expand_holds_each_model_once_per_role(tmp_path, traced_peak):
    """expand holds m originals, m updated models and a step's gradient, in
    which the step builds the new vector; a load's file bytes and a step's
    activations stay within the other three theta sizes of the budget."""
    m, dim, classes = 3, 64, 10
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "data": {"feature_dim": dim, "num_classes": classes},
        "expansion": {"epochs": 2},
    }))
    layout = OutputLayout(tmp_path / "run")
    layout.models_dir.mkdir(parents=True)
    layout.data_dir.mkdir(parents=True)
    rng = np.random.default_rng(41)
    for i in range(m):
        model = nn.init_mlp(dim, [1000], classes, rng)
        nn.save_model(model, layout.original_model(i))
    data.write_csv(
        data.DomainDataset("new_unlabelled", rng.normal(size=(128, dim))),
        layout.domain_csv("new", "unlabelled"),
    )
    peak, code = traced_peak(lambda: run("expand", "--config", cfg, "--out", layout.root))
    assert code == 0
    assert peak <= (2 * m + 4) * model.theta.nbytes


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_matches_hand_computed_confusion(tmp_path, linear_model):
    out = tmp_path / "run"
    layout = OutputLayout(out)
    layout.models_dir.mkdir(parents=True)
    layout.expanded_dir.mkdir(parents=True)
    layout.data_dir.mkdir(parents=True)

    # two constant classifiers: their average always predicts class 1
    model_a = linear_model(np.log([0.6, 0.3, 0.1]))
    model_b = linear_model(np.log([0.2, 0.7, 0.1]))
    for i, model in enumerate((model_a, model_b)):
        nn.save_model(model, layout.original_model(i))
        nn.save_model(model, layout.updated_model(i))

    x = np.zeros((4, 2))
    labels = {
        "source_0": [1, 1, 0, 2],  # 2 of 4 are class 1
        "source_1": [1, 0, 0, 0],  # 1 of 4
        "new": [1, 1, 1, 1],  # all of them
    }
    sets = {
        (name, "test"): data.DomainDataset(name, x, np.array(y))
        for name, y in labels.items()
    }
    write_domain_csvs(layout, sets)

    cfg = tiny_config(
        tmp_path,
        data={
            "num_classes": 3,
            "feature_dim": 2,
            "source_rotations_deg": [0.0, 0.0],
            "source_shift_sigmas": [0.0, 0.0],
        },
    )
    assert run("evaluate", "--config", cfg, "--out", out) == 0

    report = json.loads(layout.report_json.read_text())
    expected = {"source_0": 0.5, "source_1": 0.25, "new": 1.0}
    for entry in report["reports"]:
        assert entry["per_domain_accuracy"] == expected
        assert abs(entry["expanded_accuracy"] - (0.5 + 0.25 + 1.0) / 3.0) <= 1e-12
    table = layout.results_table.read_text()
    assert "Expanded" in table and "source_0" in table


def test_evaluate_runs_one_forward_per_model_and_test_set(tmp_path, monkeypatch):
    """Counted in rows forwarded: each model passes over each test set once."""
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    for command in ("synth", "pretrain", "expand"):
        assert run(command, "--config", cfg, "--out", out) == 0

    rows = []
    real_forward = nn.forward_logits

    def counting_forward(model, batch, *rest):
        rows.append(len(batch))
        return real_forward(model, batch, *rest)

    monkeypatch.setattr(nn, "forward_logits", counting_forward)
    assert run("evaluate", "--config", cfg, "--out", out) == 0
    layout = OutputLayout(out)
    test_rows = [
        data.load_csv(layout.domain_csv(name, "test")).n
        for name in ("source_0", "source_1", "new")
    ]
    # two sources: 2 originals + 2 updated models on 3 test sets, each
    # smaller than one chunk
    assert max(test_rows) <= nn.CHUNK_ROWS
    assert sorted(rows) == sorted(test_rows * 4)


@pytest.mark.parametrize("weight_temperature", [1e-3, 3e-4])
def test_evaluate_needs_no_unlabelled_data_and_saturated_weights_run(
    tmp_path, weight_temperature
):
    # the entropy weights live only in the training log; evaluate never reads
    # the unlabelled new-domain features
    cfg, out = pipeline_through_pretrain(
        tmp_path, expansion={"weight_temperature": weight_temperature}
    )
    assert run("expand", "--config", cfg, "--out", out) == 0
    OutputLayout(out).domain_csv("new", "unlabelled").unlink()
    assert run("evaluate", "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "evaluate_manifest.json").read_text())
    assert not any(p.endswith("new_unlabelled.csv") for p in manifest["inputs"])
    report = json.loads(OutputLayout(out).report_json.read_text())
    # each record's keys in EvaluationReport's field order
    assert [list(r) for r in report["reports"]] == [
        ["method", "per_domain_accuracy", "expanded_accuracy"]
    ] * len(fusion.FUSION_METHODS)


def test_evaluate_reruns_identically(tmp_path):
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    assert run("evaluate", "--config", cfg, "--out", out) == 0
    first = sha256_file(OutputLayout(out).report_json)
    assert run("evaluate", "--config", cfg, "--out", out) == 0
    assert sha256_file(OutputLayout(out).report_json) == first


def test_evaluate_refuses_test_labels_beyond_num_classes(tmp_path, capsys):
    # the message and exit code that pretrain gives the same label in a train set
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    path = OutputLayout(out).domain_csv("new", "test")
    test = data.load_csv(path)
    test.labels[0] = 7
    data.write_csv(test, path)
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path} has label 7 but num_classes is 3\n"
    for i in range(2):
        path = OutputLayout(out).domain_csv(f"source_{i}", "train")
        train = data.load_csv(path)
        train.labels[0] = 7
        data.write_csv(train, path)
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
    first = OutputLayout(out).domain_csv("source_0", "train")
    assert capsys.readouterr().err == f"error: {first} has label 7 but num_classes is 3\n"


@pytest.mark.parametrize(
    "input_dim, classes, message",
    [(4, 2, "updated_0.model emits 2 classes but num_classes is 3"), (5, 3, "input_dim")],
)
def test_evaluate_refuses_models_that_do_not_fit_together(
    tmp_path, capsys, input_dim, classes, message
):
    """An updated model copied in from a run with other classes or features."""
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    alien = nn.init_mlp(input_dim, [8], classes, np.random.default_rng(7))
    nn.save_model(alien, OutputLayout(out).updated_model(0))
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_evaluate_refuses_a_model_cut_short_of_a_whole_float64(tmp_path, capsys):
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    path = OutputLayout(out).updated_model(0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    body = len(raw) - raw.index(b"\n") - 1 - 3
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--out", out) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"error: {path}: theta holds {body} bytes, not a whole number of float64s\n"
    )


@pytest.mark.parametrize("stage", ["expand", "evaluate"])
def test_a_stage_names_the_csv_and_model_whose_widths_differ(tmp_path, capsys, stage):
    """Models pretrained on 4 features, given a CSV with 5."""
    cfg, out = pipeline_through_pretrain(tmp_path)
    layout = OutputLayout(out)
    csv = layout.domain_csv("new", "unlabelled")
    if stage == "evaluate":
        assert run("expand", "--config", cfg, "--out", out) == 0
        csv = layout.domain_csv("new", "test")
    widen_csv(csv)
    capsys.readouterr()
    assert run(stage, "--config", cfg, "--out", out) == cli.EXIT_IO
    model = layout.original_model(0)
    assert capsys.readouterr().err == f"error: {csv} has 5 features but {model} has 4\n"


# How a hand-supplied CSV spells its cells and ends its lines.
HAND_DIALECTS = {
    "plain": (lambda i, cell: cell, "\n"),
    # Every other cell quoted, the rest padded: numpy's reader reads these
    # files, and load_csv's orjson path the plain ones.
    "quoted-padded-crlf": (lambda i, cell: f" {cell} " if i % 2 else f'"{cell}"', "\r\n"),
}


def run_hand_supplied_csvs(tmp_path, dialect):
    """Run pretrain, expand and evaluate on a user's own features in data/,
    written without synth or its manifest in one of HAND_DIALECTS, and return
    the bytes of every model, the training log and report.json. The features
    have 5 columns: data.feature_dim (4 here) drives only synth."""
    spell, line_end = HAND_DIALECTS[dialect]
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    (out / "data").mkdir(parents=True)
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=3.0, size=(3, 5))

    def write(name, rows, labelled=True):
        labels = np.arange(rows) % 3
        features = centers[labels] + rng.normal(size=(rows, 5))
        lines = ["a,b,c,d,e" + (",label" if labelled else "")]
        for x, y in zip(features, labels):
            cells = [f"{v:.4f}" for v in x] + ([str(y)] if labelled else [])
            lines.append(",".join(map(spell, range(len(cells)), cells)))
        (out / "data" / name).write_bytes((line_end.join(lines) + line_end).encode())

    for i in range(2):
        write(f"source_{i}_train.csv", 30)
        write(f"source_{i}_test.csv", 12)
    write("new_test.csv", 12)
    write("new_unlabelled.csv", 24, labelled=False)
    for stage in ("pretrain", "expand", "evaluate"):
        assert run(stage, "--config", cfg, "--out", out) == 0
    assert not (out / "synth_manifest.json").exists()
    report = json.loads((out / "eval" / "report.json").read_text())
    assert [r["method"] for r in report["reports"]] == ["baseline", "m1", "m2"]
    layout = OutputLayout(out)
    outputs = [*layout.models_dir.iterdir(), *layout.expanded_dir.iterdir(), layout.report_json]
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(outputs)}


@pytest.fixture(scope="module")
def plain_hand_supplied_outputs(tmp_path_factory):
    return run_hand_supplied_csvs(tmp_path_factory.mktemp("plain"), "plain")


@pytest.mark.parametrize("dialect", list(HAND_DIALECTS))
def test_hand_supplied_feature_csvs_run_without_synth(
    tmp_path, dialect, plain_hand_supplied_outputs
):
    """The same values written in either dialect give the same files."""
    outputs = run_hand_supplied_csvs(tmp_path, dialect)
    assert list(outputs) == [
        "eval/report.json",
        "expanded/training_log.ndjson",
        "expanded/updated_0.model",
        "expanded/updated_1.model",
        "models/original_0.model",
        "models/original_1.model",
    ]
    assert outputs == plain_hand_supplied_outputs


def test_evaluate_without_test_sets_is_an_io_error(tmp_path):
    cfg = tiny_config(tmp_path)
    assert run("evaluate", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_IO


def test_a_write_that_cannot_replace_its_target_removes_its_tmp_file(tmp_path, capsys):
    cfg, out = pipeline_through_pretrain(tmp_path)
    assert run("expand", "--config", cfg, "--out", out) == 0
    report = OutputLayout(out).report_json
    (report / "kept").mkdir(parents=True)
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--out", out) == cli.EXIT_IO
    tmp = report.with_name("report.json.tmp")
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp}' -> '{report}'\n"
    assert sorted(p.name for p in report.parent.iterdir()) == ["report.json"]


# ---------------------------------------------------------------------------
# gradcheck and shared plumbing


def test_gradcheck_writes_a_passing_report(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("gradcheck", "--config", cfg, "--out", out) == 0
    payload = json.loads((out / "checks" / "gradcheck.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["results"]) == len(checks.CHECKED_LOSSES) * 2
    assert all(r["max_error"] < payload["tolerance"] for r in payload["results"])
    # each result's keys in CheckResult's field order
    assert {tuple(r) for r in payload["results"]} == {("loss", "seed", "max_error", "passed")}


def test_gradcheck_failure_exits_with_numeric_code(tmp_path, monkeypatch):
    def fake_suite(seeds):
        return [checks.CheckResult("bias", 0, max_error=1.0)]

    monkeypatch.setattr(cli.checks, "run_gradient_suite", fake_suite)
    assert run("gradcheck", "--out", tmp_path / "run") == cli.EXIT_NUMERIC


def test_errors_define_one_class_per_exit_code():
    assert set(DomexError.__subclasses__()) == {ConfigError, InputError, NumericError}


@pytest.mark.parametrize(
    "error, code",
    [(ConfigError, cli.EXIT_CONFIG), (InputError, cli.EXIT_IO), (NumericError, cli.EXIT_NUMERIC)],
)
def test_main_maps_each_error_class_to_its_exit_code(tmp_path, monkeypatch, capsys, error, code):
    def failing_stage(cfg, layout, config_paths):
        raise error("the stage failed")

    stage = cli.STAGES["gradcheck"]._replace(run=failing_stage)
    monkeypatch.setitem(cli.STAGES, "gradcheck", stage)
    capsys.readouterr()
    assert run("gradcheck", "--out", tmp_path / "run") == code
    assert capsys.readouterr().err == "error: the stage failed\n"


# A size the config allows but this machine cannot hold; no test asks numpy
# for such an array, which a larger machine would allocate.
@pytest.mark.parametrize("stage", list(cli.STAGES))
def test_main_ends_a_memory_error_with_one_line_naming_the_stage(
    tmp_path, monkeypatch, capsys, stage
):
    def exhausted(cfg, layout, config_paths):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setitem(cli.STAGES, stage, cli.STAGES[stage]._replace(run=exhausted))
    capsys.readouterr()
    assert run(stage, "--out", tmp_path / "run") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {stage}: out of memory\n"


def test_config_errors_map_to_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run("synth", "--config", missing, "--out", tmp_path / "r1") == cli.EXIT_IO

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert run("synth", "--config", not_json, "--out", tmp_path / "r2") == cli.EXIT_CONFIG

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mystery": {}}))
    assert run("synth", "--config", unknown, "--out", tmp_path / "r3") == cli.EXIT_CONFIG

    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"expansion": {"epochs": 2.5}}))
    capsys.readouterr()
    assert run("synth", "--config", fractional, "--out", tmp_path / "r4") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: expansion.epochs must be an integer, got 2.5\n"


@pytest.mark.parametrize(
    "stage, overrides, argv",
    [
        ("synth", {"data": {"seed": -1}}, []),
        ("pretrain", {"pretrain": {"seed": -1}}, []),
        ("expand", {"expansion": {"seed": -1}}, []),
        ("gradcheck", {"gradcheck": {"seeds": [0, -1]}}, []),
        ("synth", {}, ["--seed", -1]),
        ("pretrain", {}, ["--seed", -1]),
        ("expand", {}, ["--seed", -1]),
    ],
    ids=[
        "data.seed",
        "pretrain.seed",
        "expansion.seed",
        "gradcheck.seeds",
        "synth --seed",
        "pretrain --seed",
        "expand --seed",
    ],
)
def test_negative_seeds_are_a_one_line_config_error(tmp_path, capsys, stage, overrides, argv):
    cfg = tiny_config(tmp_path, **overrides)
    capsys.readouterr()
    assert run(stage, "--config", cfg, "--out", tmp_path / "run", *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "stage, target, code",
    [
        ("synth", None, cli.EXIT_CONFIG),
        ("pretrain", "data/source_0_train.csv", cli.EXIT_IO),
        ("expand", OutputLayout(Path()).original_model(0), cli.EXIT_IO),
    ],
    ids=["config", "data csv", "model file"],
)
def test_non_utf8_input_is_a_one_line_error(tmp_path, capsys, stage, target, code):
    cfg, out = pipeline_through_pretrain(tmp_path)
    path = cfg if target is None else out / target
    raw = path.read_bytes()
    path.write_bytes(raw[:10] + b"\xff" + raw[10:])
    capsys.readouterr()
    assert run(stage, "--config", cfg, "--out", out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _replace_cell(lines, line, column, text):
    cells = lines[line - 1].split(",")
    cells[column] = text
    lines[line - 1] = ",".join(cells)
    return lines


@pytest.mark.parametrize(
    "corrupt, line, says",
    [
        (
            lambda lines: _replace_cell(lines, 3, 0, "banana"),
            3,
            ": non-numeric feature cell 'banana'",
        ),
        (
            lambda lines: _replace_cell(lines, 4, -1, "1.0"),
            4,
            ": label '1.0' is not an integer that fits in int64",
        ),
        (
            lambda lines: _replace_cell(lines, 3, -1, "99999999999999999999"),
            3,
            ": label '99999999999999999999' is not an integer that fits in int64",
        ),
        (
            lambda lines: lines[:3] + [lines[3] + ",0.5"] + lines[4:],
            4,
            ": expected 5 values, found 6",
        ),
        (
            lambda lines: [lines[0]] + [line + ",0" for line in lines[1:]],
            2,
            ": expected 5 values, found 6",
        ),
        (lambda lines: lines[:3] + [""] + lines[3:], 4, ": expected 5 values, found 0"),
        # None: the last line
        (lambda lines: lines + [""], None, ": expected 5 values, found 0"),
        (
            lambda lines: lines[:2] + ["#" + lines[2]] + lines[3:],
            3,
            ": non-numeric feature cell '#",
        ),
        (lambda lines: lines[:1], 2, " has a header but no data rows"),
    ],
    ids=[
        "non-numeric cell",
        "non-integer label",
        "label beyond int64",
        "ragged row",
        "every row too long",
        "blank line",
        "trailing blank line",
        "comment row",
        "header only",
    ],
)
def test_malformed_data_csv_is_a_one_line_error_naming_the_line(
    tmp_path, capsys, corrupt, line, says
):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    path = out / "data" / "source_1_train.csv"
    lines = corrupt(path.read_text().splitlines())
    line = line or len(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: {path}{says}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "stage, overrides",
    [
        ("pretrain", {"pretrain": {"learning_rate": 1e30}}),
        ("expand", {"expansion": {"learning_rate": 1e200}}),
    ],
)
def test_diverged_training_is_a_one_line_numeric_error(tmp_path, capsys, stage, overrides):
    _, out = pipeline_through_pretrain(tmp_path)
    cfg = tiny_config(tmp_path, **overrides)
    capsys.readouterr()
    assert run(stage, "--config", cfg, "--out", out) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("stage", ["evaluate", "gradcheck"])
def test_seed_is_refused_by_stages_without_randomness(tmp_path, capsys, stage):
    with pytest.raises(SystemExit) as exc:
        run(stage, "--out", tmp_path / "run", "--seed", 7)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "bad_data, says",
    [
        ({"source_shift_sigmas": [0.5]}, "rotation and shift lists must have equal length"),
        (
            {"source_rotations_deg": [10.0], "source_shift_sigmas": [0.5]},
            "need at least two source domains, got 1",
        ),
        ({"feature_dim": 1}, "feature_dim must be >= 2, got 1"),
        (
            {
                "feature_dim": 1,
                "source_rotations_deg": [0.0, 0.0, 0.0],
                "source_shift_sigmas": [0.5, 1.25, 2.0],
            },
            "feature_dim must be >= 2, got 1",
        ),
        ({"samples_per_class": 1}, "samples_per_class must be >= 2, got 1"),
        ({"mean_scale": -1.0}, "mean_scale must be >= 0, got -1.0"),
        ({"mean_scale": -0.0}, "mean_scale must be >= 0, got -0.0"),
        ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
        ({"feature_dim": 0}, "feature_dim must be >= 2, got 0"),
    ],
    ids=[
        "unequal lists",
        "one source",
        "feature_dim below two",
        "feature_dim below two without rotation",
        "one sample per class",
        "negative mean scale",
        "negative zero mean scale",
        "one class",
        "no feature",
    ],
)
def test_every_stage_refuses_a_bad_data_section(tmp_path, capsys, bad_data, says):
    _, out = pipeline_through_pretrain(tmp_path)
    cfg = tiny_config(tmp_path, data=bad_data)
    for stage in ("synth", "pretrain", "expand", "evaluate", "gradcheck"):
        capsys.readouterr()
        assert run(stage, "--config", cfg, "--out", out) == cli.EXIT_CONFIG, stage
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err, stage


# Sizes of 10**20 make arrays numpy cannot index on any machine: the config
# is refused when it loads, before any stage allocates.
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("data", "num_classes", 10**20),
        ("data", "feature_dim", 10**20),
        ("data", "samples_per_class", 10**20),
        ("model", "hidden_units", [10**20]),
    ],
    ids=["num_classes", "feature_dim", "samples_per_class", "hidden_units"],
)
def test_every_stage_refuses_a_size_no_array_can_hold(tmp_path, capsys, section, key, value):
    _, out = pipeline_through_pretrain(tmp_path)
    cfg = tiny_config(tmp_path, **{section: {key: value}})
    for stage in ("synth", "pretrain", "expand", "evaluate", "gradcheck"):
        capsys.readouterr()
        assert run(stage, "--config", cfg, "--out", out) == cli.EXIT_CONFIG, stage
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{section}.{key} " in err and "numpy's limit" in err, stage


@pytest.mark.parametrize(
    "key, value",
    [
        ("lam", -1.0),
        ("temperature", 0.0),
        ("weight_temperature", 0.0),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("epochs", -1),
    ],
)
def test_expand_refuses_a_bad_expansion_hyperparameter(tmp_path, capsys, key, value):
    _, out = pipeline_through_pretrain(tmp_path)
    cfg = tiny_config(tmp_path, expansion={key: value})
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid section 'expansion': {key} must be ")
    assert err.count("\n") == 1
    assert not OutputLayout(out).expanded_dir.exists()


@pytest.mark.parametrize(
    "key, value, says",
    [
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
    ],
)
def test_pretrain_refuses_a_bad_knob_by_name_and_value(tmp_path, capsys, key, value, says):
    cfg = tiny_config(tmp_path, pretrain={key: value})
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid section 'pretrain': {says}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "bad_data, named",
    [({"mean_scale": 1e308}, "data.mean_scale 1e+308")],
    ids=["mean scale"],
)
def test_synth_refuses_scales_whose_features_overflow(tmp_path, capsys, bad_data, named):
    cfg = tiny_config(tmp_path, data=bad_data)
    capsys.readouterr()
    assert run("synth", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1


@pytest.mark.parametrize("feature_dim", [2, 10])
def test_the_largest_finite_shift_leaves_the_features_finite(tmp_path, capsys, feature_dim):
    """Only the class means can overflow: rotations keep norms and a shift is
    at most its finite sigma long. At this config a mean_scale of 3e153 is
    accepted and 1e154 overflows the means."""
    widest = {"feature_dim": feature_dim, "source_shift_sigmas": [0.5, 1.7976931348623157e308]}
    cfg, out = tiny_config(tmp_path, data={**widest, "mean_scale": 3e153}), tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == cli.EXIT_OK
    features = [data.load_csv(path).features for path in OutputLayout(out).data_dir.glob("*.csv")]
    assert all(np.isfinite(f).all() for f in features)
    assert max(np.abs(f).max() for f in features) > 1e307

    cfg = tiny_config(tmp_path, data={**widest, "mean_scale": 1e154})
    capsys.readouterr()
    assert run("synth", "--config", cfg, "--out", tmp_path / "refused") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: data.mean_scale 1e+154 overflows the class means\n"


def test_repeated_evaluate_methods_are_a_one_line_config_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path, evaluate={"methods": ["m1", "m1", "baseline"]})
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        "error: invalid section 'evaluate': "
        "fusion methods listed more than once: ['m1', 'm1', 'baseline']\n"
    )


def test_parser_requires_out(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synth"])
    capsys.readouterr()


def run_python(script, *argv, **environ):
    """Run script in a fresh interpreter that imports domex from this tree; return its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", script, *map(str, argv)]
    return subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout


# The whole-set forwards run in 64-row chunks, which the installed OpenBLAS
# computes on its single-threaded small-matrix path, so the default config's
# expanded models get the same bits under 1 and 2 threads; one product over
# the 700-row new set would not. OpenBLAS reads the variable when it loads,
# hence the subprocesses.
def test_expanded_models_do_not_depend_on_the_blas_thread_count(tmp_path):
    script = (
        "import sys\n"
        "from domex import cli\n"
        "for stage in ('synth', 'pretrain', 'expand'):\n"
        "    if cli.main([stage, '--out', sys.argv[1]]):\n"
        "        sys.exit(stage + ' failed')\n"
    )
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        run_python(script, out, OPENBLAS_NUM_THREADS=threads)
        digests.append(
            {
                path.relative_to(out).as_posix(): sha256_file(path)
                for part in ("models", "expanded")
                for path in sorted((out / part).iterdir())
            }
        )
    assert len(digests[0]) == 3 + 4  # 3 original, 3 updated models and the log
    assert digests[0] == digests[1]


# The same at the benchmark's wide shape, 256 features into the default 1000
# hidden units, on 140-row train and new sets: every CSV spans several of
# write_csv's blocks, and one product over a whole set, in place of 64-row
# chunks, would give other bits under 2 threads here.
def test_a_wide_run_does_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = tiny_config(
        tmp_path,
        data={"feature_dim": 256, "num_classes": 10, "samples_per_class": 20, "mean_scale": 0.3},
        model={"hidden_units": [1000]},
        pretrain={"epochs": 1},
        expansion={"epochs": 1},
        gradcheck={"seeds": [0]},
    )
    script = (
        "import sys\n"
        "from domex import cli\n"
        "for stage in ('synth', 'pretrain', 'expand', 'evaluate', 'gradcheck'):\n"
        "    if cli.main([stage, '--out', sys.argv[1], '--config', sys.argv[2]]):\n"
        "        sys.exit(stage + ' failed')\n"
    )
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        run_python(script, out, cfg, OPENBLAS_NUM_THREADS=threads)
        written.append(digests(out))
    # 6 CSVs, 2 original and 2 updated models, the training log, 2 evaluation
    # files, the gradcheck report and 5 manifests
    assert len(written[0]) == 19
    assert written[0] == written[1]


# The import is every invocation's start-up: it loads numpy.random, which four
# of the five stages use, and no stage then loads a module on top of it, such
# as scipy, numpy.ma (which np.unique pulls in) or gzip (which np.loadtxt
# pulls in when given a path).
def test_stages_run_on_numpy_alone(tmp_path):
    script = (
        "import json, sys\n"
        "from domex import cli\n"
        "loaded = [sorted(sys.modules)]\n"
        "for stage in ('synth', 'pretrain', 'expand', 'evaluate', 'gradcheck'):\n"
        "    if cli.main([stage, '--out', sys.argv[1], '--config', sys.argv[2]]):\n"
        "        sys.exit(stage + ' failed')\n"
        "loaded.append(sorted(sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    out = run_python(script, tmp_path / "run", tiny_config(tmp_path))
    after_import, after_stages = map(set, json.loads(out.splitlines()[-1]))
    assert "numpy.random" in after_import
    assert sorted({"scipy", "numpy.ma"} & after_stages) == []
    assert sorted(after_stages - after_import) == []


# The benchmark runs every stage of a pass in one interpreter, as cli.main
# calls; a user runs one stage per process. Both must write the same bytes.
def test_one_interpreter_and_one_process_per_stage_write_the_same_files(tmp_path):
    cfg = tiny_config(tmp_path, gradcheck={"seeds": [0]})
    stages = ("synth", "pretrain", "expand", "evaluate", "gradcheck")

    def argv(stage, out):
        seed = ["--seed", "3"] if stage in ("synth", "pretrain", "expand") else []
        return [stage, "--out", out, "--config", cfg, *seed]

    together, apart = tmp_path / "together", tmp_path / "apart"
    script = (
        "import json, sys\n"
        "from domex import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if cli.main(argv):\n"
        "        sys.exit(argv[0] + ' failed')\n"
    )
    run_python(script, json.dumps([list(map(str, argv(s, together))) for s in stages]))
    one_stage = "import sys\nfrom domex import cli\nsys.exit(cli.main(sys.argv[1:]))"
    for stage in stages:
        run_python(one_stage, *argv(stage, apart))
    written = digests(together)
    # 6 CSVs, 4 models and the training log, 2 evaluation files, the
    # gradcheck report and 5 manifests
    assert len(written) == 19
    assert written == digests(apart)
