"""End-to-end subcommand behavior, exit codes, and manifest audits."""

import base64
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domex import checks, cli, data, nn
from domex.config import OutputLayout, sha256_file


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


def prob_model(probs, input_dim):
    b = np.log(np.asarray(probs, dtype=np.float64))
    return nn.MlpModel(
        [nn.DenseLayer(np.zeros((b.size, input_dim)), b, "identity")],
        input_dim,
        b.size,
    )


def write_domain_csvs(layout, datasets):
    layout.data_dir.mkdir(parents=True, exist_ok=True)
    for (domain, part), ds in datasets.items():
        data.write_csv(ds, layout.domain_csv(domain, part))


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


def test_synth_can_standardize(tmp_path):
    cfg = tiny_config(tmp_path, data={"standardize": True})
    out = tmp_path / "run"
    assert run("synth", "--config", cfg, "--out", out) == 0
    train = data.load_csv(out / "data" / "source_0_train.csv")
    assert np.max(np.abs(train.features.mean(axis=0))) <= 1e-9


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


def test_pretrain_reaches_high_accuracy_on_separable_domains(tmp_path):
    out = tmp_path / "run"
    separable_sources(OutputLayout(out))
    cfg = separable_config(tmp_path)
    assert run("pretrain", "--config", cfg, "--out", out) == 0

    for i in range(2):
        model = nn.load_model(out / "models" / f"original_{i}.json")
        train = data.load_csv(out / "data" / f"source_{i}_train.csv")
        logits, _ = nn.forward_logits(model, train.features)
        acc = float(np.mean(np.argmax(logits, axis=1) == train.labels))
        assert acc >= 0.99


def test_pretrain_zero_epochs_ignores_the_data(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    separable_sources(OutputLayout(out_a), seed=1)
    separable_sources(OutputLayout(out_b), seed=99)  # different data, same shape
    cfg = separable_config(tmp_path, pretrain={"epochs": 0})
    assert run("pretrain", "--config", cfg, "--out", out_a) == 0
    assert run("pretrain", "--config", cfg, "--out", out_b) == 0
    for i in range(2):
        assert sha256_file(out_a / "models" / f"original_{i}.json") == sha256_file(
            out_b / "models" / f"original_{i}.json"
        )


def test_pretrain_forwards_only_for_sgd_steps_at_default_log_level(tmp_path, monkeypatch):
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


def test_pretrain_logs_train_accuracy_at_info_level(tmp_path, caplog):
    out = tmp_path / "run"
    separable_sources(OutputLayout(out))
    cfg = separable_config(tmp_path)
    # The root logger already has pytest's handlers here, as it would in a
    # host application, so --log-level must not rely on logging.basicConfig.
    package_logger = logging.getLogger("domex")
    prior = package_logger.level
    try:
        assert run("pretrain", "--config", cfg, "--out", out, "--log-level", "info") == 0
    finally:
        package_logger.setLevel(prior)
    for i in range(2):
        assert f"source_{i} train accuracy 1.0000" in caplog.text


def test_pretrain_rejects_disagreeing_label_sets(tmp_path):
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
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_CONFIG


def test_pretrain_without_data_is_an_io_error(tmp_path):
    cfg = tiny_config(tmp_path)
    assert run("pretrain", "--config", cfg, "--out", tmp_path / "nowhere") == cli.EXIT_IO


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
        original = nn.load_model(out / "models" / f"original_{i}.json")
        updated = nn.load_model(out / "expanded" / f"updated_{i}.json")
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
    path = out / "models" / "original_0.json"
    doc = json.loads(path.read_text())
    theta = base64.b64decode(doc["theta"])
    doc["theta"] = base64.b64encode(theta[:-8]).decode()  # one value short
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("expand", "--config", cfg, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
        layout.new_unlabelled_csv,
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


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_matches_hand_computed_confusion(tmp_path):
    out = tmp_path / "run"
    layout = OutputLayout(out)
    layout.models_dir.mkdir(parents=True)
    layout.expanded_dir.mkdir(parents=True)
    layout.data_dir.mkdir(parents=True)

    # two constant classifiers: their average always predicts class 1
    model_a = prob_model([0.6, 0.3, 0.1], input_dim=2)
    model_b = prob_model([0.2, 0.7, 0.1], input_dim=2)
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
    OutputLayout(out).new_unlabelled_csv.unlink()
    assert run("evaluate", "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "evaluate_manifest.json").read_text())
    assert not any(p.endswith("new_unlabelled.csv") for p in manifest["inputs"])
    report = json.loads(OutputLayout(out).report_json.read_text())
    assert {tuple(sorted(r)) for r in report["reports"]} == {
        ("expanded_accuracy", "method", "per_domain_accuracy")
    }


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
    assert capsys.readouterr().err == "error: labels reach 7 but num_classes is 3\n"
    for i in range(2):
        path = OutputLayout(out).domain_csv(f"source_{i}", "train")
        train = data.load_csv(path)
        train.labels[0] = 7
        data.write_csv(train, path)
    assert run("pretrain", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: labels reach 7 but num_classes is 3\n"


def test_evaluate_without_test_sets_is_an_io_error(tmp_path):
    cfg = tiny_config(tmp_path)
    assert run("evaluate", "--config", cfg, "--out", tmp_path / "run") == cli.EXIT_IO


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


def test_gradcheck_failure_exits_with_numeric_code(tmp_path, monkeypatch):
    def fake_suite(seeds):
        return [checks.CheckResult("bias", 0, max_error=1.0)]

    monkeypatch.setattr(cli.checks, "run_gradient_suite", fake_suite)
    assert run("gradcheck", "--out", tmp_path / "run") == cli.EXIT_NUMERIC


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
        ("expand", "models/original_0.json", cli.EXIT_IO),
    ],
    ids=["config", "data csv", "model json"],
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
    "corrupt, line",
    [
        (lambda lines: _replace_cell(lines, 3, 0, "banana"), 3),
        (lambda lines: _replace_cell(lines, 4, -1, "1.0"), 4),
        (lambda lines: lines[:3] + [lines[3] + ",0.5"] + lines[4:], 4),
        (lambda lines: [lines[0]] + [line + ",0" for line in lines[1:]], 2),
        (lambda lines: lines[:3] + [""] + lines[3:], 4),
        (lambda lines: lines + [""], None),  # None: the last line
        (lambda lines: lines[:2] + ["#" + lines[2]] + lines[3:], 3),
        (lambda lines: lines[:1], 2),
    ],
    ids=[
        "non-numeric cell",
        "non-integer label",
        "ragged row",
        "every row too long",
        "blank line",
        "trailing blank line",
        "comment row",
        "header only",
    ],
)
def test_malformed_data_csv_is_a_one_line_error_naming_the_line(
    tmp_path, capsys, corrupt, line
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
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


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
    "bad_data",
    [
        {"source_shift_sigmas": [0.5]},
        {"noise_std": 0.0},
        {"source_rotations_deg": [10.0], "source_shift_sigmas": [0.5]},
        {"feature_dim": 1},
        {"samples_per_class": 1},
        {"samples_per_class": 2, "train_fraction": 0.95},
    ],
    ids=[
        "unequal lists",
        "zero noise",
        "one source",
        "rotation in one dimension",
        "one sample per class",
        "no test sample",
    ],
)
def test_every_stage_refuses_a_bad_data_section(tmp_path, capsys, bad_data):
    _, out = pipeline_through_pretrain(tmp_path)
    cfg = tiny_config(tmp_path, data=bad_data)
    for stage in ("synth", "pretrain", "expand", "evaluate", "gradcheck"):
        capsys.readouterr()
        assert run(stage, "--config", cfg, "--out", out) == cli.EXIT_CONFIG, stage
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
