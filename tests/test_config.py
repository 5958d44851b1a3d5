"""Config parsing, the output layout, and stage manifests."""

import json
from dataclasses import asdict

import numpy as np

import pytest

from domex import config, data
from domex.errors import ConfigError


def test_defaults_load_without_a_file():
    cfg = config.load_config(None)
    assert cfg == config.RunConfig()
    assert cfg.data.num_sources == 3
    assert cfg.evaluate.methods == ["baseline", "m1", "m2"]


def test_round_trip_through_asdict(tmp_path):
    cfg = config.RunConfig()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(asdict(cfg)))
    assert config.load_config(path) == cfg


def test_partial_config_keeps_other_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"expansion": {"lam": 2.5, "epochs": 1}}))
    cfg = config.load_config(path)
    assert cfg.expansion.lam == 2.5
    assert cfg.expansion.epochs == 1
    assert cfg.expansion.temperature == 3.0
    assert cfg.data == config.DataConfig()


@pytest.mark.parametrize(
    "raw",
    [
        {"surprise": {}},
        {"data": {"does_not_exist": 1}},
        {"data": 7},
        {"pretrain": {"epochs": -1}},
        {"expansion": {"temperature": 0.0}},
        {"evaluate": {"methods": ["bogus"]}},
        {"gradcheck": {"seeds": []}},
        {"model": {"hidden_units": [0]}},
        # Deleted keys are refused as unknown, even at their old defaults.
        {"data": {"train_fraction": 0.70}},
        {"expansion": {"epochs": 2.5}},
        {"pretrain": {"batch_size": 1.5}},
        {"data": {"num_classes": 2.0}},
        {"expansion": {"lam": float("nan")}},
        {"model": {"hidden_units": "12"}},
        {"evaluate": {"methods": []}},
        {"pretrain": {"momentum": -0.5}},
        {"expansion": {"momentum": -1.0}},
        {"expansion": {"entropy_at_alignment_temperature": True}},
        {"evaluate": {"methods": ["m1", "m1", "baseline"]}},
        {"data": {"source_shift_sigmas": [0.5, 1.25]}},
        {"data": {"noise_std": 1.0}},
        {"data": {"source_rotations_deg": [15.0], "source_shift_sigmas": [0.5]}},
        {"data": {"feature_dim": 1}},
        {"data": {"mean_scale": -1.0}},
        {"data": {"seed": -1}},
        {"pretrain": {"seed": -1}},
        {"expansion": {"seed": -1}},
        {"gradcheck": {"seeds": [0, -1]}},
        {"gradcheck": {"seeds": [0, 1, 0]}},
    ],
)
def test_bad_configs_are_rejected(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        config.load_config(path)


def test_config_must_be_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("{oops")
    with pytest.raises(ConfigError):
        config.load_config(path)


def test_data_config_matches_benchmark_defaults():
    synth, new_t = data.make_benchmark()
    assert synth == config.DataConfig()
    assert synth.num_classes == 5
    assert synth.feature_dim == 10
    assert synth.mean_scale == 1.5
    assert synth.num_sources == 3
    assert np.linalg.norm(new_t.translation) > 0
    assert data.TRAIN_FRACTION == 0.70


def test_output_layout_paths(tmp_path):
    layout = config.OutputLayout(tmp_path / "run")
    assert layout.domain_csv("source_0", "train").name == "source_0_train.csv"
    assert layout.original_model(2).name == "original_2.model"
    assert layout.updated_model(0).parent.name == "expanded"
    assert layout.new_unlabelled_csv.parent == layout.data_dir
    assert layout.manifest("synth").name == "synth_manifest.json"


def test_sha256_file_known_digest(tmp_path):
    path = tmp_path / "abc.bin"
    path.write_bytes(b"abc")
    assert (
        config.sha256_file(path)
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_manifest_round_trip_is_stable(tmp_path):
    layout = config.OutputLayout(tmp_path)
    produced = tmp_path / "data" / "out.csv"
    produced.parent.mkdir()
    produced.write_text("f0\n1.0\n")
    cfg = config.RunConfig()

    config.write_manifest(layout, "synth", cfg, [tmp_path / "cfg.json"], [produced])
    first = layout.manifest("synth").read_bytes()
    doc = json.loads(first)
    assert doc["stage"] == "synth"
    assert doc["config"] == asdict(cfg)
    assert doc["outputs"] == [
        {"path": "data/out.csv", "sha256": config.sha256_file(produced)}
    ]
    assert set(doc) == {"stage", "config", "inputs", "outputs"}  # no timestamps

    config.write_manifest(layout, "synth", cfg, [tmp_path / "cfg.json"], [produced])
    assert layout.manifest("synth").read_bytes() == first


def test_a_repeated_gradcheck_seed_is_refused_with_the_list():
    # a repeated seed would rerun an identical sweep and write duplicate rows
    with pytest.raises(ConfigError, match=r"^seeds listed more than once: \[0, 1, 0\]$"):
        config.GradcheckConfig(seeds=[0, 1, 0])
