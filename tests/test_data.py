"""CSV ingestion, splits, the synthetic domain generator, and standardization."""

import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from domex import data, expansion, fusion, nn
from domex.errors import ConfigError, InputError, ParseError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def model_accuracy(model, ds):
    logits, _ = nn.forward_logits(model, ds.features)
    return float(np.mean(np.argmax(logits, axis=1) == ds.labels))


def quick_fit(ds, hidden, epochs, rng):
    classes = int(ds.labels.max()) + 1
    model = nn.init_mlp(ds.dim, [hidden], classes, rng)
    return nn.fit_classifier(
        model, ds.features, ds.labels, epochs, 32, nn.OptimizerState(0.05, 0.9), rng
    )


# ---------------------------------------------------------------------------
# DomainDataset


def test_dataset_validation():
    with pytest.raises(InputError):
        data.DomainDataset("d", np.zeros((0, 3)))
    with pytest.raises(InputError):
        data.DomainDataset("d", np.array([[1.0, np.inf]]))
    with pytest.raises(InputError):
        data.DomainDataset("d", np.zeros((2, 2)), np.array([0]))
    with pytest.raises(InputError):
        data.DomainDataset("d", np.zeros((2, 2)), np.array([0, -1]))


def test_dataset_take_keeps_alignment():
    ds = data.DomainDataset("d", np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))
    sub = ds.take(np.array([2, 1]))
    assert np.array_equal(sub.features, np.array([[4.0, 5.0], [2.0, 3.0]]))
    assert sub.labels.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# CSV round trips


def test_load_csv_minimal_labelled(tmp_path):
    path = tmp_path / "tiny.csv"
    write_lines(path, ["f0,f1,label", "0.5,-1.25,0", "2.0,3.5,1"])
    ds = data.load_csv(path)
    assert ds.n == 2 and ds.dim == 2 and ds.labelled
    assert np.array_equal(ds.features, np.array([[0.5, -1.25], [2.0, 3.5]]))
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_without_label_column(tmp_path):
    path = tmp_path / "plain.csv"
    write_lines(path, ["f0,f1", "0.5,-1.25", "2.0,3.5"])
    ds = data.load_csv(path)
    assert not ds.labelled and ds.labels is None


def test_load_csv_ragged_row_names_the_line(tmp_path):
    path = tmp_path / "ragged.csv"
    write_lines(path, ["f0,f1", "1.0,2.0", "1.0,2.0,3.0"])
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_load_csv_other_malformed_inputs(tmp_path):
    bad_cell = tmp_path / "cell.csv"
    write_lines(bad_cell, ["f0,f1", "1.0,banana"])
    with pytest.raises(ParseError):
        data.load_csv(bad_cell)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        data.load_csv(empty)

    header_only = tmp_path / "header.csv"
    write_lines(header_only, ["f0,f1,label"])
    with pytest.raises(ParseError):
        data.load_csv(header_only)


@pytest.mark.parametrize(
    "lines, line",
    [
        (["f0,f1", "1.0,2.0", "1.0,banana"], 3),
        (["f0,f1", "1,2,3", "4,5,6"], 2),
        (["f0,f1,label", "1,2", "3,4"], 2),
        (["f0,f1", "1,2,3", "4,5"], 2),
        (["f0,label", "1.0,0", "2.0,3.0"], 3),
        (["f0,label", "1.0,1e0"], 2),
        (["f0,f1", "1,2", "", "3,4"], 3),
        (["f0,f1", "1,2", ""], 3),
        (["f0,f1", "1,2", "   "], 3),
        (["f0,f1", "1,2", "#3,4"], 3),
        (["f0,f1,label"], 2),
        (["", "1,2"], 1),
    ],
    ids=[
        "non-numeric cell",
        "every row too long",
        "every row too short",
        "first row too long",
        "label 3.0",
        "label 1e0",
        "blank line in the body",
        "trailing blank line",
        "whitespace line",
        "comment row",
        "header only",
        "blank header",
    ],
)
def test_load_csv_names_the_malformed_line(tmp_path, lines, line):
    path = tmp_path / "bad.csv"
    write_lines(path, lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            data.load_csv(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


def test_load_csv_reads_quoted_cells_and_crlf_line_ends(tmp_path):
    path = tmp_path / "dialect.csv"
    path.write_bytes(b'"f0", "f1" ,"label"\r\n"1.5",-2.0,"3"\r\n4.0, 5.0 , 0\r\n')
    ds = data.load_csv(path)
    assert np.array_equal(ds.features, np.array([[1.5, -2.0], [4.0, 5.0]]))
    assert ds.labels.tolist() == [3, 0]


@pytest.mark.parametrize("n, d", [(1, 3), (4, 1), (1, 1)])
@pytest.mark.parametrize("labelled", [False, True])
def test_load_csv_keeps_the_matrix_shape(tmp_path, n, d, labelled):
    rng = np.random.default_rng(n + d)
    labels = rng.integers(0, 3, size=n) if labelled else None
    ds = data.DomainDataset("small", rng.normal(size=(n, d)), labels)
    path = tmp_path / "small.csv"
    data.write_csv(ds, path)
    back = data.load_csv(path)
    assert back.features.shape == (n, d)
    assert back.features.dtype == np.float64 and back.features.flags.c_contiguous
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labelled == labelled
    if labelled:
        assert back.labels.dtype == np.int64 and back.labels.tolist() == labels.tolist()


# numpy's parsers are narrower than float() and int(): they refuse digit-group
# underscores and non-ASCII digits, and an int64 label parses or is refused.
@pytest.mark.parametrize(
    "row", ["1_0,0", "\u0661,0", "1.0,1_0", "1.0,99999999999999999999"]
)
def test_load_csv_refuses_cells_numpy_cannot_parse(tmp_path, row):
    path = tmp_path / "narrow.csv"
    write_lines(path, ["f0,label", "1.0,0", row])
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.line == 3


def test_load_csv_memory_follows_the_file_size(tmp_path):
    ds = data.DomainDataset("wide", np.ones((2, 64)), np.array([0, 1]))
    path = tmp_path / "wide.csv"
    data.write_csv(ds, path)
    tracemalloc.start()
    try:
        data.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 35 kB; a header parse that sized its buffer for numpy's default
    # chunk of 50000 rows would take 26 MB here.
    assert peak < 1 << 20


def test_write_csv_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "domain.csv"
    data.write_csv(data.DomainDataset("old", np.zeros((2, 2)), np.array([0, 1])), path)
    before = path.read_bytes()
    newer = data.DomainDataset("new", np.ones((3, 2)), np.array([1, 0, 1]))

    def half_written(self, text):
        Path.write_bytes(self, text[: len(text) // 2].encode())
        raise OSError("no space left on device")

    def failed_replace(src, dst):
        raise OSError("replace failed")

    for target, name, failure in (
        (Path, "write_text", half_written),
        (os, "replace", failed_replace),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, name, failure)
            with pytest.raises(OSError):
                data.write_csv(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["domain.csv"]


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = data.DomainDataset(
        "round", rng.normal(size=(9, 4)), rng.integers(0, 3, size=9)
    )
    path = tmp_path / "round.csv"
    data.write_csv(ds, path)
    back = data.load_csv(path)
    assert np.array_equal(back.features, ds.features)  # repr() survives re-parsing
    assert np.array_equal(back.labels, ds.labels)

    bare = tmp_path / "bare.csv"
    data.write_csv(data.DomainDataset("bare", ds.features), bare)
    assert not data.load_csv(bare).labelled


def test_csv_writes_extreme_values_as_per_scalar_repr(tmp_path):
    values = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308, 0.30000000000000004],
         [0.1, -5e-324, -1.7976931348623157e308, 2.0**-1022]]
    )
    ds = data.DomainDataset("extreme", values, np.array([0, 7]))
    path = tmp_path / "extreme.csv"
    data.write_csv(ds, path)
    # The reference formula: one repr(float(v)) per numpy scalar.
    expected = ["f0,f1,f2,f3,label"] + [
        ",".join([repr(float(v)) for v in ds.features[i]] + [str(int(ds.labels[i]))])
        for i in range(ds.n)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    back = data.load_csv(path)
    assert back.features.tobytes() == values.tobytes()
    assert np.signbit(back.features[0, 0])
    assert back.labels.tolist() == [0, 7]


# ---------------------------------------------------------------------------
# split


def test_split_seventy_thirty_single_class():
    ds = data.DomainDataset("d", np.arange(20.0).reshape(10, 2), np.zeros(10, dtype=int))
    train, test = data.split(ds, data.SplitSpec(seed=1))
    assert (train.n, test.n) == (7, 3)
    merged = np.sort(np.concatenate([train.features[:, 0], test.features[:, 0]]))
    assert np.array_equal(merged, ds.features[:, 0])


def test_split_is_deterministic():
    rng = np.random.default_rng(2)
    ds = data.DomainDataset("d", rng.normal(size=(30, 3)), rng.integers(0, 3, size=30))
    a_train, a_test = data.split(ds, data.SplitSpec(seed=9))
    b_train, b_test = data.split(ds, data.SplitSpec(seed=9))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_split_stratifies_both_classes():
    rng = np.random.default_rng(3)
    ds = data.DomainDataset(
        "d", rng.normal(size=(10, 2)), np.repeat([0, 1], 5)
    )
    train, test = data.split(ds, data.SplitSpec(seed=4))
    assert (train.n, test.n) == (7, 3)
    for cls in (0, 1):
        got = int(np.sum(train.labels == cls)), int(np.sum(test.labels == cls))
        assert got in ((4, 1), (3, 2))
        assert sum(got) == 5


def test_split_singleton_class_goes_to_train(caplog):
    ds = data.DomainDataset(
        "d", np.arange(12.0).reshape(6, 2), np.array([0, 0, 0, 0, 0, 1])
    )
    with caplog.at_level("WARNING", logger="domex.data"):
        train, test = data.split(ds, data.SplitSpec(seed=5))
    assert 1 in train.labels and 1 not in test.labels
    assert any("single" in rec.message for rec in caplog.records)


def test_split_rejects_degenerate_inputs():
    one = data.DomainDataset("d", np.zeros((1, 2)), np.array([0]))
    with pytest.raises(InputError):
        data.split(one, data.SplitSpec())
    with pytest.raises(ConfigError):
        data.SplitSpec(train_fraction=1.0)


# ---------------------------------------------------------------------------
# synthetic domains


def test_generate_domains_counts_names_reproducibility():
    cfg, new_t = data.make_benchmark(num_classes=3, feature_dim=5, samples_per_class=20)
    domains = data.generate_domains(cfg, 3, new_t)
    assert [d.name for d in domains] == ["source_0", "source_1", "source_2", "new"]
    for ds in domains:
        assert ds.n == 60
        assert np.array_equal(np.bincount(ds.labels), [20, 20, 20])

    again = data.generate_domains(cfg, 3, new_t)
    for a, b in zip(domains, again):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_generate_domains_rejects_bad_setups():
    cfg, new_t = data.make_benchmark(num_classes=3, feature_dim=5, samples_per_class=10)
    with pytest.raises(ConfigError):
        data.generate_domains(cfg, 1, new_t)
    with pytest.raises(ConfigError):
        data.make_benchmark(source_rotations_deg=(10.0,), source_shift_sigmas=(1.0, 2.0))


def test_identity_transforms_leave_domains_interchangeable():
    cfg, new_t = data.make_benchmark(
        seed=6,
        source_rotations_deg=[0.0, 0.0, 0.0],
        source_shift_sigmas=[0.0, 0.0, 0.0],
        new_shift_sigma=0.0,
    )
    domains = data.generate_domains(cfg, 3, new_t)
    model = quick_fit(domains[0], hidden=16, epochs=10, rng=np.random.default_rng(7))
    accs = [model_accuracy(model, ds) for ds in domains]
    # identical distributions: at N=1000 per domain the spread stays inside 3%
    assert max(accs) - min(accs) <= 0.03


def test_runaway_source_domain_earns_the_largest_weight():
    cfg, new_t = data.make_benchmark(
        seed=10,
        num_classes=3,
        feature_dim=6,
        samples_per_class=50,
        source_rotations_deg=[0.0, 0.0, 0.0],
        # as far off as +5 sigma on every one of the 6 coordinates
        source_shift_sigmas=[0.0, 0.0, 5.0 * math.sqrt(6.0)],
        new_shift_sigma=0.0,
    )
    domains = data.generate_domains(cfg, 3, new_t)
    rng = np.random.default_rng(11)
    originals = [quick_fit(ds, hidden=16, epochs=10, rng=rng) for ds in domains[:3]]

    hp = expansion.Hyperparams(epochs=3, seed=12)
    ens = expansion.EnsembleState.initialize(originals)
    _, log = expansion.expand(ens, domains[-1].features, hp)
    for round_index in range(1, hp.epochs + 1):
        weights = [r["w_i"] for r in log if r["round"] == round_index]
        assert int(np.argmax(weights)) == 2


def test_benchmark_shift_geometry():
    cfg, new_t = data.make_benchmark(seed=13)
    translations = [t.translation for t in data.benchmark_shifts(cfg)[0]]
    sigmas = (0.5, 1.25, 2.0)
    unit = translations[0] / np.linalg.norm(translations[0])
    for vec, sigma in zip(translations, sigmas):
        assert abs(np.linalg.norm(vec) - sigma * cfg.noise_std) <= 1e-12
        # all source shifts line up along one direction
        assert abs(float(np.dot(vec, unit)) - np.linalg.norm(vec)) <= 1e-9
    # while the new domain moves off at a right angle
    assert abs(float(np.dot(new_t.translation, unit))) <= 1e-9
    assert abs(np.linalg.norm(new_t.translation) - cfg.noise_std) <= 1e-12


# ---------------------------------------------------------------------------
# standardization


def test_standardize_two_pass_oracle_and_constants():
    rng = np.random.default_rng(14)
    features = rng.normal(loc=3.0, scale=2.0, size=(40, 4))
    features[:, 2] = 7.5  # constant column
    train = data.DomainDataset("train", features)
    other = data.DomainDataset("other", rng.normal(size=(10, 4)))

    std_train, (std_other,) = data.standardize(train, [other])
    assert np.all(std_train.features[:, 2] == 0.0)
    assert np.all(std_other.features[:, 2] == 0.0)
    assert np.max(np.abs(std_train.features[:, 0].mean())) <= 1e-12

    # two-pass oracle: the population mean and deviation of train
    mean = features.sum(axis=0) / len(features)
    std = np.sqrt(((features - mean) ** 2).sum(axis=0) / len(features))
    for ds, std_ds in ((train, std_train), (other, std_other)):
        expected = (ds.features[:, [0, 1, 3]] - mean[[0, 1, 3]]) / std[[0, 1, 3]]
        assert np.max(np.abs(std_ds.features[:, [0, 1, 3]] - expected)) <= 1e-12


def test_standardize_is_idempotent_on_its_own_output():
    rng = np.random.default_rng(15)
    train = data.DomainDataset("train", rng.normal(size=(25, 3)))
    once, _ = data.standardize(train)
    twice, _ = data.standardize(once)
    assert np.max(np.abs(once.features.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(twice.features - once.features)) <= 1e-9


def test_standardize_keeps_labels():
    # mean (2, 3) and population deviation (1, 1)
    ds = data.DomainDataset("d", np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]))
    out, _ = data.standardize(ds)
    assert np.array_equal(out.features, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert out.labels.tolist() == [0, 1]
