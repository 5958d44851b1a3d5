"""CSV ingestion, splits and the synthetic domain generator."""

import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from domex import data, expansion, nn
from domex.errors import ConfigError, InputError


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


def test_dataset_refuses_float_and_bool_labels_naming_the_dtype():
    # even integral floats: the engine indexes with labels as it is given them
    for labels in (np.array([0.0, 1.0]), np.array([False, True])):
        with pytest.raises(InputError, match=f"integers, got dtype {labels.dtype}$"):
            data.DomainDataset("d", np.zeros((2, 2)), labels)


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
    with pytest.raises(InputError) as err:
        data.load_csv(path)
    assert str(err.value).startswith("line 3: ")


def test_load_csv_other_malformed_inputs(tmp_path):
    bad_cell = tmp_path / "cell.csv"
    write_lines(bad_cell, ["f0,f1", "1.0,banana"])
    with pytest.raises(InputError):
        data.load_csv(bad_cell)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        data.load_csv(empty)

    header_only = tmp_path / "header.csv"
    write_lines(header_only, ["f0,f1,label"])
    with pytest.raises(InputError):
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
        with pytest.raises(InputError) as err:
            data.load_csv(path)
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
    with pytest.raises(InputError) as err:
        data.load_csv(path)
    assert str(err.value).startswith("line 3: ")


def test_load_csv_memory_follows_the_file_size(tmp_path, traced_peak):
    ds = data.DomainDataset("wide", np.ones((2, 64)), np.array([0, 1]))
    path = tmp_path / "wide.csv"
    data.write_csv(ds, path)
    peak, _ = traced_peak(lambda: data.load_csv(path))
    # About 35 kB; a header parse that sized its buffer for numpy's default
    # chunk of 50000 rows would take 26 MB here.
    assert peak < 1 << 20


def test_load_csv_holds_one_block_of_python_floats_at_a_time(tmp_path, traced_peak):
    ds = data.DomainDataset(
        "tall", np.random.default_rng(0).normal(size=(2000, 64)), np.zeros(2000, np.int64)
    )
    path = tmp_path / "tall.csv"
    data.write_csv(ds, path)
    peak, back = traced_peak(lambda: data.load_csv(path))
    assert back.features.tobytes() == ds.features.tobytes()
    # The parsed blocks and their concatenation, about 2.2 MB; one orjson call
    # for the whole 2.5 MB file would hold 128 000 Python floats and the
    # file's text at once, about 9.3 MB.
    assert peak < 3 * ds.features.nbytes


def test_write_csv_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "domain.csv"
    data.write_csv(data.DomainDataset("old", np.zeros((2, 2)), np.array([0, 1])), path)
    before = path.read_bytes()
    newer = data.DomainDataset("new", np.ones((3, 2)), np.array([1, 0, 1]))

    def half_written(self, content):
        with open(self, "wb") as handle:
            handle.write(content[: len(content) // 2])
        raise OSError("no space left on device")

    def failed_replace(src, dst):
        raise OSError("replace failed")

    for target, name, failure in (
        (Path, "write_bytes", half_written),
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
    assert np.array_equal(back.features, ds.features)  # 17 digits survive re-parsing
    assert np.array_equal(back.labels, ds.labels)

    bare = tmp_path / "bare.csv"
    data.write_csv(data.DomainDataset("bare", ds.features), bare)
    assert not data.load_csv(bare).labelled


def test_csv_writes_extreme_values_as_shortest_round_trip_digits(tmp_path, significant_digits):
    values = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308, 0.30000000000000004],
         [0.1, -5e-324, -1.7976931348623157e308, 2.0**-1022],
         [1e16, 1e-7, 123456789.0, 1.0]]
    )
    ds = data.DomainDataset("extreme", values, np.array([0, 7, 2]))
    path = tmp_path / "extreme.csv"
    data.write_csv(ds, path)
    assert path.read_text() == (
        "f0,f1,f2,f3,label\n"
        "-0.0,5e-324,1.7976931348623157e308,0.30000000000000004,0\n"
        "0.1,-5e-324,-1.7976931348623157e308,2.2250738585072014e-308,7\n"
        "1e16,1e-7,123456789.0,1.0,2\n"
    )
    # Each cell is the float it was written from, in repr's shortest digits.
    for line, row in zip(path.read_text().splitlines()[1:], values.tolist()):
        for cell, v in zip(line.split(",")[:-1], row):
            assert np.float64(cell).tobytes() == np.float64(v).tobytes()
            assert significant_digits(cell) == significant_digits(repr(v))
    back = data.load_csv(path)
    assert back.features.tobytes() == values.tobytes()
    assert np.signbit(back.features[0, 0])
    assert back.labels.tolist() == [0, 7, 2]


def test_csv_reloads_random_bit_patterns_bit_for_bit(tmp_path):
    """10 000 finite doubles drawn as random bit patterns, spread over the
    whole exponent range with subnormals among them, come back from write_csv
    and load_csv with the same bytes."""
    bits = np.random.default_rng(0).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=40_000, dtype=np.int64
    )
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:10_000].reshape(1000, 10)
    assert values.size == 10_000 and (np.abs(values) < np.finfo(np.float64).tiny).any()
    path = tmp_path / "bits.csv"
    data.write_csv(data.DomainDataset("bits", values), path)
    assert data.load_csv(path).features.tobytes() == values.tobytes()


# Finite doubles with the edge cases always in the pool: signed zero, the
# smallest subnormals and the largest magnitudes.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.0**-1022, 1.7976931348623157e308, -1.7976931348623157e308]
)


@st.composite
def drawn_datasets(draw):
    """1-40 rows of 1-20 features in C order, Fortran order or as every other
    column of a wider array, with int64 labels or none."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    layout = draw(st.sampled_from(["C", "Fortran", "column-strided"]))
    width = 2 * cols if layout == "column-strided" else cols
    features = draw(hnp.arrays(np.float64, (rows, width), elements=_FINITE))
    if layout == "Fortran":
        features = np.asfortranarray(features)
    elif layout == "column-strided":
        features = features[:, ::2]
    labels = draw(st.none() | hnp.arrays(np.int64, rows, elements=st.integers(0, 2**63 - 1)))
    return data.DomainDataset("drawn", features, labels)


@settings(derandomize=True, database=None, deadline=None)
@given(ds=drawn_datasets())
def test_csv_reloads_drawn_finite_floats_bit_for_bit(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    data.write_csv(ds, path)
    back = data.load_csv(path)
    assert back.features.tobytes() == np.ascontiguousarray(ds.features).tobytes()
    assert np.array_equal(np.signbit(back.features), np.signbit(ds.features))
    assert back.labelled == ds.labelled
    if ds.labelled:
        assert back.labels.tobytes() == ds.labels.tobytes()


# load_csv against numpy's reader: write_csv's output, which load_csv parses
# with orjson, and every cell, quoting, padding and line end that must send a
# file to numpy's reader instead or be refused with numpy's message.
_DIALECT = dict(delimiter=",", quotechar='"', comments=None)
_HAND_CELLS = [
    "-0", "1E+05", ".5", "5.", "+1", "01", "1e400", "true", "null", "[1]",
    str(2**64), str(2**64 + 1), "1" + "0" * 30, "3.0", "1e0", str(2**63), "1e-0", "-1",
]
# write_csv's edge values, with integer-valued floats among them.
_EDGE_FLOATS = _FINITE | st.sampled_from([1.0, -7.0, 2.0**53, 1e16, 123456789.0])
# Decimals of 1-25 digits with exponents up to 3 digits, in JSON's grammar.
_JSON_DECIMALS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,12})(\.[0-9]{1,12})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
)


def _outcome(path):
    """load_csv's dataset for path, or its InputError's text."""
    try:
        return data.load_csv(path)
    except InputError as exc:
        return str(exc)


def assert_reads_as_numpy_does(path):
    """load_csv reads path to the bits, dtypes and shapes that numpy's reader
    and a direct np.loadtxt give, or raises numpy's reader's InputError text."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(data, "_orjson_body", lambda *args: None)
        want = _outcome(path)
    got = _outcome(path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    with path.open() as handle:
        handle.readline()
        direct = np.loadtxt(handle, ndmin=2, **_DIALECT)
    n = got.dim
    features = np.ascontiguousarray(direct[:, :n])
    for ds in (got, want):
        assert ds.features.dtype == features.dtype and ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labelled == want.labelled
    if want.labelled:
        with path.open() as handle:
            handle.readline()
            labels = np.loadtxt(handle, dtype=np.int64, ndmin=1, usecols=[n], **_DIALECT)
        for ds in (got, want):
            assert ds.labels.dtype == labels.dtype and ds.labels.tobytes() == labels.tobytes()


@st.composite
def edited_csvs(draw):
    """write_csv's text for 1-6 rows of 1-5 edge-valued features, with or
    without labels up to 2**63 - 1, and the edits made to it: cells replaced by
    hand-written or drawn decimals, quoted or padded cells, ragged rows, blank
    lines and CRLF line ends."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    features = draw(hnp.arrays(np.float64, (rows, cols), elements=_EDGE_FLOATS))
    labels = draw(st.none() | hnp.arrays(np.int64, rows, elements=st.integers(0, 2**63 - 1)))
    return data.DomainDataset("drawn", features, labels), draw(st.lists(
        st.tuples(
            st.sampled_from(["cell", "quote", "pad", "drop", "extra", "blank", "crlf"]),
            st.integers(0, rows - 1),
            st.integers(0, cols),
            st.sampled_from(_HAND_CELLS) | _JSON_DECIMALS,
        ),
        max_size=3,
    ))


def apply_edits(text, edits):
    lines = [line.split(",") for line in text.splitlines()]
    end, blank_after = "\n", set()
    for kind, row, col, cell in edits:
        cells = lines[row + 1]
        col = min(col, len(cells) - 1)
        if kind == "cell":
            cells[col] = cell
        elif kind == "quote":
            cells[col] = f'"{cells[col]}"'
        elif kind == "pad":
            cells[col] = f" {cells[col]}  "
        elif kind == "drop" and len(cells) > 1:
            cells.pop()
        elif kind == "extra":
            cells.append(cell)
        elif kind == "blank":
            blank_after.add(row + 1)
        elif kind == "crlf":
            end = "\r\n"
    out = []
    for i, cells in enumerate(lines):
        out.append(",".join(cells))
        if i in blank_after:
            out.append("")
    return end.join(out) + end


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=edited_csvs())
def test_load_csv_reads_every_file_as_numpy_does(tmp_path_factory, case):
    ds, edits = case
    path = tmp_path_factory.getbasetemp() / "edited.csv"
    data.write_csv(ds, path)
    if not edits:
        # write_csv's output takes the orjson path.
        assert data._orjson_body(path, ds.dim + ds.labelled, ds.labelled) is not None
    path.write_bytes(apply_edits(path.read_text(), edits).encode())
    assert_reads_as_numpy_does(path)


@pytest.mark.parametrize("cell", _HAND_CELLS)
@pytest.mark.parametrize("column", ["feature", "label"])
def test_load_csv_reads_a_hand_written_cell_as_numpy_does(tmp_path, cell, column):
    path = tmp_path / "hand.csv"
    row = f"{cell},1.5,0" if column == "feature" else f"2.5,1.5,{cell}"
    write_lines(path, ["f0,f1,label", "0.5,-0.0,4", row, "5e-324,1e16,9223372036854775807"])
    assert_reads_as_numpy_does(path)


@pytest.mark.parametrize(
    "text",
    [
        b'f0,f1,label\n"1.5",-2.0,"3"\n4.0,5.0,0\n',
        b"f0,f1,label\n1.5, -2.0,3\n4.0,5.0,0\n",
        b"f0,f1,label\r\n1.5,-2.0,3\r\n4.0,5.0,0\r\n",
        b"f0,f1,label\r1.5,-2.0,3\n4.0,5.0,0\n",
        b"f0,f1,label\n1.5,-2.0,3\n\n4.0,5.0,0\n",
        b"f0,f1,label\n1.5,-2.0,3\n4.0,0\n",
        b"f0,f1,label\n1.5,-2.0,3\n4.0,5.0,0",
    ],
    ids=[
        "quoted", "padded", "crlf", "header ended by CR", "blank line", "ragged",
        "no final line end",
    ],
)
def test_load_csv_reads_each_dialect_as_numpy_does(tmp_path, text):
    path = tmp_path / "dialect.csv"
    path.write_bytes(text)
    assert_reads_as_numpy_does(path)

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


def test_split_rejects_degenerate_inputs():
    # One row leaves the test side empty, which DomainDataset refuses.
    one = data.DomainDataset("d", np.zeros((1, 2)), np.array([0]))
    with pytest.raises(InputError, match="nonempty"):
        data.split(one, data.SplitSpec())


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
    with pytest.raises(ConfigError):
        data.make_benchmark(seed=-1)


def test_identity_transforms_leave_domains_interchangeable():
    cfg, _ = data.make_benchmark(
        seed=6,
        source_rotations_deg=[0.0, 0.0, 0.0],
        source_shift_sigmas=[0.0, 0.0, 0.0],
    )
    domains = data.generate_domains(cfg, 3, data.DomainShift(0.0, np.zeros(cfg.feature_dim)))
    model = quick_fit(domains[0], hidden=16, epochs=10, rng=np.random.default_rng(7))
    accs = [model_accuracy(model, ds) for ds in domains]
    # identical distributions: at N=1000 per domain the spread stays inside 3%
    assert max(accs) - min(accs) <= 0.03


def test_runaway_source_domain_earns_the_largest_weight():
    cfg, _ = data.make_benchmark(
        seed=10,
        num_classes=3,
        feature_dim=6,
        samples_per_class=50,
        source_rotations_deg=[0.0, 0.0, 0.0],
        # as far off as +5 sigma on every one of the 6 coordinates
        source_shift_sigmas=[0.0, 0.0, 5.0 * math.sqrt(6.0)],
    )
    domains = data.generate_domains(cfg, 3, data.DomainShift(0.0, np.zeros(cfg.feature_dim)))
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
        assert abs(np.linalg.norm(vec) - sigma) <= 1e-12
        # all source shifts line up along one direction
        assert abs(float(np.dot(vec, unit)) - np.linalg.norm(vec)) <= 1e-9
    # while the new domain moves 1 sigma off at a right angle, unrotated
    assert abs(float(np.dot(new_t.translation, unit))) <= 1e-9
    assert abs(np.linalg.norm(new_t.translation) - 1.0) <= 1e-12
    assert new_t.rotation_deg == 0.0


@pytest.mark.parametrize("dim, kept", [(2, math.sqrt(0.5)), (3, 1.0), (10, 1.0)])
def test_rebalance_means_keeps_norms_only_beside_the_plane(dim, kept):
    """At feature_dim 2 the plane is the whole space, so no residual takes
    the out-of-plane share of the norm and each mean keeps sqrt(fraction)."""
    rng = np.random.default_rng(15)
    u, v = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
    means = rng.normal(0.0, 1.5, size=(5, dim))
    out = data._rebalance_means(means, u, v, 0.5)
    ratios = np.linalg.norm(out, axis=1) / np.linalg.norm(means, axis=1)
    np.testing.assert_allclose(ratios, kept, rtol=1e-12)


def test_rebalance_means_keeps_zero_means_zero():
    """mean_scale 0 draws all-zero means: each falls back to u, times a zero norm."""
    u, v = np.eye(4)[:2]
    out = data._rebalance_means(np.zeros((3, 4)), u, v, 0.5)
    assert not np.isnan(out).any()
    assert np.array_equal(out, np.zeros((3, 4)))
