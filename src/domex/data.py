"""Dataset ingestion, deterministic splits, and a synthetic multi-domain benchmark.

The benchmark manufactures controllable domain shift in feature space: every
domain draws from the same Gaussian class mixture, then gets its own affine
distortion (a rotation inside one seeded 2-D subspace and a mean shift).
Shared class structure plus distinct distortions is exactly the setting the
expansion algorithm targets.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np
import orjson

# numpy loads numpy.random on first use; importing it here puts that cost in
# the package import rather than inside the first stage that seeds an RNG.
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError, InputError

LABEL_COLUMN = "label"
# numpy refuses an array of more than intp's largest value in bytes.
MAX_FLOAT64S = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# split's share of each domain's samples on the train side.
TRAIN_FRACTION = 0.70
# Share of each synthesized class mean's energy placed inside the rotation
# plane. Without this, how much a rotation hurts would depend on where the
# random plane happens to fall relative to the random means, making the
# benchmark's difficulty grading a lottery.
PLANE_SIGNAL_FRACTION = 0.5


@dataclass
class DomainDataset:
    """Feature vectors belonging to one domain, optionally labelled."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise InputError(
                f"features must be a nonempty (N, d) matrix, got {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise InputError(f"dataset {self.name!r} contains non-finite features")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels)
            if self.labels.dtype.kind not in "iu":
                raise InputError(f"labels must be integers, got dtype {self.labels.dtype}")
            if self.labels.shape != (self.features.shape[0],):
                raise InputError("labels must align one-to-one with feature rows")
            if self.labels.min() < 0:
                raise InputError("labels must be nonnegative class indices")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labelled(self) -> bool:
        return self.labels is not None


@dataclass
class DataConfig:
    """Synthetic benchmark knobs, the split's seed and the domain roster.

    The one owner of each knob and its default: the config's data section,
    make_benchmark, generate_domains and split all read this class. Knobs
    that no benchmark can be built from raise ConfigError here.
    """

    num_classes: int = 5
    feature_dim: int = 10
    samples_per_class: int = 200
    mean_scale: float = 1.5
    source_rotations_deg: list[float] = field(default_factory=lambda: [15.0, 55.0, 85.0])
    source_shift_sigmas: list[float] = field(default_factory=lambda: [0.5, 1.25, 2.0])
    seed: int = 0

    def __post_init__(self):
        if len(self.source_rotations_deg) != len(self.source_shift_sigmas):
            raise ConfigError("rotation and shift lists must have equal length")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        # Every domain rotates inside a 2-D plane of the feature space.
        if self.feature_dim < 2:
            raise ConfigError(f"feature_dim must be >= 2, got {self.feature_dim}")
        # split's arithmetic: every class needs two samples, so N >= 4 and the
        # train side's ceil(TRAIN_FRACTION * N) leaves one of N for the test side.
        if self.samples_per_class < 2:
            raise ConfigError(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        n = self.num_classes * self.samples_per_class
        # A domain's n × feature_dim features and the feature_dim² rotation
        # are the largest arrays synth makes.
        if max(n, self.feature_dim) * self.feature_dim > MAX_FLOAT64S:
            raise ConfigError(
                f"data.feature_dim {self.feature_dim} with data.num_classes "
                f"{self.num_classes} × data.samples_per_class {self.samples_per_class} "
                f"rows per domain needs more than numpy's limit of {MAX_FLOAT64S} "
                "float64s in one array"
            )
        # By the sign bit: numpy's normal refuses a scale of -0.0 too.
        if math.copysign(1.0, self.mean_scale) < 0:
            raise ConfigError(f"mean_scale must be >= 0, got {self.mean_scale}")
        if self.num_sources < 2:
            raise ConfigError(f"need at least two source domains, got {self.num_sources}")
        # numpy seeds its generators from non-negative integers only.
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_sources(self) -> int:
        return len(self.source_rotations_deg)

    @property
    def domain_names(self) -> list[str]:
        return [f"source_{i}" for i in range(self.num_sources)] + ["new"]


# split reads a DataConfig's seed.
SplitSpec = DataConfig


# numpy's reader's dialect: comma-separated cells, optionally double-quoted,
# and no comment syntax.
_CSV_DIALECT = dict(delimiter=",", quotechar='"', comments=None)
# The row numbers in numpy's errors count the lines after the header (no blank
# line reaches numpy): from 0 when a cell does not parse, from 1 when a row
# has the wrong cell count.
_BAD_CELL = re.compile(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)")
_BAD_COUNT = re.compile(r"requires \d+ columns but (\d+) were found at row (\d+)")


def _body_lines(handle, path: Path, n_columns: int):
    """The lines after the header, refusing the blank line that np.loadtxt
    would skip and the empty body that it would only warn about."""
    line_no = 1
    for line_no, line in enumerate(handle, start=2):
        if line == "\n":
            raise InputError(f"line {line_no}: {path}: expected {n_columns} values, found 0")
        yield line
    if line_no == 1:
        raise InputError(f"line 2: {path} has a header but no data rows")


def _located(exc: ValueError, path: Path, n_columns: int, n_features: int) -> InputError:
    """numpy's error for a malformed row, as an InputError naming its line and file."""
    message = str(exc)
    if cell := _BAD_CELL.search(message):
        text, row, column = cell.groups()
        what = (
            f"label {text} is not an integer that fits in int64"
            if int(column) > n_features
            else f"non-numeric feature cell {text}"
        )
        return InputError(f"line {int(row) + 2}: {path}: {what}")
    if count := _BAD_COUNT.search(message):
        return InputError(
            f"line {int(count[2]) + 1}: {path}: expected {n_columns} values, found {count[1]}"
        )
    return InputError(f"{path}: {message}")


# Bytes of whole lines per orjson.loads call. One call per file would hold
# every cell as a Python float at once; a fixed row count would let a block's
# floats and text copies grow with the feature count, and the heap they leave
# behind raises the pipeline's peak RSS (64 rows of 256 features: +2 MB).
_ORJSON_BLOCK_BYTES = 1 << 16
# The bytes of a body whose cells are bare JSON numbers, as write_csv writes them.
_JSON_NUMBER_BYTES = b"0123456789.eE+-,\n"
# The cell -0 where the byte before it starts a cell: orjson reads it as the
# int 0, which is +0.0 as a float, and numpy's reader as -0.0. The search
# starts on the literal, so it stays a fast scan.
_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _orjson_body(path: Path, n_columns: int, labelled: bool):
    """The features and labels (or None) of path's body, parsed by orjson as
    JSON arrays in blocks of about _ORJSON_BLOCK_BYTES. None when numpy's reader
    must read the file instead: a byte outside _JSON_NUMBER_BYTES, a cell -0,
    text that is not JSON, a row that has not n_columns cells, a label that is
    not a JSON integer within int64, or no row at all. Every cell it takes
    reads to the float64 numpy's correctly rounded parse gives."""
    features, labels = [], []
    with path.open("rb") as handle:
        # A carriage return ends the header in text mode, not here.
        if b"\r" in handle.readline():
            return None
        while block := b"".join(handle.readlines(_ORJSON_BLOCK_BYTES)):
            if block.translate(None, _JSON_NUMBER_BYTES) or any(
                m.start() == 0 or block[m.start() - 1] in b",\n"
                for m in _MINUS_ZERO.finditer(block)
            ):
                return None
            try:
                rows = orjson.loads(
                    b"[[" + block.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]"
                )
                cells = np.array(rows, dtype=np.float64)
            except ValueError:  # not JSON, or rows of unequal width
                return None
            if cells.shape[1] != n_columns:
                return None
            if labelled:
                # int64 only when every label is a JSON integer that fits.
                labels.append(np.array([row[-1] for row in rows]))
                if labels[-1].dtype != np.int64:
                    return None
                cells = cells[:, :-1]
            features.append(cells)
    if not features:
        return None
    return np.concatenate(features), np.concatenate(labels) if labelled else None


def load_csv(path: str | Path) -> DomainDataset:
    """Parse a feature CSV: header row, decimal features, optional trailing
    integer "label" column. A body in write_csv's number format is parsed by
    orjson (_orjson_body); any other body by numpy's C reader in one pass,
    where malformed content raises InputError naming its 1-based line and the
    file. Both give the same bits."""
    path = Path(path)
    try:
        # An open handle, not the path: np.loadtxt(path) imports gzip.
        with path.open() as handle:
            first = handle.readline()
            if not first:
                raise InputError(f"{path} is empty")
            # numpy splits the header as it splits the rows. max_rows=1 keeps
            # its str parse from allocating an object buffer for 50000 rows.
            cells = [] if first == "\n" else np.loadtxt(
                [first], dtype=str, ndmin=1, max_rows=1, **_CSV_DIALECT
            )
            header = [cell.strip() for cell in cells]
            labelled = bool(header) and header[-1] == LABEL_COLUMN
            n_features = len(header) - 1 if labelled else len(header)
            if n_features < 1:
                raise InputError(f"line 1: {path} declares no feature columns")
            parsed = _orjson_body(path, len(header), labelled)
            if parsed is None:
                # One record per row: the dtype fixes every row's cell count,
                # and numpy's int64 parser refuses a label such as 3.0 or 1e0.
                fields = [("features", "<f8", (n_features,))]
                if labelled:
                    fields.append(("label", "<i8"))
                rows = np.loadtxt(
                    _body_lines(handle, path, len(header)), dtype=fields, ndmin=1,
                    **_CSV_DIALECT,
                )
                parsed = rows["features"], rows["label"] if labelled else None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except InputError:
        raise
    except ValueError as exc:  # numpy's, on a malformed row
        raise _located(exc, path, len(header), n_features) from exc
    try:
        return DomainDataset(path.stem, *parsed)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_atomic(path: str | Path, content: str | Iterable[bytes]) -> None:
    """Write content to path through a sibling `<path>.tmp` that then replaces
    path, so a failed write, even one that fails midway through content,
    leaves any earlier file at path as it was and no `.tmp` behind. content is
    text (JSON and tables), written as UTF-8, or an iterable of bytes-like
    chunks (CSVs and models) written in turn, so no caller builds a whole file
    image. Makes path's directory first. Every file the pipeline writes goes
    through here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(content, str):
        content = [content.encode()]
    try:
        with tmp.open("wb") as handle:
            handle.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(ds: DomainDataset, path: str | Path) -> None:
    """Write a dataset as CSV, with a label column if it is labelled. Every
    feature is written as the shortest decimal that reads back to the same
    float64 (orjson's Ryu formatter), so a reload is bit-identical. The rows
    are streamed in blocks of at most about _ORJSON_BLOCK_BYTES of text: each
    block is one orjson call on a slice of rows, whose nested lists are then
    the CSV's rows, so the text held at once does not grow with the file."""
    header = [f"f{i}" for i in range(ds.dim)]
    if ds.labelled:
        header.append(LABEL_COLUMN)
    # Rows per block at orjson's widest cell, 25 bytes with its comma
    # (-2.2250738585072014e-308,); the + 1 lets a file without features divide.
    step = max(1, _ORJSON_BLOCK_BYTES // (25 * ds.dim + 1))

    def blocks():
        yield ",".join(header).encode() + b"\n"
        for start in range(0, ds.n, step):
            # DomainDataset's features are C-contiguous, as orjson requires.
            cells = ds.features[start : start + step]
            rows = orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            if ds.labelled:
                labels = ds.labels[start : start + step].tolist()
                rows = [b"%b,%d" % (row, label) for row, label in zip(rows, labels)]
            rows.append(b"")  # the block's last line end
            yield b"\n".join(rows)

    write_atomic(path, blocks())


def split(ds: DomainDataset, spec: DataConfig) -> tuple[DomainDataset, DomainDataset]:
    """Deterministic stratified split of a labelled dataset into train/test.

    Classes 0..C-1 must hold equally many rows each, as generate_domains draws
    them. Of the ceil(TRAIN_FRACTION * N) train rows, with base, extra = divmod
    of that by C, class c gives base + (c < extra), picked by one permutation
    per class in class order. Both sides keep the dataset's row order.
    """
    counts = np.bincount(ds.labels)
    if counts.min() != counts.max():
        raise InputError(
            f"split needs equally many rows in each class 0..{counts.size - 1}, "
            f"got {counts.tolist()}"
        )
    base, extra = divmod(math.ceil(TRAIN_FRACTION * ds.n), counts.size)
    rng = default_rng(spec.seed)
    train_idx, test_idx = [], []
    for c in range(counts.size):
        shuffled = rng.permutation(np.flatnonzero(ds.labels == c))
        k = base + (c < extra)
        train_idx.append(shuffled[:k])
        test_idx.append(shuffled[k:])
    train, test = (np.sort(np.concatenate(side)) for side in (train_idx, test_idx))
    return (
        DomainDataset(ds.name, ds.features[train], ds.labels[train]),
        DomainDataset(ds.name, ds.features[test], ds.labels[test]),
    )


@dataclass
class DomainShift:
    """Invertible affine distortion: x -> R(rotation) x + translation."""

    rotation_deg: float
    translation: np.ndarray


def _rebalance_means(
    means: np.ndarray, u: np.ndarray, v: np.ndarray, fraction: float
) -> np.ndarray:
    """Redistribute each mean's norm so `fraction` of its energy is in-plane.

    The part in the rotation plane span{u, v} gets sqrt(fraction) of the norm
    and the part in its orthogonal complement sqrt(1 - fraction), each along
    its own direction. A part below 1e-12 of the mean's norm counts as none:
    a mean with no in-plane part falls back to u; one with no residual keeps
    only its in-plane share. So norms are preserved when feature_dim >= 3, but
    at feature_dim 2, where the plane is the whole space, each shrinks to
    sqrt(fraction) of itself. A zero mean stays zero.
    """
    out = np.empty_like(means)
    for c, mu in enumerate(means):
        norm = np.linalg.norm(mu)
        in_plane = np.dot(mu, u) * u + np.dot(mu, v) * v
        residual = mu - in_plane
        in_norm = np.linalg.norm(in_plane)
        res_norm = np.linalg.norm(residual)
        e_in = in_plane / in_norm if in_norm > 1e-12 * norm else u
        e_res = residual / res_norm if res_norm > 1e-12 * norm else np.zeros_like(mu)
        out[c] = norm * (
            math.sqrt(fraction) * e_in + math.sqrt(1.0 - fraction) * e_res
        )
    return out


def _rotation_matrix(dim: int, u: np.ndarray, v: np.ndarray, angle_deg: float) -> np.ndarray:
    theta = math.radians(angle_deg)
    outer_uu = np.outer(u, u)
    outer_vv = np.outer(v, v)
    outer_uv = np.outer(u, v)
    return (
        np.eye(dim)
        + (math.cos(theta) - 1.0) * (outer_uu + outer_vv)
        + math.sin(theta) * (outer_uv - outer_uv.T)
    )


def generate_domains(
    cfg: DataConfig,
    num_source_domains: int,
    new_domain_transform: DomainShift,
) -> list[DomainDataset]:
    """Produce num_source_domains labelled source domains plus the new domain.

    All domains share the class mixture; each source is distorted by its
    benchmark_shifts transform and the new domain by new_domain_transform.
    Sampling is reproducible: the master seed fixes the shared structure
    (class means, rotation subspace) and spawns an independent stream per
    domain, so domains could be generated in parallel.
    """
    transforms, _ = benchmark_shifts(cfg)
    if len(transforms) != num_source_domains:
        raise ConfigError(
            f"{len(transforms)} source transforms configured for "
            f"{num_source_domains} source domains"
        )

    root = SeedSequence(cfg.seed)
    structure_seed, *domain_seeds = root.spawn(num_source_domains + 2)
    structure_rng = default_rng(structure_seed)

    means = structure_rng.normal(
        0.0, cfg.mean_scale, size=(cfg.num_classes, cfg.feature_dim)
    )
    basis = np.linalg.qr(structure_rng.standard_normal((cfg.feature_dim, 2)))[0]
    u, v = basis[:, 0], basis[:, 1]
    means = _rebalance_means(means, u, v, PLANE_SIGNAL_FRACTION)
    # Rotations keep norms and every shift is at most a finite sigma long, so
    # finite means leave the features finite.
    if not np.isfinite(means).all():
        raise ConfigError(f"data.mean_scale {cfg.mean_scale} overflows the class means")

    all_transforms = transforms + [new_domain_transform]
    domains = []
    for name, shift, seed in zip(cfg.domain_names, all_transforms, domain_seeds):
        labels = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), cfg.samples_per_class)
        # One draw fills in C order: the bits of one draw per class in turn.
        features = default_rng(seed).standard_normal((labels.size, cfg.feature_dim))
        features += means[labels]
        if shift.rotation_deg != 0.0:
            features = features @ _rotation_matrix(cfg.feature_dim, u, v, shift.rotation_deg).T
        domains.append(DomainDataset(name, features + shift.translation, labels))
    return domains


def benchmark_shifts(cfg: DataConfig) -> tuple[list[DomainShift], DomainShift]:
    """The benchmark's graded distortions: one per source domain, then the new domain's.

    Source domains are ordered from mild to strong distortion, so models
    pre-trained on them have graded quality on the (lightly distorted) new
    domain. All source translations point along one seeded unit direction
    with graded magnitudes while the new domain is displaced along an
    orthogonal direction: the source-to-new distance then grows strictly
    with each source's own shift magnitude (so the quality grading cannot
    collapse by two domains shifting the same way), yet the sources stay
    mutually close enough that aligning a weak model with its peers does
    not strand it far from every domain it still has to serve.
    """
    rng = default_rng(SeedSequence((cfg.seed, 0x5EED)))

    pair = np.linalg.qr(rng.standard_normal((cfg.feature_dim, 2)))[0]
    source_dir, new_dir = pair[:, 0], pair[:, 1]
    source_transforms = [
        DomainShift(rot, source_dir * sig)
        for rot, sig in zip(cfg.source_rotations_deg, cfg.source_shift_sigmas)
    ]
    # The new domain is not rotated, and is shifted 1 sigma.
    return source_transforms, DomainShift(0.0, new_dir)


def make_benchmark(seed: int = 0, **knobs) -> tuple[DataConfig, DomainShift]:
    """The benchmark's DataConfig, at the defaults for every knob not given,
    and its new domain's shift."""
    cfg = DataConfig(seed=seed, **knobs)
    return cfg, benchmark_shifts(cfg)[1]
