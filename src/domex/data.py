"""Dataset ingestion, deterministic splits, and a synthetic multi-domain benchmark.

The benchmark manufactures controllable domain shift in feature space: every
domain draws from the same Gaussian class mixture, then gets its own affine
distortion (a rotation inside one seeded 2-D subspace and a mean shift).
Shared class structure plus distinct distortions is exactly the setting the
expansion algorithm targets.
"""

from __future__ import annotations

import logging
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# numpy loads numpy.random on first use; importing it here puts that cost in
# the package import rather than inside the first stage that seeds an RNG.
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError, InputError, ParseError

logger = logging.getLogger(__name__)

LABEL_COLUMN = "label"


@dataclass
class DomainDataset:
    """Feature vectors belonging to one domain, optionally labelled."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise InputError(
                f"features must be a nonempty (N, d) matrix, got {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise InputError(f"dataset {self.name!r} contains non-finite features")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise InputError("labels must align one-to-one with feature rows")
            if self.labels.size and self.labels.min() < 0:
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

    def take(self, indices: np.ndarray) -> "DomainDataset":
        labels = None if self.labels is None else self.labels[indices]
        return DomainDataset(self.name, self.features[indices], labels)


@dataclass
class DataConfig:
    """Synthetic benchmark knobs plus the split policy.

    The one owner of each knob and its default: the config's data section,
    make_benchmark, generate_domains and split all read this class. Knobs
    that no benchmark can be built from raise ConfigError here.
    """

    num_classes: int = 5
    feature_dim: int = 10
    samples_per_class: int = 200
    mean_scale: float = 1.5
    noise_std: float = 1.0
    source_rotations_deg: list[float] = field(default_factory=lambda: [15.0, 55.0, 85.0])
    source_shift_sigmas: list[float] = field(default_factory=lambda: [0.5, 1.25, 2.0])
    new_rotation_deg: float = 0.0
    new_shift_sigma: float = 1.0
    # Share of each synthesized class mean's energy placed inside the
    # rotation plane. Without this, how much a rotation hurts would depend
    # on where the random plane happens to fall relative to the random
    # means, making the benchmark's difficulty grading a lottery.
    plane_signal_fraction: float = 0.5
    train_fraction: float = 0.70
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if len(self.source_rotations_deg) != len(self.source_shift_sigmas):
            raise ConfigError("rotation and shift lists must have equal length")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.plane_signal_fraction <= 1.0:
            raise ConfigError(
                f"plane_signal_fraction must be in [0, 1], got "
                f"{self.plane_signal_fraction}"
            )
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        # split's arithmetic: every class needs two samples, and the train
        # side's ceil(train_fraction * N) must leave one of N for the test side.
        if self.samples_per_class < 2:
            raise ConfigError(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        n = self.num_classes * self.samples_per_class
        if math.ceil(self.train_fraction * n) >= n:
            raise ConfigError(
                f"train_fraction {self.train_fraction} of {n} samples per domain "
                "leaves the test split empty"
            )
        if self.noise_std <= 0:
            raise ConfigError(f"noise_std must be > 0, got {self.noise_std}")
        if self.num_sources < 2:
            raise ConfigError(f"need at least two source domains, got {self.num_sources}")
        if self.feature_dim < 2 and any([*self.source_rotations_deg, self.new_rotation_deg]):
            raise ConfigError("rotation needs feature_dim >= 2")

    @property
    def num_sources(self) -> int:
        return len(self.source_rotations_deg)


# split reads a DataConfig's train_fraction and seed.
SplitSpec = DataConfig


# numpy's reader, told the dialect csv.reader read: comma-separated cells,
# optionally double-quoted, and no comment syntax.
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
            raise ParseError(f"expected {n_columns} values, found 0", line=line_no)
        yield line
    if line_no == 1:
        raise ParseError(f"{path} has a header but no data rows", line=2)


def _located(exc: ValueError, n_columns: int, n_features: int) -> ParseError:
    """numpy's error for a malformed row, as a ParseError naming its file line."""
    message = str(exc)
    if cell := _BAD_CELL.search(message):
        text, row, column = cell.groups()
        what = "non-integer label" if int(column) > n_features else "non-numeric feature cell"
        return ParseError(f"{what} {text}", line=int(row) + 2)
    if count := _BAD_COUNT.search(message):
        return ParseError(
            f"expected {n_columns} values, found {count[1]}", line=int(count[2]) + 1
        )
    return ParseError(message)


def load_csv(path: str | Path) -> DomainDataset:
    """Parse a feature CSV: header row, decimal features, optional trailing
    integer "label" column. numpy's C reader parses every line in one pass;
    malformed content raises ParseError naming the 1-based line."""
    path = Path(path)
    try:
        # An open handle, not the path: np.loadtxt(path) imports gzip.
        with path.open() as handle:
            first = handle.readline()
            if not first:
                raise ParseError(f"{path} is empty")
            # numpy splits the header as it splits the rows. max_rows=1 keeps
            # its str parse from allocating an object buffer for 50000 rows.
            cells = [] if first == "\n" else np.loadtxt(
                [first], dtype=str, ndmin=1, max_rows=1, **_CSV_DIALECT
            )
            header = [cell.strip() for cell in cells]
            labelled = bool(header) and header[-1] == LABEL_COLUMN
            n_features = len(header) - 1 if labelled else len(header)
            if n_features < 1:
                raise ParseError(f"{path} declares no feature columns", line=1)
            # One record per row: the dtype fixes every row's cell count, and
            # numpy's int64 parser refuses a label such as 3.0 or 1e0.
            fields = [("features", "<f8", (n_features,))]
            if labelled:
                fields.append(("label", "<i8"))
            rows = np.loadtxt(
                _body_lines(handle, path, len(header)), dtype=fields, ndmin=1, **_CSV_DIALECT
            )
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ParseError:
        raise
    except ValueError as exc:  # numpy's, on a malformed row
        raise _located(exc, len(header), n_features) from exc
    return DomainDataset(
        path.stem,
        np.ascontiguousarray(rows["features"]),
        np.ascontiguousarray(rows["label"]) if labelled else None,
    )


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path through a sibling `<path>.tmp` that then replaces
    path, so a failed write leaves any earlier file at path as it was. Every
    file the pipeline writes goes through here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(ds: DomainDataset, path: str | Path) -> None:
    """Write a dataset as CSV, with a label column if it is labelled; floats
    use repr so a reload is value-identical."""
    header = [f"f{i}" for i in range(ds.dim)]
    if ds.labelled:
        header.append(LABEL_COLUMN)
    lines = [",".join(header)]
    for row_index, row in enumerate(ds.features.tolist()):
        line = ",".join(map(repr, row))
        if ds.labelled:
            line += f",{int(ds.labels[row_index])}"
        lines.append(line)
    write_atomic(path, "\n".join(lines) + "\n")


def split(ds: DomainDataset, spec: DataConfig) -> tuple[DomainDataset, DomainDataset]:
    """Deterministic stratified split of a labelled dataset into train/test.

    The train side gets ceil(train_fraction * N) samples overall; per-class
    counts are allocated by largest remainder so every class lands within one
    sample of its proportional share. A class with a single sample always
    goes to train (with a warning) since it cannot be split.
    """
    if ds.n < 2:
        raise InputError("need at least two samples to split")
    target_train = math.ceil(spec.train_fraction * ds.n)
    rng = default_rng(spec.seed)

    # Not np.unique: it loads numpy.ma on first use.
    classes = sorted(set(ds.labels.tolist()))
    strata = {c: np.flatnonzero(ds.labels == c) for c in classes}

    forced = [c for c, idx in strata.items() if idx.size == 1]
    for c in forced:
        logger.warning(
            "class %s of %r has a single sample; placing it in train", c, ds.name
        )
    open_strata = {c: idx for c, idx in strata.items() if idx.size > 1}
    remaining_target = target_train - len(forced)

    quotas = {}
    if open_strata:
        shares = {
            c: remaining_target * idx.size / (ds.n - len(forced))
            for c, idx in open_strata.items()
        }
        quotas = {c: math.floor(s) for c, s in shares.items()}
        leftover = remaining_target - sum(quotas.values())
        # Hand out the leftover units by largest fractional remainder,
        # breaking ties on the lower class index.
        order = sorted(shares, key=lambda c: (-(shares[c] - quotas[c]), c))
        for c in order:
            if leftover == 0:
                break
            if quotas[c] < open_strata[c].size:
                quotas[c] += 1
                leftover -= 1

    train_idx, test_idx = [], []
    for c in sorted(strata):
        idx = strata[c]
        if c in forced:
            train_idx.append(idx)
            continue
        shuffled = rng.permutation(idx)
        k = quotas[c]
        train_idx.append(shuffled[:k])
        test_idx.append(shuffled[k:])
    train_indices = np.sort(np.concatenate(train_idx))
    test_indices = (
        np.sort(np.concatenate(test_idx)) if test_idx else np.empty(0, dtype=np.int64)
    )
    if test_indices.size == 0:
        raise InputError(
            f"split of {ds.name!r} left the test side empty; use more data or a "
            "smaller train_fraction"
        )
    return ds.take(train_indices), ds.take(test_indices)


@dataclass
class DomainShift:
    """Invertible affine distortion: x -> R(rotation) x + translation."""

    rotation_deg: float
    translation: np.ndarray


def _rebalance_means(
    means: np.ndarray, u: np.ndarray, v: np.ndarray, fraction: float
) -> np.ndarray:
    """Redistribute each mean's norm so `fraction` of its energy is in-plane.

    Norms are preserved; only the split between the rotation plane span{u, v}
    and its orthogonal complement changes. Degenerate components (a mean
    lying fully inside or outside the plane) keep their direction by falling
    back to u respectively leaving the residual at zero.
    """
    out = np.empty_like(means)
    for c, mu in enumerate(means):
        norm = np.linalg.norm(mu)
        if norm == 0.0:
            out[c] = mu
            continue
        in_plane = np.dot(mu, u) * u + np.dot(mu, v) * v
        residual = mu - in_plane
        in_norm = np.linalg.norm(in_plane)
        res_norm = np.linalg.norm(residual)
        e_in = in_plane / in_norm if in_norm > 1e-12 else u
        e_res = residual / res_norm if res_norm > 1e-12 else np.zeros_like(mu)
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


def _apply_shift(
    samples: np.ndarray, shift: DomainShift, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    d = samples.shape[1]
    out = samples
    if shift.rotation_deg != 0.0:
        out = out @ _rotation_matrix(d, u, v, shift.rotation_deg).T
    return out + shift.translation


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
    if cfg.feature_dim >= 2:
        basis = np.linalg.qr(
            structure_rng.standard_normal((cfg.feature_dim, 2))
        )[0]
        u, v = basis[:, 0], basis[:, 1]
        means = _rebalance_means(means, u, v, cfg.plane_signal_fraction)
    else:
        u = v = np.zeros(cfg.feature_dim)

    names = [f"source_{i}" for i in range(num_source_domains)] + ["new"]
    all_transforms = transforms + [new_domain_transform]
    domains = []
    for name, shift, seed in zip(names, all_transforms, domain_seeds):
        rng = default_rng(seed)
        blocks, labels = [], []
        for c in range(cfg.num_classes):
            noise = rng.standard_normal((cfg.samples_per_class, cfg.feature_dim))
            blocks.append(means[c] + cfg.noise_std * noise)
            labels.append(np.full(cfg.samples_per_class, c, dtype=np.int64))
        features = _apply_shift(np.vstack(blocks), shift, u, v)
        domains.append(DomainDataset(name, features, np.concatenate(labels)))
    return domains


def standardize(
    train: DomainDataset, others: list[DomainDataset] | tuple[DomainDataset, ...] = ()
) -> tuple[DomainDataset, list[DomainDataset]]:
    """Z-score train and others with train's per-feature mean and population
    standard deviation; zero-variance features are mapped to 0."""
    mean, std = train.features.mean(axis=0), train.features.std(axis=0)
    safe_std = np.where(std == 0.0, 1.0, std)

    def apply(ds: DomainDataset) -> DomainDataset:
        z = (ds.features - mean) / safe_std
        z[:, std == 0.0] = 0.0
        return DomainDataset(ds.name, z, ds.labels)

    return apply(train), [apply(ds) for ds in others]


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

    if cfg.feature_dim >= 2:
        pair = np.linalg.qr(rng.standard_normal((cfg.feature_dim, 2)))[0]
        source_dir, new_dir = pair[:, 0], pair[:, 1]
    else:
        source_dir = new_dir = np.ones(cfg.feature_dim)

    source_transforms = [
        DomainShift(rot, source_dir * sig * cfg.noise_std)
        for rot, sig in zip(cfg.source_rotations_deg, cfg.source_shift_sigmas)
    ]
    new_transform = DomainShift(
        cfg.new_rotation_deg, new_dir * cfg.new_shift_sigma * cfg.noise_std
    )
    return source_transforms, new_transform


def make_benchmark(seed: int = 0, **knobs) -> tuple[DataConfig, DomainShift]:
    """The benchmark's DataConfig, at the defaults for every knob not given,
    and its new domain's shift."""
    cfg = DataConfig(seed=seed, **knobs)
    return cfg, benchmark_shifts(cfg)[1]
