"""Run configuration and stage manifests for the pipeline CLI.

One JSON config drives every stage. Each stage writes a manifest recording
the config snapshot, the input files it read, and sha256 digests of the
files it wrote, so a run can be audited after the fact. Manifests carry no
timestamps: reruns of the same config must produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .data import MAX_FLOAT64S, DataConfig, write_atomic
from .errors import ConfigError
from .expansion import Hyperparams, check_sgd_knobs
from .fusion import FUSION_METHODS


# What a JSON value must be to fill a field of each scalar type. Ints pass
# for floats unconverted, so a manifest echoes the config as written.
_SCALAR_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v),
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _read(value, annotation, where: str):
    """Return value once it has the annotated type; a dataclass type reads
    a JSON object into that class."""
    if is_dataclass(annotation):
        return _from_mapping(annotation, value, where)
    if get_origin(annotation) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        (item_type,) = get_args(annotation)
        return [_read(item, item_type, f"{where}[{k}]") for k, item in enumerate(value)]
    expected, accepts = _SCALAR_TYPES[annotation]
    if not accepts(value):
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return value


def _from_mapping(cls, raw, where: str = ""):
    """Read a JSON object into the dataclass cls; where is its dotted path,
    empty for the config root. A missing key keeps the field's default."""
    name = f"section {where!r}" if where else "config root"
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    hints = get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    prefix = f"{where}." if where else ""
    kwargs = {key: _read(value, hints[key], prefix + key) for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


@dataclass
class ModelConfig:
    # One hidden layer of 1000 relu units is the reference shallow setting.
    hidden_units: list[int] = field(default_factory=lambda: [1000])

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_units):
            raise ConfigError(f"hidden_units must be positive, got {self.hidden_units}")


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_sgd_knobs(self)


@dataclass
class EvaluateConfig:
    methods: list[str] = field(default_factory=lambda: list(FUSION_METHODS))

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("evaluate needs at least one fusion method")
        bad = [m for m in self.methods if m not in FUSION_METHODS]
        if bad:
            raise ConfigError(f"unknown fusion methods {bad}; valid: {FUSION_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"fusion methods listed more than once: {self.methods}")


@dataclass
class GradcheckConfig:
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("gradcheck needs at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds listed more than once: {self.seeds}")


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    expansion: Hyperparams = field(default_factory=Hyperparams)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)
    gradcheck: GradcheckConfig = field(default_factory=GradcheckConfig)

    def __post_init__(self):
        # A model's parameters are one flat float64 array: every layer's
        # weights and biases.
        dims = [self.data.feature_dim, *self.model.hidden_units, self.data.num_classes]
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:]))
        if size > MAX_FLOAT64S:
            raise ConfigError(
                f"model.hidden_units {self.model.hidden_units} with data.feature_dim "
                f"{self.data.feature_dim} and data.num_classes {self.data.num_classes} "
                f"gives each model {size} parameters, more than numpy's limit of "
                f"{MAX_FLOAT64S} float64s in one array"
            )


def load_config(path: str | Path | None) -> RunConfig:
    """Read a config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _from_mapping(RunConfig, raw)


@dataclass
class OutputLayout:
    """Canonical file locations inside one run directory."""

    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    @property
    def data_dir(self) -> Path:
        return self.root / "data"

    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    @property
    def expanded_dir(self) -> Path:
        return self.root / "expanded"

    def domain_csv(self, domain: str, part: str) -> Path:
        return self.data_dir / f"{domain}_{part}.csv"

    @property
    def new_unlabelled_csv(self) -> Path:
        return self.data_dir / "new_unlabelled.csv"

    def original_model(self, index: int) -> Path:
        return self.models_dir / f"original_{index}.model"

    def updated_model(self, index: int) -> Path:
        return self.expanded_dir / f"updated_{index}.model"

    @property
    def training_log(self) -> Path:
        return self.expanded_dir / "training_log.ndjson"

    @property
    def report_json(self) -> Path:
        return self.root / "eval" / "report.json"

    @property
    def results_table(self) -> Path:
        return self.root / "eval" / "results_table.txt"

    @property
    def gradcheck_json(self) -> Path:
        return self.root / "checks" / "gradcheck.json"

    def manifest(self, stage: str) -> Path:
        return self.root / f"{stage}_manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    layout: OutputLayout,
    stage: str,
    cfg: RunConfig,
    inputs: list[Path],
    outputs: list[Path],
) -> None:
    """Record what a stage consumed and produced, digesting every output."""

    def rel(p: Path) -> str:
        p = Path(p)
        try:
            return p.resolve().relative_to(layout.root.resolve()).as_posix()
        except ValueError:
            return p.as_posix()

    payload: dict[str, Any] = {
        "stage": stage,
        "config": asdict(cfg),
        "inputs": [rel(p) for p in inputs],
        "outputs": [{"path": rel(p), "sha256": sha256_file(p)} for p in outputs],
    }
    write_atomic(layout.manifest(stage), json.dumps(payload, indent=2) + "\n")
