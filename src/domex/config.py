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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .data import DataConfig, write_atomic
from .errors import ConfigError
from .expansion import Hyperparams
from .fusion import FUSION_METHODS


# What a JSON value must be to fill a field of each scalar type. Ints pass
# for floats unconverted, so a manifest echoes the config as written.
_SCALAR_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v),
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _check_type(value, annotation, where: str) -> None:
    if get_origin(annotation) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        (item_type,) = get_args(annotation)
        for k, item in enumerate(value):
            _check_type(item, item_type, f"{where}[{k}]")
        return
    expected, accepts = _SCALAR_TYPES[annotation]
    if not accepts(value):
        raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _from_mapping(cls, raw: dict, section: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"section {section!r} must be an object")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown keys in section {section!r}: {sorted(unknown)}"
        )
    hints = get_type_hints(cls)
    for name, value in raw.items():
        _check_type(value, hints[name], f"{section}.{name}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {section!r}: {exc}") from exc


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
        # epochs = 0 is legal and leaves the freshly initialized model as is.
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ConfigError("pretrain needs epochs >= 0, batch_size >= 1, lr > 0")
        if self.momentum < 0:
            raise ConfigError(f"momentum must be >= 0, got {self.momentum}")


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


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    expansion: Hyperparams = field(default_factory=Hyperparams)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)
    gradcheck: GradcheckConfig = field(default_factory=GradcheckConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        sections = get_type_hints(cls)
        unknown = set(raw) - set(sections)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {
            name: _from_mapping(section_cls, raw.get(name, {}), name)
            for name, section_cls in sections.items()
        }
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def check_seeds(self) -> None:
        """Reject a negative seed: numpy seeds its generators from
        non-negative integers only."""
        seeds = [
            ("data.seed", self.data.seed),
            ("pretrain.seed", self.pretrain.seed),
            ("expansion.seed", self.expansion.seed),
        ]
        seeds += [(f"gradcheck.seeds[{k}]", s) for k, s in enumerate(self.gradcheck.seeds)]
        for where, seed in seeds:
            if seed < 0:
                raise ConfigError(f"{where} must be >= 0, got {seed}")


def load_config(path: str | Path | None) -> RunConfig:
    """Read a config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


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

    @property
    def eval_dir(self) -> Path:
        return self.root / "eval"

    @property
    def checks_dir(self) -> Path:
        return self.root / "checks"

    def domain_csv(self, domain: str, part: str) -> Path:
        return self.data_dir / f"{domain}_{part}.csv"

    @property
    def new_unlabelled_csv(self) -> Path:
        return self.data_dir / "new_unlabelled.csv"

    def original_model(self, index: int) -> Path:
        return self.models_dir / f"original_{index}.json"

    def updated_model(self, index: int) -> Path:
        return self.expanded_dir / f"updated_{index}.json"

    @property
    def training_log(self) -> Path:
        return self.expanded_dir / "training_log.ndjson"

    @property
    def report_json(self) -> Path:
        return self.eval_dir / "report.json"

    @property
    def results_table(self) -> Path:
        return self.eval_dir / "results_table.txt"

    @property
    def gradcheck_json(self) -> Path:
        return self.checks_dir / "gradcheck.json"

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
) -> Path:
    """Record what a stage consumed and produced, digesting every output."""

    def rel(p: Path) -> str:
        p = Path(p)
        try:
            return p.resolve().relative_to(layout.root.resolve()).as_posix()
        except ValueError:
            return p.as_posix()

    payload: dict[str, Any] = {
        "stage": stage,
        "config": cfg.to_dict(),
        "inputs": [rel(p) for p in inputs],
        "outputs": [{"path": rel(p), "sha256": sha256_file(p)} for p in outputs],
    }
    path = layout.manifest(stage)
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
    return path
