"""Fusing ensembles into one classifier and computing reported metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import DomainDataset
from .errors import InputError
from .nn import MlpModel, forward_logits, softmax_temperature

FUSION_METHODS = ("baseline", "m1", "m2")
# The model outputs each method fuses.
_FUSED_ROLES = {"baseline": ("originals",), "m1": ("updated",), "m2": ("originals", "updated")}


@dataclass
class PredictionBatch:
    """Class scores plus their argmax labels; ties go to the lowest class."""

    scores: np.ndarray
    predicted: np.ndarray

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "PredictionBatch":
        scores = np.asarray(scores, dtype=np.float64)
        # np.argmax returns the first maximum, i.e. the lowest class index.
        return cls(scores, scores.argmax(axis=1))


@dataclass
class EvaluationReport:
    """Per-domain accuracies and their unweighted mean for one fusion method."""

    per_domain_accuracy: dict[str, float]
    expanded_accuracy: float
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "per_domain_accuracy": dict(self.per_domain_accuracy),
            "expanded_accuracy": self.expanded_accuracy,
        }


def softmax_outputs(models: Sequence[MlpModel], batch: np.ndarray) -> list[np.ndarray]:
    """Each model's (N, C) softmax matrix on the batch, one forward per model."""
    return [softmax_temperature(forward_logits(m, batch)[0], 1.0) for m in models]


def _probs(items: Sequence, batch: np.ndarray | None) -> list[np.ndarray]:
    if not len(items):
        raise InputError("need at least one model to fuse")
    if batch is not None:
        return softmax_outputs(items, batch)
    return [np.asarray(p, dtype=np.float64) for p in items]


def fuse_m1(updated: Sequence, batch: np.ndarray | None = None) -> PredictionBatch:
    """Average the updated models' softmax outputs; rows sum to 1.

    updated holds one (N, C) softmax matrix per model; with batch given it
    holds the models instead, run on batch first. The same goes for
    fuse_baseline and fuse_m2.
    """
    probs = _probs(updated, batch)
    return PredictionBatch.from_scores(sum(probs) / len(probs))


def fuse_m2(
    originals: Sequence, updated: Sequence, batch: np.ndarray | None = None
) -> PredictionBatch:
    """Per-class max over each (original, updated) pair, summed across models.

    The scores are an unnormalized sum of per-class maxima, so rows need not
    sum to 1; only the argmax is meaningful.
    """
    if len(originals) != len(updated):
        raise InputError("originals and updated must pair up one-to-one")
    probs_orig = _probs(originals, batch)
    probs_upd = _probs(updated, batch)
    scores = sum(np.maximum(u, o) for u, o in zip(probs_upd, probs_orig))
    return PredictionBatch.from_scores(scores)


def fuse_baseline(originals: Sequence, batch: np.ndarray | None = None) -> PredictionBatch:
    """Score fusion of the unadapted models (mean softmax; same argmax as sum)."""
    probs = _probs(originals, batch)
    return PredictionBatch.from_scores(sum(probs) / len(probs))


def accuracy(pred: PredictionBatch, labels: np.ndarray) -> float:
    """Fraction of exact label matches."""
    labels = np.asarray(labels)
    if labels.shape != pred.predicted.shape:
        raise InputError(
            f"labels shape {labels.shape} does not match predictions "
            f"{pred.predicted.shape}"
        )
    return float((pred.predicted == labels).mean())


def expanded_accuracy(per_domain: Mapping[str, float]) -> float:
    """Unweighted mean of per-domain accuracies: every domain counts equally."""
    if not per_domain:
        raise InputError("need at least one domain accuracy")
    return float(np.mean(list(per_domain.values())))


def fuse(
    method: str,
    originals: Sequence,
    updated: Sequence | None,
    batch: np.ndarray | None = None,
) -> PredictionBatch:
    if method == "baseline":
        return fuse_baseline(originals, batch)
    if method not in FUSION_METHODS:
        raise InputError(f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}")
    if updated is None:
        raise InputError(f"method {method} needs the updated models")
    if method == "m1":
        return fuse_m1(updated, batch)
    return fuse_m2(originals, updated, batch)


def evaluate_expanded(
    method: str,
    originals: Sequence[MlpModel],
    updated: Sequence[MlpModel] | None,
    test_sets: Mapping[str, DomainDataset],
    outputs: dict | None = None,
) -> EvaluationReport:
    """Accuracy of one fusion method on every domain's test set.

    The expanded-domain accuracy is the unweighted mean over domains, so the
    new domain and each source domain count equally regardless of size.

    outputs memoizes the softmax matrices by (role, domain), role being
    "originals" or "updated". Passing one dict to every method evaluated on
    the same models and test sets runs each (model, test set) forward once.
    """
    if not test_sets:
        raise InputError("need at least one test set")
    if outputs is None:
        outputs = {}
    models = {"originals": originals, "updated": updated}
    per_domain = {}
    for name, ds in test_sets.items():
        if ds.labels is None:
            raise InputError(f"test set {name!r} has no labels")
        for role in _FUSED_ROLES.get(method, ()):
            if models[role] is not None and (role, name) not in outputs:
                outputs[role, name] = softmax_outputs(models[role], ds.features)
        orig, upd = outputs.get(("originals", name)), outputs.get(("updated", name))
        per_domain[name] = accuracy(fuse(method, orig, upd), ds.labels)
    return EvaluationReport(
        per_domain_accuracy=per_domain,
        expanded_accuracy=expanded_accuracy(per_domain),
        method=method,
    )


def format_results_table(
    reports: Mapping[str, EvaluationReport], domain_order: Sequence[str] | None = None
) -> str:
    """Aligned plain-text table: one row per domain plus the expanded mean.

    Columns follow the method order baseline / m1 / m2 restricted to the
    reports given; accuracies are shown in percent.
    """
    if not reports:
        raise InputError("no reports to format")
    methods = [m for m in FUSION_METHODS if m in reports]
    if domain_order is None:
        domain_order = list(next(iter(reports.values())).per_domain_accuracy)
    header = {"baseline": "Base", "m1": "M1", "m2": "M2"}
    name_width = max(len("Expanded"), *(len(d) for d in domain_order))
    lines = [
        "  ".join(
            ["Domain".ljust(name_width)] + [header[m].rjust(7) for m in methods]
        )
    ]
    for domain in domain_order:
        cells = [f"{100 * reports[m].per_domain_accuracy[domain]:7.2f}" for m in methods]
        lines.append("  ".join([domain.ljust(name_width)] + cells))
    cells = [f"{100 * reports[m].expanded_accuracy:7.2f}" for m in methods]
    lines.append("  ".join(["Expanded".ljust(name_width)] + cells))
    return "\n".join(lines)
