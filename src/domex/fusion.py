"""Fusing ensembles into one classifier and computing reported metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import DomainDataset
from .errors import InputError
from .nn import MlpModel, softmax_outputs


def _mean(probs: Sequence[np.ndarray]) -> np.ndarray:
    return sum(probs) / len(probs)


# Each method's rule and the roles whose softmax matrices it takes, in order:
# baseline and m1 average the original or the updated models' outputs; m2
# sums each (original, updated) pair's per-class maxima, so its rows need not
# sum to 1 and only the argmax is meaningful.
_RULES = {
    "baseline": (("originals",), _mean),
    "m1": (("updated",), _mean),
    "m2": (("originals", "updated"), lambda orig, upd: sum(map(np.maximum, upd, orig))),
}
FUSION_METHODS = tuple(_RULES)


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


def fuse(
    method: str,
    originals: Sequence[np.ndarray] | None,
    updated: Sequence[np.ndarray] | None,
) -> PredictionBatch:
    """Fuse per-model (N, C) softmax matrices, as nn.softmax_outputs returns
    them, by one of FUSION_METHODS; a role the method does not read may be None."""
    if method not in _RULES:
        raise InputError(f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}")
    roles, rule = _RULES[method]
    probs = [{"originals": originals, "updated": updated}[role] for role in roles]
    if any(p is None for p in probs):
        raise InputError(f"method {method} fuses the {' and '.join(roles)} models' outputs")
    if not all(map(len, probs)):
        raise InputError("need at least one model to fuse")
    if len(set(map(len, probs))) > 1:
        raise InputError("originals and updated must pair up one-to-one")
    return PredictionBatch.from_scores(rule(*probs))


# The rules on models, each run over the batch first.
def fuse_baseline(originals: Sequence[MlpModel], batch: np.ndarray) -> PredictionBatch:
    return fuse("baseline", softmax_outputs(originals, batch), None)


def fuse_m1(updated: Sequence[MlpModel], batch: np.ndarray) -> PredictionBatch:
    return fuse("m1", None, softmax_outputs(updated, batch))


def fuse_m2(
    originals: Sequence[MlpModel], updated: Sequence[MlpModel], batch: np.ndarray
) -> PredictionBatch:
    return fuse("m2", softmax_outputs(originals, batch), softmax_outputs(updated, batch))


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
    the same models and test sets passes each test set through each model once.
    """
    if not test_sets:
        raise InputError("need at least one test set")
    if outputs is None:
        outputs = {}
    roles = _RULES.get(method, ((), None))[0]
    models = {"originals": originals, "updated": updated}
    per_domain = {}
    for name, ds in test_sets.items():
        if ds.labels is None:
            raise InputError(f"test set {name!r} has no labels")
        for role in roles:
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
