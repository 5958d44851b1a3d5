"""Source-free multi-source domain expansion.

Given m classifiers pre-trained on different source domains and an unlabelled
batch of new-domain features, each classifier is updated so that its predicted
class-probability output on the new data agrees more with the
other classifiers (inter-model bias reduction) while staying close to its own
original output (preservation). Models whose outputs are high-entropy on the new
data classify it poorly, so they receive a larger share of the alignment
pressure; that share is a softmax over per-model mean entropies.

Models are updated strictly one at a time: while model i trains, every peer
and every original is a frozen constant, so gradients reach only model i's
parameters. Their probabilities on the new data are therefore computed once
on the whole set and gathered per batch, and one SGD step costs one forward
and one backward pass of model i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .nn import (
    MlpModel,
    OptimizerState,
    backward,
    chunked_logits,
    forward_logits,
    sgd_step,
    softmax_outputs,
    softmax_temperature,
    softmax_temperature_backward,
)


@dataclass
class Hyperparams:
    """Knobs of one expansion run.

    lam scales the alignment pressure against preservation;
    temperature softens the probability vectors being aligned; weight_temperature
    controls how sharply differences in the models' entropies, measured on
    plain softmax output, translate into per-model weights. All randomness
    (batch shuffling) derives from seed.
    """

    lam: float = 10.0
    temperature: float = 3.0
    weight_temperature: float = 0.1
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 7e-3
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.weight_temperature <= 0:
            raise ConfigError(
                f"weight_temperature must be > 0, got {self.weight_temperature}"
            )
        check_sgd_knobs(self)


def check_sgd_knobs(knobs) -> None:
    """Refuse the SGD knobs that Hyperparams shares with the pretrain
    section, one field at a time. Zero epochs is legal and trains nothing."""
    if knobs.epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {knobs.epochs}")
    if knobs.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {knobs.batch_size}")
    if knobs.learning_rate <= 0:
        raise ConfigError(f"learning_rate must be > 0, got {knobs.learning_rate}")
    if knobs.momentum < 0:
        raise ConfigError(f"momentum must be >= 0, got {knobs.momentum}")
    if knobs.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {knobs.seed}")


@dataclass
class WeightVector:
    """Per-model weights, derived from the models' mean entropies."""

    weights: np.ndarray


@dataclass
class EnsembleState:
    """The frozen original models plus their in-training updated copies."""

    originals: list[MlpModel]
    updated: list[MlpModel]

    def __post_init__(self):
        # expand zips the two lists, which would drop the longer one's tail.
        if len(self.updated) != len(self.originals):
            raise InputError("originals and updated must have the same length")

    @classmethod
    def initialize(cls, models: Sequence[MlpModel]) -> "EnsembleState":
        """Copy each source model into both the frozen and the trainable slot."""
        return cls([m.copy() for m in models], [m.copy() for m in models])

    @property
    def m(self) -> int:
        return len(self.originals)


def _check_index(i: int, m: int) -> None:
    if not 0 <= i < m:
        raise InputError(f"model index {i} out of range for {m} models")


def _mean_entropy_of(probs: np.ndarray) -> float:
    # ln p is left at 0 where p underflowed to 0, so each 0 * ln 0 term is 0.
    log_probs = np.log(probs, out=np.zeros_like(probs), where=probs > 0)
    per_sample = -(probs * log_probs).sum(axis=1)
    return float(per_sample.mean())


def mean_entropy(model: MlpModel, new_data: np.ndarray) -> float:
    """Mean Shannon entropy (nats) of the model's softmax outputs over the dataset.

    Uniform predictions give ln(C); one-hot predictions give 0. The 0*ln(0)
    terms that appear when a probability underflows are taken as 0.
    """
    return _mean_entropy_of(softmax_outputs([model], new_data)[0])


def compute_weights(entropies: np.ndarray, weight_temperature: float) -> WeightVector:
    """Softmax of entropies at the given temperature (softmax_temperature).

    Higher entropy (poorer new-domain fit) yields a larger weight, so weaker
    models feel more alignment pressure. At a small weight_temperature the
    softmax saturates and weights may round to exactly 0 or 1.
    """
    return WeightVector(softmax_temperature(entropies, weight_temperature))


def weighted_loss(
    logits: np.ndarray,
    targets: np.ndarray,
    a_org: float,
    a_bias: float,
    temperature: float,
) -> tuple[float, Callable[[], np.ndarray], float, float]:
    """a_org * L_org + a_bias * L_bias of one model's logits on a batch.

    targets is the model's (k, n, C) stack (see frozen_targets). L_org is
    the mean squared distance between the softened probabilities and
    targets[0], the original's on the batch; L_bias sums that distance to
    each peer in targets[1:]. Returns the total, a gradient() that gives
    dtotal/dlogits when called, L_org and L_bias.
    """
    probs = softmax_temperature(logits, temperature)
    n = probs.shape[0]
    diffs = probs - targets
    # One contiguous sum per target: the bits of float((d * d).sum()) on each.
    distances = (diffs * diffs).reshape(len(diffs), -1).sum(axis=1) / n
    l_org, l_bias = float(distances[0]), 0.0
    for distance in distances[1:]:
        l_bias += float(distance)

    def gradient() -> np.ndarray:
        dprobs = np.zeros_like(probs)
        for k, diff in enumerate(diffs):
            dprobs += (2.0 * (a_bias if k else a_org) / n) * diff
        return softmax_temperature_backward(probs, dprobs, temperature)

    return a_org * l_org + a_bias * l_bias, gradient, l_org, l_bias


def frozen_targets(
    ensemble: EnsembleState, i: int, batch: np.ndarray, temperature: float
) -> np.ndarray:
    """Model i's (m, n, C) stack of frozen targets on the batch.

    Row 0 is original i's softened output, the anchor; the rest are every
    other updated model's in index order, the peers. All stay constant while
    model i trains.
    """
    _check_index(i, ensemble.m)
    models = [ensemble.originals[i], *ensemble.updated[:i], *ensemble.updated[i + 1 :]]
    return np.stack(softmax_outputs(models, batch, temperature))


def _batch_loss(
    ensemble: EnsembleState,
    i: int,
    batch: np.ndarray,
    temperature: float,
    a_org: float,
    a_bias: float,
) -> tuple[float, np.ndarray]:
    """weighted_loss of model i and its parameter gradient, with its frozen
    targets run on the batch."""
    targets = frozen_targets(ensemble, i, batch, temperature)
    model = ensemble.updated[i]
    logits, cache = forward_logits(model, batch)
    total, gradient = weighted_loss(logits, targets, a_org, a_bias, temperature)[:2]
    return total, backward(model, cache, gradient())


def bias_loss(
    ensemble: EnsembleState, i: int, batch: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Mean squared distance between model i's softened probabilities and every peer's.

    Averaged over samples only (not over peers); gradients flow into
    updated[i] alone, every peer is a constant.
    """
    return _batch_loss(ensemble, i, batch, temperature, 0.0, 1.0)


def preservation_loss(
    ensemble: EnsembleState, i: int, batch: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Mean squared distance between model i's softened probabilities now and at init."""
    return _batch_loss(ensemble, i, batch, temperature, 1.0, 0.0)


def ensemble_entropies(models: Sequence[MlpModel], new_data: np.ndarray) -> np.ndarray:
    """Each model's mean_entropy on the dataset."""
    probs = softmax_outputs(models, new_data)
    return np.array([_mean_entropy_of(p) for p in probs])


def expand(
    ensemble: EnsembleState, new_data: np.ndarray, hp: Hyperparams
) -> tuple[EnsembleState, list[dict]]:
    """Run hp.epochs update rounds and collect the per-round training log.

    Each round first reweighs: entropy weights are computed from the current
    updated models and held fixed for the whole round. Model i then gets one
    epoch of seeded mini-batch SGD on its combined loss while all other
    models stay at whatever parameters they have reached so far; originals
    never move.

    Deterministic for a fixed hp.seed; the returned log holds one record per
    (round, model) with keys round, model_index, mean_L_org, mean_L_bias (the
    batch means of the loss terms seen during its epoch), E_i and w_i.
    """
    n = new_data.shape[0]
    rng = np.random.default_rng(hp.seed)
    # Each model's target stack is built from these (N, C) arrays on the
    # whole new set, computed in the batches' chunk size; an updated model
    # still equal to its original (a copy from EnsembleState.initialize, or
    # the original itself, as the CLI passes it) shares its pass.
    updated = list(ensemble.updated)
    logits = [chunked_logits(m, new_data) for m in ensemble.originals]
    anchors = [softmax_temperature(z, hp.temperature) for z in logits]
    for i, (model, original) in enumerate(zip(updated, ensemble.originals)):
        if not np.array_equal(model.theta, original.theta):
            logits[i] = chunked_logits(model, new_data)
    softened = [softmax_temperature(z, hp.temperature) for z in logits]
    log: list[dict] = []
    for round_index in range(1, hp.epochs + 1):
        entropies = np.array([_mean_entropy_of(softmax_temperature(z, 1.0)) for z in logits])
        weights = compute_weights(entropies, hp.weight_temperature).weights
        for i in range(ensemble.m):
            opt = OptimizerState(hp.learning_rate, hp.momentum)
            order = rng.permutation(n)
            scale = hp.lam * float(weights[i])
            targets = np.stack([anchors[i], *softened[:i], *softened[i + 1 :]])
            org_terms, bias_terms = [], []
            for start in range(0, n, hp.batch_size):
                rows = order[start : start + hp.batch_size]
                batch_logits, cache = forward_logits(updated[i], new_data[rows])
                # take, unlike targets[:, rows], returns a C-contiguous stack.
                _, gradient, l_org, l_bias = weighted_loss(
                    batch_logits, np.take(targets, rows, axis=1), 1.0, scale, hp.temperature
                )
                updated[i] = sgd_step(updated[i], backward(updated[i], cache, gradient()), opt)
                org_terms.append(l_org)
                bias_terms.append(l_bias)
            # Later models in this round see model i as a trained peer.
            logits[i] = chunked_logits(updated[i], new_data)
            softened[i] = softmax_temperature(logits[i], hp.temperature)
            log.append(
                {
                    "round": round_index,
                    "model_index": i,
                    "mean_L_org": float(np.mean(org_terms)),
                    "mean_L_bias": float(np.mean(bias_terms)),
                    "E_i": float(entropies[i]),
                    "w_i": float(weights[i]),
                }
            )
    return EnsembleState(ensemble.originals, updated), log
