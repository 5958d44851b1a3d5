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
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .errors import InputError, ParameterError
from .nn import (
    ForwardCache,
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
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if self.temperature <= 0:
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")
        if self.weight_temperature <= 0:
            raise ParameterError(
                f"weight_temperature must be > 0, got {self.weight_temperature}"
            )
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.momentum < 0:
            raise ParameterError(f"momentum must be >= 0, got {self.momentum}")


@dataclass
class WeightVector:
    """Per-model mean entropies and the weights derived from them."""

    entropies: np.ndarray
    weights: np.ndarray


@dataclass
class EnsembleState:
    """The frozen original models plus their in-training updated copies."""

    originals: list[MlpModel]
    updated: list[MlpModel]

    def __post_init__(self):
        if len(self.originals) < 2:
            raise InputError("need at least two source models")
        if len(self.updated) != len(self.originals):
            raise InputError("originals and updated must have the same length")
        ref = self.originals[0]
        for model in [*self.originals, *self.updated]:
            if model.input_dim != ref.input_dim or model.num_classes != ref.num_classes:
                raise InputError("all models must share input_dim and num_classes")

    @classmethod
    def initialize(cls, models: Sequence[MlpModel]) -> "EnsembleState":
        """Copy each source model into both the frozen and the trainable slot."""
        return cls([m.copy() for m in models], [m.copy() for m in models])

    @property
    def m(self) -> int:
        return len(self.originals)


def _check_batch(batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise InputError(f"expected a nonempty (N, d) feature matrix, got {batch.shape}")
    return batch


def _check_index(i: int, m: int) -> None:
    if not 0 <= i < m:
        raise InputError(f"model index {i} out of range for {m} models")


def _mean_entropy_of(probs: np.ndarray) -> float:
    per_sample = -xlogy(probs, probs).sum(axis=1)
    return float(per_sample.mean())


def mean_entropy(model: MlpModel, new_data: np.ndarray) -> float:
    """Mean Shannon entropy (nats) of the model's softmax outputs over the dataset.

    Uniform predictions give ln(C); one-hot predictions give 0. The 0*ln(0)
    terms that appear when a probability underflows are taken as 0.
    """
    return _mean_entropy_of(softmax_outputs([model], _check_batch(new_data))[0])


def compute_weights(entropies: np.ndarray, weight_temperature: float) -> WeightVector:
    """Softmax of entropies at the given temperature, max-subtracted.

    Higher entropy (poorer new-domain fit) yields a larger weight, so weaker
    models feel more alignment pressure. At a small weight_temperature the
    softmax saturates and weights may round to exactly 0 or 1.
    """
    if weight_temperature <= 0:
        raise ParameterError(
            f"weight_temperature must be > 0, got {weight_temperature}"
        )
    entropies = np.asarray(entropies, dtype=np.float64)
    if entropies.ndim != 1 or entropies.shape[0] < 2:
        raise InputError("need entropies for at least two models")
    if not np.isfinite(entropies).all():
        raise InputError("entropies must be finite")
    scaled = entropies / weight_temperature
    scaled = scaled - scaled.max()
    exps = np.exp(scaled)
    return WeightVector(entropies, exps / exps.sum())


def _loss_terms(
    probs: np.ndarray, anchor: np.ndarray | None, peers: Sequence[np.ndarray]
) -> tuple[np.ndarray | None, list[np.ndarray], float, float]:
    """The differences probs - anchor and probs - peer, with L_org and L_bias.

    A term left out (anchor None, or no peers) contributes 0.
    """
    n = probs.shape[0]
    org_diff = None if anchor is None else probs - anchor
    l_org = 0.0 if org_diff is None else float((org_diff * org_diff).sum()) / n
    bias_diffs, l_bias = [], 0.0
    for peer in peers:
        diff = probs - peer
        l_bias += float((diff * diff).sum()) / n
        bias_diffs.append(diff)
    return org_diff, bias_diffs, l_org, l_bias


def weighted_loss_value(
    model: MlpModel,
    batch: np.ndarray,
    anchor: np.ndarray | None,
    peers: Sequence[np.ndarray],
    a_org: float,
    a_bias: float,
    temperature: float,
) -> float:
    """a_org * L_org + a_bias * L_bias on one batch, from one forward and no backward.

    The arguments are those of weighted_loss: anchor holds the original's
    softened probabilities on the batch and peers each frozen peer's
    (frozen_targets). The value equals weighted_loss's bit for bit.
    """
    probs = softmax_temperature(forward_logits(model, batch)[0], temperature)
    _, _, l_org, l_bias = _loss_terms(probs, anchor, peers)
    return a_org * l_org + a_bias * l_bias


def weighted_loss(
    model: MlpModel,
    batch: np.ndarray,
    anchor: np.ndarray | None,
    peers: Sequence[np.ndarray],
    a_org: float,
    a_bias: float,
    temperature: float,
    cache: ForwardCache | None = None,
) -> tuple[float, np.ndarray, float, float]:
    """weighted_loss_value with its gradient for model, through cache.

    Runs one forward and one backward of model, whatever the coefficients.
    Returns the total, its gradient (which aliases cache), L_org and L_bias.
    """
    logits, cache = forward_logits(model, batch, cache)
    probs = softmax_temperature(logits, temperature)
    org_diff, bias_diffs, l_org, l_bias = _loss_terms(probs, anchor, peers)
    n = probs.shape[0]
    dprobs = np.zeros_like(probs)
    if org_diff is not None:
        dprobs += (2.0 * a_org / n) * org_diff
    for diff in bias_diffs:
        dprobs += (2.0 * a_bias / n) * diff
    dlogits = softmax_temperature_backward(probs, dprobs, temperature)
    total = a_org * l_org + a_bias * l_bias
    return total, backward(model, cache, dlogits), l_org, l_bias


def frozen_targets(
    ensemble: EnsembleState,
    i: int,
    batch: np.ndarray,
    temperature: float,
    a_org: float,
    a_bias: float,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Model i's anchor and peer probabilities on the batch, unless weighted 0.

    The anchor is original i's softened output and the peers every other
    updated model's; both stay constant while model i trains.
    """
    _check_index(i, ensemble.m)
    batch = _check_batch(batch)
    anchor = [ensemble.originals[i]] if a_org else []
    others = ensemble.updated[:i] + ensemble.updated[i + 1 :] if a_bias else []
    probs = softmax_outputs(anchor + others, batch, temperature)
    return (probs.pop(0) if a_org else None), probs


def _batch_loss(
    ensemble: EnsembleState,
    i: int,
    batch: np.ndarray,
    temperature: float,
    a_org: float,
    a_bias: float,
) -> tuple[float, np.ndarray]:
    """weighted_loss of model i with its frozen targets run on the batch."""
    anchor, peers = frozen_targets(ensemble, i, batch, temperature, a_org, a_bias)
    model = ensemble.updated[i]
    return weighted_loss(model, batch, anchor, peers, a_org, a_bias, temperature)[:2]


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


def overall_loss(
    ensemble: EnsembleState,
    i: int,
    batch: np.ndarray,
    weights: WeightVector,
    hp: Hyperparams,
) -> tuple[float, np.ndarray]:
    """Preservation plus lam * w_i * bias, from one backward of the summed gradient."""
    _check_index(i, ensemble.m)
    if weights.weights.shape[0] != ensemble.m:
        raise InputError("weight vector length does not match ensemble size")
    scale = hp.lam * float(weights.weights[i])
    return _batch_loss(ensemble, i, batch, hp.temperature, 1.0, scale)


def ensemble_entropies(models: Sequence[MlpModel], new_data: np.ndarray) -> np.ndarray:
    """Each model's mean_entropy on the dataset."""
    probs = softmax_outputs(models, _check_batch(new_data))
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
    new_data = _check_batch(new_data)
    n = new_data.shape[0]
    rng = np.random.default_rng(hp.seed)
    # Batches gather their anchor and peer rows from these (N, C) arrays on
    # the whole new set, computed in the batches' chunk size; an updated model
    # still equal to its original (as after EnsembleState.initialize) shares
    # its pass. One cache serves every step and pass, so no buffer is freed
    # and page-faulted in again between epochs.
    cache = ForwardCache()
    updated = list(ensemble.updated)
    logits = [chunked_logits(m, new_data, cache) for m in ensemble.originals]
    anchors = [softmax_temperature(z, hp.temperature) for z in logits]
    for i, (model, original) in enumerate(zip(updated, ensemble.originals)):
        if not np.array_equal(model.theta, original.theta):
            logits[i] = chunked_logits(model, new_data, cache)
    softened = [softmax_temperature(z, hp.temperature) for z in logits]
    log: list[dict] = []
    for round_index in range(1, hp.epochs + 1):
        entropies = np.array([_mean_entropy_of(softmax_temperature(z, 1.0)) for z in logits])
        weights = compute_weights(entropies, hp.weight_temperature).weights
        for i in range(ensemble.m):
            opt = OptimizerState(hp.learning_rate, hp.momentum)
            order = rng.permutation(n)
            scale = hp.lam * float(weights[i])
            others = softened[:i] + softened[i + 1 :]
            org_terms, bias_terms = [], []
            for start in range(0, n, hp.batch_size):
                rows = order[start : start + hp.batch_size]
                _, grads, l_org, l_bias = weighted_loss(
                    updated[i],
                    new_data[rows],
                    anchors[i][rows],
                    [peer[rows] for peer in others],
                    1.0,
                    scale,
                    hp.temperature,
                    cache,
                )
                updated[i] = sgd_step(updated[i], grads, opt)
                org_terms.append(l_org)
                bias_terms.append(l_bias)
            # Later models in this round see model i as a trained peer.
            logits[i] = chunked_logits(updated[i], new_data, cache)
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
