"""Minimal dense-network engine.

Deterministic forward passes, hand-derived backward passes, plain SGD, and a
central finite-difference oracle for verifying any scalar loss defined on the
network output. Everything runs in float64 on numpy arrays.

Each model keeps its parameters in one contiguous vector `theta`, laid out
layer by layer as the weights (row-major) followed by the bias; the model
JSON stores it as one base64 block of little-endian float64. Each layer's
weights and bias are views into it, and a gradient is a vector with the same
layout. Parameters are checked once, where they enter from outside (building
a model from layers, loading one); training returns new models instead of
mutating.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import write_atomic
from .errors import InputError, NumericError, ParameterError, ParseError

ACTIVATIONS = ("relu", "identity")
# Rows per forward when a model runs over a whole set; the default batch size
# of pretraining and expansion.
CHUNK_ROWS = 64


@dataclass
class DenseLayer:
    """One fully-connected layer: out = act(weights @ x + bias).

    weights has shape (out_dim, in_dim); bias has shape (out_dim,). Inside a
    model both are views into its parameter vector, so change them in place.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


class _LayerShape(NamedTuple):
    """The shape of a layer without its parameters, as a model file lists it."""

    out_dim: int
    in_dim: int
    activation: str


def _layer_views(
    theta: np.ndarray, layers: Sequence[DenseLayer | _LayerShape]
) -> list[DenseLayer]:
    """Layers shaped like `layers` whose weights and bias are views into theta.

    theta must hold exactly the parameters of those layers; otherwise this
    raises InputError, or ValueError from the reshape when theta ends inside a
    weight matrix.
    """
    views, offset = [], 0
    for layer in layers:
        n_out, n_in = layer.out_dim, layer.in_dim
        weights = theta[offset : offset + n_out * n_in].reshape(n_out, n_in)
        offset += n_out * n_in
        views.append(DenseLayer(weights, theta[offset : offset + n_out], layer.activation))
        offset += n_out
    if offset != theta.size:
        raise InputError(f"parameter vector holds {theta.size} values, the layers need {offset}")
    return views


@dataclass
class MlpModel:
    """A dense feedforward classifier whose final layer emits raw logits.

    Args:
        layers: ordered dense layers; consecutive dimensions must chain.
        input_dim: expected feature count of the input batch.
        num_classes: size of the logit vector produced by the last layer.

    The layers' parameters are copied into theta, and layers is rebound to
    views into it.
    """

    layers: list[DenseLayer]
    input_dim: int
    num_classes: int
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise InputError("model needs at least one layer")
        layers = []
        for layer in self.layers:
            weights = np.asarray(layer.weights, dtype=np.float64)
            bias = np.asarray(layer.bias, dtype=np.float64)
            if weights.ndim != 2:
                raise InputError(f"layer weights must be 2-D, got shape {weights.shape}")
            if bias.shape != (weights.shape[0],):
                raise InputError(
                    f"bias shape {bias.shape} does not match out_dim {weights.shape[0]}"
                )
            if layer.activation not in ACTIVATIONS:
                raise InputError(f"unknown activation {layer.activation!r}")
            layers.append(DenseLayer(weights, bias, layer.activation))
        if layers[0].in_dim != self.input_dim:
            raise InputError(
                f"first layer expects {layers[0].in_dim} inputs, input_dim is {self.input_dim}"
            )
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise InputError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        last = layers[-1]
        if last.out_dim != self.num_classes:
            raise InputError(
                f"final layer emits {last.out_dim} values, num_classes is {self.num_classes}"
            )
        # The last layer stays linear so downstream losses see raw logits.
        if last.activation != "identity":
            raise InputError("final layer activation must be identity")
        theta = np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in layers])
        if not np.isfinite(theta).all():
            raise NumericError("layer parameters must be finite")
        self.theta = theta
        self.layers = _layer_views(theta, layers)

    def _with_theta(self, theta: np.ndarray) -> "MlpModel":
        """This architecture over theta, which is neither copied nor checked."""
        model = object.__new__(MlpModel)
        model.input_dim, model.num_classes = self.input_dim, self.num_classes
        model.theta, model.layers = theta, _layer_views(theta, self.layers)
        return model

    def copy(self) -> "MlpModel":
        return self._with_theta(self.theta.copy())


class ForwardCache:
    """The buffers of forward_logits and backward, reused from call to call.

    forward_logits writes every layer's activation here and backward its
    deltas, ReLU masks and gradient vector. Each buffer is allocated once,
    for the largest batch seen, and a smaller batch uses its first rows;
    arrays that these calls return alias the buffers, so they hold only until
    the next call through the same cache. inputs and activations describe the
    last forward pass.
    """

    def __init__(self):
        self.inputs: np.ndarray | None = None
        self.activations: list[np.ndarray] = []
        self._buffers: dict[tuple, np.ndarray] = {}

    def _buffer(self, key: tuple, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The first shape[0] rows of buffer key, reallocated if it does not fit."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf[: shape[0]]


@dataclass
class OptimizerState:
    """Plain SGD with an optional momentum buffer."""

    learning_rate: float
    momentum: float = 0.0
    velocity: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # lr = 0 is allowed: a zero step must be an exact no-op.
        if self.learning_rate < 0:
            raise ParameterError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.momentum < 0:
            raise ParameterError(f"momentum must be >= 0, got {self.momentum}")


def init_mlp(
    input_dim: int,
    hidden_units: Sequence[int],
    num_classes: int,
    rng: np.random.Generator,
) -> MlpModel:
    """Build a relu MLP with uniform Glorot initialization and zero biases."""
    dims = [input_dim, *hidden_units, num_classes]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        activation = "identity" if i == len(dims) - 2 else "relu"
        layers.append(DenseLayer(weights, np.zeros(fan_out), activation))
    return MlpModel(layers, input_dim, num_classes)


def _as_batch(batch: np.ndarray, input_dim: int) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != input_dim:
        raise InputError(
            f"batch must have shape (N, {input_dim}), got {batch.shape}"
        )
    return batch


def forward_logits(
    model: MlpModel, batch: np.ndarray, cache: ForwardCache | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch, returning (N, C) logits and the cache.

    The cache records every layer's activation so that backward() can replay
    the chain rule without recomputation. Each layer's product goes into the
    cache's buffer for it, then the bias is added and ReLU applied in place,
    which gives the same bits as np.maximum(act @ W.T + b, 0.0). cache=None
    uses a fresh cache; the logits alias the cache until its next use.
    """
    batch = _as_batch(batch, model.input_dim)
    if cache is None:
        cache = ForwardCache()
    rows = batch.shape[0]
    cache.inputs, cache.activations = batch, []
    act = batch
    for idx, layer in enumerate(model.layers):
        out = cache._buffer(("act", idx), (rows, layer.out_dim))
        act = np.matmul(act, layer.weights.T, out=out)
        act += layer.bias
        if layer.activation == "relu":
            np.maximum(act, 0.0, out=act)
        cache.activations.append(act)
    if not np.isfinite(act).all():
        raise NumericError("forward pass produced non-finite logits")
    return act, cache


def chunked_logits(
    model: MlpModel, data: np.ndarray, cache: ForwardCache | None = None
) -> np.ndarray:
    """The model's (N, C) logits on a whole set, CHUNK_ROWS rows at a time.

    The chunks share one cache (a fresh one if cache is None), so the set's
    size does not change the size of any intermediate array, and each row's
    logits are those of a forward on its chunk alone. The result is a new
    array that aliases no cache.
    """
    data = _as_batch(data, model.input_dim)
    logits = np.empty((data.shape[0], model.num_classes))
    if cache is None:
        cache = ForwardCache()
    for start in range(0, data.shape[0], CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        logits[start:stop] = forward_logits(model, data[start:stop], cache)[0]
    return logits


def softmax_outputs(
    models: Sequence[MlpModel], data: np.ndarray, temperature: float = 1.0
) -> list[np.ndarray]:
    """Each model's (N, C) softmax matrix at temperature on a whole set, from
    one chunked_logits pass per model through one shared cache."""
    cache = ForwardCache()
    return [softmax_temperature(chunked_logits(m, data, cache), temperature) for m in models]


def softmax_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-softened softmax along the last axis.

    Computed in max-subtracted form; output rows are strictly positive and
    sum to 1. Accepts a single logit vector or an (N, C) batch.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise InputError("logits must be finite")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exps = np.exp(scaled)
    return exps / exps.sum(axis=-1, keepdims=True)


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InputError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InputError(f"labels must lie in [0, {num_classes})")
    return labels.astype(np.int64)


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, Callable[[], np.ndarray]]:
    """Mean negative log softmax probability of the true class, and its gradient.

    gradient() returns dL/dlogits = (softmax - onehot) / N; it is computed
    only when called, so a caller that needs the value alone pays for no
    gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits.shape[-1])
    n = logits.shape[0]
    if n != labels.shape[0]:
        raise InputError("logits and labels disagree on batch size")
    if n == 0:
        raise InputError("cross-entropy needs a nonempty batch")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    value = -float((shifted[rows, labels] - np.log(sums[:, 0])).sum()) / n

    def gradient() -> np.ndarray:
        grad = exps / sums
        grad[rows, labels] -= 1.0
        return grad / n

    return value, gradient


def softmax_temperature_backward(
    probs: np.ndarray, dprobs: np.ndarray, temperature: float
) -> np.ndarray:
    """Chain dL/dprobs back through softmax(logits / T) to dL/dlogits."""
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner) / temperature


def backward(model: MlpModel, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Backpropagate dL/dlogits through the cached forward pass.

    Returns dL/dtheta, laid out like model.theta, in the cache's gradient
    buffer: it aliases the cache until its next use. The ReLU mask is read
    from the activations (act > 0 exactly where z > 0) into a mask buffer and
    multiplied into delta in place; delta lives in the cache's buffers, as
    the last layer is linear, so dlogits is never written.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.activations[-1].shape:
        raise InputError(
            f"dlogits shape {dlogits.shape} does not match cached logits "
            f"{cache.activations[-1].shape}"
        )
    rows = dlogits.shape[0]
    grads = cache._buffer(("grad",), model.theta.shape)
    grad_layers = _layer_views(grads, model.layers)
    delta = dlogits
    for idx in range(len(model.layers) - 1, -1, -1):
        layer, out = model.layers[idx], grad_layers[idx]
        if layer.activation == "relu":
            act = cache.activations[idx]
            mask = np.greater(act, 0.0, out=cache._buffer(("mask", idx), act.shape, np.bool_))
            np.multiply(delta, mask, out=delta)
        prev_act = cache.inputs if idx == 0 else cache.activations[idx - 1]
        np.matmul(delta.T, prev_act, out=out.weights)
        delta.sum(axis=0, out=out.bias)
        if idx > 0:
            shape = (rows, layer.in_dim)
            delta = np.matmul(delta, layer.weights, out=cache._buffer(("delta", idx - 1), shape))
    return grads


def sgd_step(model: MlpModel, grads: np.ndarray, opt: OptimizerState) -> MlpModel:
    """One descent step; returns a new model, mutating only opt's momentum buffer."""
    if grads.shape != model.theta.shape:
        raise InputError(
            f"gradient shape {grads.shape} does not match parameters {model.theta.shape}"
        )
    step = grads
    if opt.momentum > 0:
        # Starting from zeros, not a copy of grads, keeps the first step
        # 0 * momentum + g, which differs from g in the sign of zeros.
        if opt.velocity is None:
            opt.velocity = np.zeros_like(model.theta)
        opt.velocity *= opt.momentum
        opt.velocity += grads
        step = opt.velocity
    new_theta = step * opt.learning_rate
    np.subtract(model.theta, new_theta, out=new_theta)
    return model._with_theta(new_theta)


def finite_diff_gradient(
    loss_fn: Callable[[MlpModel], float], model: MlpModel, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of loss_fn over every model parameter.

    Exhaustive, so only usable on tiny models; this is the oracle against
    which all analytic gradients are checked. loss_fn gets one probe copy of
    the model whose parameters are each shifted in place and restored.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")

    probe = model.copy()
    theta = probe.theta

    def eval_perturbed(index: int, delta: float) -> float:
        original = theta[index]
        theta[index] = original + delta
        try:
            value = loss_fn(probe)
        finally:
            theta[index] = original
        if not np.isfinite(value):
            raise NumericError(f"loss became non-finite at parameter {index}")
        return float(value)

    grads = np.zeros_like(model.theta)
    for index in range(grads.size):
        plus = eval_perturbed(index, epsilon)
        minus = eval_perturbed(index, -epsilon)
        grads[index] = (plus - minus) / (2.0 * epsilon)
    return grads


def fit_classifier(
    model: MlpModel,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    opt: OptimizerState,
    rng: np.random.Generator,
) -> MlpModel:
    """Mini-batch cross-entropy SGD; returns the trained model."""
    features = _as_batch(features, model.input_dim)
    labels = _check_labels(labels, model.num_classes)
    n = features.shape[0]
    if n == 0:
        raise InputError("cannot fit on an empty dataset")
    cache = ForwardCache()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            logits, _ = forward_logits(model, features[take], cache)
            gradient = cross_entropy(logits, labels[take])[1]
            model = sgd_step(model, backward(model, cache, gradient()), opt)
    return model


def model_to_dict(model: MlpModel) -> dict:
    """The model as a JSON document.

    Layers list only their shapes; "theta" holds the base64 of the parameter
    vector's little-endian float64 bytes, which round-trips bit for bit.
    """
    return {
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "layers": [
            {"in": layer.in_dim, "out": layer.out_dim, "activation": layer.activation}
            for layer in model.layers
        ],
        "theta": base64.b64encode(model.theta.astype("<f8", copy=False).tobytes()).decode(),
    }


def model_from_dict(doc: dict) -> MlpModel:
    try:
        shapes = [
            _LayerShape(spec["out"], spec["in"], spec["activation"]) for spec in doc["layers"]
        ]
        theta = np.frombuffer(base64.b64decode(doc["theta"], validate=True), dtype="<f8")
        return MlpModel(_layer_views(theta, shapes), doc["input_dim"], doc["num_classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model document: {exc}") from exc


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write the model JSON atomically; a model with a non-finite parameter
    is refused."""
    if not np.isfinite(model.theta).all():
        raise NumericError(f"refusing to save {path}: model parameters are not finite")
    write_atomic(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> MlpModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return model_from_dict(doc)
