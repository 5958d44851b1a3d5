"""Minimal dense-network engine.

Deterministic forward passes, hand-derived backward passes, plain SGD, and a
central finite-difference oracle for verifying any loss, or vector of losses,
defined on the network output. Everything runs in float64 on numpy arrays.

Each model keeps its parameters in one contiguous vector `theta`, laid out
layer by layer as the weights (row-major) followed by the bias; a model file
is one JSON header line with the layer widths, then theta's little-endian
float64 bytes. Each layer's weights and bias are views into theta, and a
gradient is a vector with the same layout. ReLU follows every layer but the
last, which emits logits. A model is built from its widths and theta alone,
which MlpModel checks once, whoever builds it (init_mlp, load_model), and
training returns new models instead of mutating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import write_atomic
from .errors import ConfigError, InputError, NumericError

# Rows per forward when a model runs over a whole set; the default batch size
# of pretraining and expansion.
CHUNK_ROWS = 64
# The step of finite_diff_gradient's central differences.
FINITE_DIFF_EPSILON = 1e-5


@dataclass
class DenseLayer:
    """One fully-connected layer: out = weights @ x + bias, then ReLU unless
    it is its model's last layer.

    weights has shape (out_dim, in_dim); bias has shape (out_dim,). Inside a
    model both are views into its parameter vector, so change them in place.
    """

    weights: np.ndarray
    bias: np.ndarray


def _layer_views(theta: np.ndarray, dims: Sequence[int]) -> list[DenseLayer]:
    """The layers of widths dims, whose weights and bias are views into theta,
    which must hold exactly their parameters."""
    views, offset = [], 0
    for n_in, n_out in zip(dims, dims[1:]):
        weights = theta[offset : offset + n_out * n_in].reshape(n_out, n_in)
        offset += n_out * n_in
        views.append(DenseLayer(weights, theta[offset : offset + n_out]))
        offset += n_out
    return views


@dataclass
class MlpModel:
    """A dense feedforward classifier: ReLU follows every layer but the last,
    which emits raw logits.

    Args:
        dims: two or more positive integer widths, the input's first and the
            class count last; kept as plain ints.
        theta: every layer's weights (row-major) then bias, layer by layer;
            copied as float64.

    layers holds views into theta, one DenseLayer per pair of widths.
    """

    dims: list[int]
    theta: np.ndarray = field(repr=False)
    layers: list[DenseLayer] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.dims, (list, tuple, np.ndarray)) or len(self.dims) < 2:
            raise InputError(f"dims must list two or more widths, got {self.dims!r}")
        for k, width in enumerate(self.dims):
            # bool is an int: unchecked, JSON's true would read as 1.
            if isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1:
                raise InputError(f"dims[{k}] must be a positive integer, got {width!r}")
        self.dims = [int(width) for width in self.dims]
        self.theta = np.array(self.theta, dtype=np.float64)
        need = sum(n_out * (n_in + 1) for n_in, n_out in zip(self.dims, self.dims[1:]))
        if need != self.theta.size:
            raise InputError(
                f"parameter vector holds {self.theta.size} values, the layers need {need}"
            )
        self.layers = _layer_views(self.theta, self.dims)
        if not np.isfinite(self.theta).all():
            raise NumericError("model parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    def _with_theta(self, theta: np.ndarray) -> "MlpModel":
        """This architecture over theta, which is neither copied nor checked."""
        model = object.__new__(MlpModel)
        model.dims, model.theta = self.dims, theta
        model.layers = _layer_views(theta, self.dims)
        return model

    def copy(self) -> "MlpModel":
        return self._with_theta(self.theta.copy())


@dataclass
class OptimizerState:
    """Plain SGD with an optional momentum buffer."""

    learning_rate: float
    momentum: float = 0.0
    velocity: np.ndarray | None = field(default=None, repr=False)


def init_mlp(
    input_dim: int,
    hidden_units: Sequence[int],
    num_classes: int,
    rng: np.random.Generator,
) -> MlpModel:
    """Build a relu MLP with uniform Glorot initialization and zero biases."""
    dims = [input_dim, *hidden_units, num_classes]
    parts = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, size=fan_out * fan_in), np.zeros(fan_out)]
    return MlpModel(dims, np.concatenate(parts))


def _check_batch(batch: np.ndarray, input_dim: int) -> None:
    if batch.ndim != 2 or batch.shape[1] != input_dim:
        raise InputError(
            f"batch must have shape (N, {input_dim}), got {batch.shape}"
        )


def forward_logits(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch, returning (N, C) logits and the cache.

    The cache is the list [batch, act_1, ..., logits]: layer idx reads
    cache[idx] and writes cache[idx + 1], so backward() replays the chain
    rule without recomputation. Each layer's product is a new array; the bias
    is added and ReLU applied to it in place, which gives the same bits as
    np.maximum(act @ W.T + b, 0.0).
    """
    _check_batch(batch, model.input_dim)
    cache, last = [batch], len(model.layers) - 1
    for idx, layer in enumerate(model.layers):
        act = cache[idx] @ layer.weights.T
        act += layer.bias
        if idx < last:
            np.maximum(act, 0.0, out=act)
        cache.append(act)
    if not np.isfinite(act).all():
        raise NumericError("forward pass produced non-finite logits")
    return act, cache


def chunked_logits(model: MlpModel, data: np.ndarray) -> np.ndarray:
    """The model's (N, C) logits on a whole set, CHUNK_ROWS rows at a time.

    The set's size does not change the size of any intermediate array, and
    each row's logits are those of a forward on its chunk alone.
    """
    _check_batch(data, model.input_dim)
    logits = np.empty((data.shape[0], model.num_classes))
    for start in range(0, data.shape[0], CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        logits[start:stop] = forward_logits(model, data[start:stop])[0]
    return logits


def softmax_outputs(
    models: Sequence[MlpModel], data: np.ndarray, temperature: float = 1.0
) -> list[np.ndarray]:
    """Each model's (N, C) softmax matrix at temperature on a whole set, from
    one chunked_logits pass per model."""
    return [softmax_temperature(chunked_logits(m, data), temperature) for m in models]


def softmax_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-softened softmax along the last axis.

    Computed in max-subtracted form; output rows are strictly positive and
    sum to 1. Accepts a single logit vector or an (N, C) batch.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exps = np.exp(scaled)
    return exps / exps.sum(axis=-1, keepdims=True)


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    # numpy would index with bool labels as a mask, not as classes 0 and 1.
    if labels.dtype.kind not in "iu":
        raise InputError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.ndim != 1:
        raise InputError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InputError(f"labels must lie in [0, {num_classes})")


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, Callable[[], np.ndarray]]:
    """Mean negative log softmax probability of the true class, and its gradient.

    gradient() returns dL/dlogits = (softmax - onehot) / N; it is computed
    only when called, so a caller that needs the value alone pays for no
    gradient.
    """
    _check_labels(labels, logits.shape[-1])
    n = logits.shape[0]
    if n != labels.shape[0]:  # one label would broadcast to every row
        raise InputError("logits and labels disagree on batch size")
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


def backward(model: MlpModel, cache: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Backpropagate dL/dlogits through the cache of forward_logits.

    Returns dL/dtheta, laid out like model.theta. The ReLU mask is read from
    each layer's output (act > 0 exactly where z > 0) and multiplied in place
    into delta, which by then is a new array, as the last layer is linear:
    dlogits is never written.
    """
    grads = np.empty_like(model.theta)
    grad_layers = _layer_views(grads, model.dims)
    delta, last = dlogits, len(model.layers) - 1
    for idx in range(last, -1, -1):
        layer, out = model.layers[idx], grad_layers[idx]
        if idx < last:
            delta *= cache[idx + 1] > 0.0
        np.matmul(delta.T, cache[idx], out=out.weights)
        delta.sum(axis=0, out=out.bias)
        if idx > 0:
            delta = delta @ layer.weights
    return grads


def sgd_step(model: MlpModel, grads: np.ndarray, opt: OptimizerState) -> MlpModel:
    """One descent step; returns a new model whose theta is grads' buffer.

    grads is consumed: the new parameters theta - lr * step are built in it,
    with the same operations and so the same bits as that formula, and the
    step allocates no parameter vector. model is never written; opt's
    momentum buffer is updated in place. grads must be a writable C-contiguous
    float64 vector of theta's shape, which backward's result always is.
    """
    # A scalar or (1,) grads would broadcast into the momentum buffer.
    if grads.shape != model.theta.shape:
        raise InputError(
            f"gradient shape {grads.shape} does not match parameters {model.theta.shape}"
        )
    # The new model's layers are views into grads, so it must be a plain buffer.
    if grads.dtype != np.float64 or not (grads.flags.c_contiguous and grads.flags.writeable):
        raise InputError("gradient must be a writable C-contiguous float64 array")
    step = grads
    if opt.momentum > 0:
        # Starting from zeros, not a copy of grads, keeps the first step
        # 0 * momentum + g, which differs from g in the sign of zeros.
        if opt.velocity is None:
            opt.velocity = np.zeros_like(model.theta)
        opt.velocity *= opt.momentum
        opt.velocity += grads
        step = opt.velocity
    np.multiply(step, opt.learning_rate, out=grads)
    np.subtract(model.theta, grads, out=grads)
    return model._with_theta(grads)


def finite_diff_gradient(
    loss_fn: Callable[[MlpModel], float | np.ndarray], model: MlpModel
) -> np.ndarray:
    """Central-difference gradient of loss_fn over every model parameter.

    Exhaustive, so only usable on tiny models; this is the oracle against
    which all analytic gradients are checked. loss_fn gets one probe copy of
    the model whose parameters are each shifted in place and restored. A
    loss_fn that returns a 1-D array of k values gets a (P, k) array back:
    column j is what a loss_fn returning value j alone would get.
    """
    probe = model.copy()
    theta = probe.theta

    def eval_perturbed(index: int, delta: float) -> np.ndarray:
        original = theta[index]
        theta[index] = original + delta
        try:
            value = np.asarray(loss_fn(probe), dtype=np.float64)
        finally:
            theta[index] = original
        if not np.isfinite(value).all():
            raise NumericError(f"loss became non-finite at parameter {index}")
        return value

    grads = []
    for index in range(theta.size):
        plus = eval_perturbed(index, FINITE_DIFF_EPSILON)
        minus = eval_perturbed(index, -FINITE_DIFF_EPSILON)
        grads.append((plus - minus) / (2.0 * FINITE_DIFF_EPSILON))
    return np.array(grads)


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
    _check_batch(features, model.input_dim)
    _check_labels(labels, model.num_classes)
    n = features.shape[0]
    if n == 0:
        raise InputError("cannot fit on an empty dataset")
    if labels.shape[0] != n:
        raise InputError("labels must align one-to-one with feature rows")
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            logits, cache = forward_logits(model, features[take])
            gradient = cross_entropy(logits, labels[take])[1]
            model = sgd_step(model, backward(model, cache, gradient()), opt)
    return model


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write the model file atomically: one compact JSON header line, then
    theta's little-endian float64 bytes. A model with a non-finite parameter
    is refused."""
    if not np.isfinite(model.theta).all():
        raise NumericError(f"refusing to save {path}: model parameters are not finite")
    head = json.dumps({"dims": model.dims}, separators=(",", ":")).encode() + b"\n"
    # Two chunks, the second read through the buffer protocol: no file image.
    write_atomic(path, (head, memoryview(model.theta.astype("<f8", copy=False))))


def load_model(path: str | Path) -> MlpModel:
    """Read a model file that save_model wrote; theta is a view of its bytes
    until MlpModel copies and checks it. This checks only the container and
    raises each of MlpModel's refusals again with the path."""
    raw = Path(path).read_bytes()
    end = raw.find(b"\n")  # -1 without a line end; json refuses the empty header
    try:
        header = json.loads(raw[: max(end, 0)].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"line 1: {path}: the header line is not JSON in UTF-8: {exc}") from exc
    if not isinstance(header, dict) or "dims" not in header:
        raise InputError(f"{path}: the header line is not a JSON object with the key dims")
    body = len(raw) - end - 1
    if body % 8:
        raise InputError(f"{path}: theta holds {body} bytes, not a whole number of float64s")
    theta = np.frombuffer(raw, dtype="<f8", offset=end + 1)
    try:
        return MlpModel(header["dims"], theta)
    except (InputError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
