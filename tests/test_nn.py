"""Forward, softmax, loss, backward, and SGD oracles for the dense network."""

import base64
import json
import math
import os
import re
import struct

import numpy as np
import pytest

from domex import nn
from domex.errors import ConfigError, InputError, NumericError


# ---------------------------------------------------------------------------
# forward_logits


def test_forward_identity_layer(linear_model):
    model = linear_model(np.zeros(2), weights=np.eye(2))
    logits, _ = nn.forward_logits(model, np.array([[1.0, 2.0]]))
    assert np.array_equal(logits, np.array([[1.0, 2.0]]))


def test_forward_constant_map(linear_model):
    model = linear_model([3.0, -1.0], input_dim=3)
    logits, _ = nn.forward_logits(model, np.random.default_rng(0).normal(size=(4, 3)))
    assert np.allclose(logits, np.array([3.0, -1.0]), atol=0)


def test_forward_matches_straight_line_recomputation():
    rng = np.random.default_rng(7)
    model = nn.init_mlp(3, [4], 2, rng)
    x = rng.normal(size=(6, 3))
    logits, _ = nn.forward_logits(model, x)

    w1, b1 = model.layers[0].weights, model.layers[0].bias
    w2, b2 = model.layers[1].weights, model.layers[1].bias
    expected = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    assert np.max(np.abs(logits - expected)) <= 1e-12


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    model = nn.init_mlp(4, [5], 3, rng)
    x = rng.normal(size=(8, 4))
    a, _ = nn.forward_logits(model, x)
    b, _ = nn.forward_logits(model, x)
    assert np.array_equal(a, b)


def test_forward_rejects_wrong_width(linear_model):
    model = linear_model(np.zeros(2), weights=np.eye(2))
    with pytest.raises(InputError):
        nn.forward_logits(model, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# softmax_temperature


def test_softmax_equal_logits_uniform():
    assert np.allclose(nn.softmax_temperature(np.array([0.0, 0.0]), 3.0), 0.5, atol=0)


def test_softmax_scalar_evaluation():
    out = nn.softmax_temperature(np.array([math.log(2.0), 0.0]), 1.0)
    assert np.max(np.abs(out - np.array([2.0 / 3.0, 1.0 / 3.0]))) <= 1e-12


def test_softmax_huge_temperature_is_uniform():
    logits = np.array([5.0, -3.0, 1.0, 0.0])
    out = nn.softmax_temperature(logits, 1e6)
    assert np.max(np.abs(out - 0.25)) <= 1e-5


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        logits = rng.normal(scale=30.0, size=(5, 7))
        out = nn.softmax_temperature(logits, rng.uniform(0.2, 5.0))
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(4, 6))
    shifted = nn.softmax_temperature(logits + 123.456, 2.0)
    assert np.max(np.abs(shifted - nn.softmax_temperature(logits, 2.0))) <= 1e-12


def test_softmax_entropy_nondecreasing_in_temperature():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=9)
    last = -1.0
    for t in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0]:
        p = nn.softmax_temperature(logits, t)
        ent = float(-np.sum(p * np.log(p)))
        assert ent >= last - 1e-12
        last = ent


def test_softmax_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        nn.softmax_temperature(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ConfigError):
        nn.softmax_temperature(np.array([1.0, 2.0]), -1.0)


# ---------------------------------------------------------------------------
# cross_entropy


def test_cross_entropy_uniform_prediction():
    loss, _ = nn.cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert abs(loss - math.log(2.0)) <= 1e-12


def test_cross_entropy_confident_correct():
    loss, _ = nn.cross_entropy(np.array([[50.0, 0.0, 0.0]]), np.array([0]))
    assert loss <= 1e-12


def test_cross_entropy_scalar_evaluation():
    loss, _ = nn.cross_entropy(np.array([[1.0, -1.0]]), np.array([1]))
    assert abs(loss - math.log(1.0 + math.exp(2.0))) <= 1e-12


def test_cross_entropy_nonnegative_and_mean_over_batch():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    total, _ = nn.cross_entropy(logits, labels)
    assert total >= 0
    per_row = [
        nn.cross_entropy(logits[n : n + 1], labels[n : n + 1])[0] for n in range(10)
    ]
    assert abs(total - np.mean(per_row)) <= 1e-12


def test_cross_entropy_rejects_out_of_range_label():
    with pytest.raises(InputError):
        nn.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    # -1 would index the last class.
    with pytest.raises(InputError, match="must lie in"):
        nn.cross_entropy(np.zeros((2, 3)), np.array([0, -1]))


def test_cross_entropy_rejects_labels_that_do_not_match_the_rows():
    # Each would broadcast against the rows and score a plausible loss.
    with pytest.raises(InputError, match="must be 1-D"):
        nn.cross_entropy(np.zeros((2, 3)), np.array([[0], [1]]))
    with pytest.raises(InputError, match="disagree on batch size"):
        nn.cross_entropy(np.zeros((2, 3)), np.array([1]))


@pytest.mark.parametrize("labels", [[0.5, 2.9], [0.0, np.nan], [False, True, False]])
def test_cross_entropy_refuses_labels_that_are_not_whole_numbers(labels):
    # numpy refuses to index with floats, and would read the bools as a mask
    # picking class 1 for every row
    labels = np.array(labels)
    with pytest.raises(InputError, match=f"integers, got dtype {labels.dtype}$"):
        nn.cross_entropy(np.zeros((labels.size, 3)), labels)


def test_cross_entropy_gradient_formula():
    # dL/dz = (softmax(z) - onehot) / N
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    grad = nn.cross_entropy(logits, labels)[1]()
    probs = nn.softmax_temperature(logits, 1.0)
    onehot = np.zeros_like(probs)
    onehot[np.arange(4), labels] = 1.0
    assert np.max(np.abs(grad - (probs - onehot) / 4.0)) <= 1e-12


def test_cross_entropy_gives_the_bits_of_the_separate_formulas():
    # the value as the mean of log_softmax at the labels, the gradient as
    # (softmax - onehot) / N, each written out in full
    rng = np.random.default_rng(34)
    for _ in range(200):
        n, c = rng.integers(1, 70), rng.integers(2, 12)
        logits = rng.normal(0.0, rng.uniform(0.1, 30.0), size=(n, c))
        labels = rng.integers(0, c, size=n)
        rows = np.arange(n)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        probs[rows, labels] -= 1.0
        value, gradient = nn.cross_entropy(logits, labels)
        assert value == float(-log_probs[rows, labels].mean())
        assert same_bits(gradient(), probs / n)


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gradient():
    rng = np.random.default_rng(6)
    model = nn.init_mlp(3, [4], 2, rng)
    x = rng.normal(size=(5, 3))
    _, cache = nn.forward_logits(model, x)
    grads = nn.backward(model, cache, np.zeros((5, 2)))
    assert np.all(grads == 0.0)


def test_backward_sum_loss_hand_case(linear_model):
    # L = sum(logits) on one linear layer: dL/dW has the column sums of the
    # inputs in every row, dL/db counts the batch size.
    model = linear_model(np.zeros(2))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    _, cache = nn.forward_logits(model, x)
    grads = nn.backward(model, cache, np.ones((2, 2)))
    # dL/dtheta is laid out as the weights row by row, then the bias.
    assert np.array_equal(grads, np.array([4.0, 6.0, 4.0, 6.0, 2.0, 2.0]))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    model = nn.init_mlp(3, [4], 3, rng)
    x = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)

    _, cache = nn.forward_logits(model, x)
    logits = cache[-1]
    analytic = nn.backward(model, cache, nn.cross_entropy(logits, labels)[1]())
    numeric = nn.finite_diff_gradient(
        lambda m: nn.cross_entropy(nn.forward_logits(m, x)[0], labels)[0], model
    )
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


# ---------------------------------------------------------------------------
# sgd_step


def test_sgd_zero_learning_rate_is_noop():
    rng = np.random.default_rng(9)
    model = nn.init_mlp(2, [3], 2, rng)
    grads = rng.normal(size=model.theta.shape)
    stepped = nn.sgd_step(model, grads, nn.OptimizerState(learning_rate=0.0))
    assert np.array_equal(stepped.theta, model.theta)


def test_sgd_exact_cancellation():
    rng = np.random.default_rng(10)
    model = nn.init_mlp(2, [3], 2, rng)
    grads = model.theta.copy()
    stepped = nn.sgd_step(model, grads, nn.OptimizerState(learning_rate=1.0))
    for layer in stepped.layers:
        assert np.all(layer.weights == 0.0)
        assert np.all(layer.bias == 0.0)


def test_sgd_scalar_arithmetic(linear_model):
    model = linear_model([0.0], weights=[[1.0]])
    grads = np.array([2.0, 0.0])
    stepped = nn.sgd_step(model, grads, nn.OptimizerState(learning_rate=0.1))
    assert abs(stepped.layers[0].weights[0, 0] - 0.8) <= 1e-15


def test_sgd_momentum_accumulates(linear_model):
    # v1 = g, v2 = mu*v1 + g; two steps move by lr*(v1+v2).
    model = linear_model([0.0], weights=[[1.0]])
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    # sgd_step builds the new theta in its gradient: each step gets a fresh one.
    model = nn.sgd_step(model, np.array([1.0, 0.0]), opt)
    model = nn.sgd_step(model, np.array([1.0, 0.0]), opt)
    assert abs(model.layers[0].weights[0, 0] - (1.0 - 0.1 * (1.0 + 1.5))) <= 1e-15


def test_sgd_step_rejects_a_gradient_that_would_broadcast():
    # With momentum, velocity += g would add one scalar to every parameter.
    model = nn.init_mlp(2, [3], 2, np.random.default_rng(9))
    for grads in (np.ones(1), np.ones(())):
        with pytest.raises(InputError, match="gradient shape"):
            nn.sgd_step(model, grads, nn.OptimizerState(0.1, momentum=0.9))


@pytest.mark.parametrize(
    "make",
    [
        lambda theta: np.ones_like(theta, dtype=np.float32),
        lambda theta: np.ones_like(theta, dtype=np.int64),
        lambda theta: np.ones(2 * theta.size)[::2],
        lambda theta: np.frombuffer(np.ones_like(theta).tobytes()),
    ],
    ids=["float32", "int64", "strided", "read-only"],
)
def test_sgd_step_refuses_a_gradient_it_cannot_build_theta_in(make):
    """The new model's layers are views into the gradient's buffer."""
    model = nn.init_mlp(2, [3], 2, np.random.default_rng(9))
    theta, grads = model.theta.copy(), make(model.theta)
    with pytest.raises(InputError, match="^gradient must be a writable C-contiguous float64 array$"):
        nn.sgd_step(model, grads, nn.OptimizerState(0.1, momentum=0.9))
    assert same_bits(model.theta, theta)


# ---------------------------------------------------------------------------
# one training step: the unfused formulas, inputs left alone, allocations


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_forward(model, x):
    """The unfused forward: z = x @ W.T + b, then np.maximum(z, 0.0)."""
    pre, post, act = [], [], x
    for idx, layer in enumerate(model.layers, 1):
        z = act @ layer.weights.T + layer.bias
        act = z if idx == len(model.layers) else np.maximum(z, 0.0)
        pre.append(z)
        post.append(act)
    return pre, post


def reference_backward(model, x, pre, post, dlogits):
    """The unfused backward, with the ReLU mask taken from z > 0."""
    blocks, delta = [], dlogits
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        if idx < len(model.layers) - 1:
            delta = delta * (pre[idx] > 0)
        prev = x if idx == 0 else post[idx - 1]
        blocks[:0] = [(delta.T @ prev).ravel(), delta.sum(axis=0)]
        delta = delta @ layer.weights
    return np.concatenate(blocks)


def zero_pre_activation_setup():
    """A two-hidden-layer model, some of whose pre-activations are exactly 0."""
    rng = np.random.default_rng(30)
    model = nn.init_mlp(4, [6, 5], 3, rng)
    model.layers[0].bias[:] = rng.normal(size=6)
    model.layers[0].weights[1] = 0.0
    model.layers[0].bias[1] = 0.0  # unit 1 of layer 0: z == 0 on every row
    model.layers[1].weights[2] = 0.0
    model.layers[1].bias[2] = 0.0  # unit 2 of layer 1: z == 0 on every row
    x = rng.normal(size=(7, 4))
    dlogits = rng.normal(size=(7, 3))
    dlogits[2] = 0.0  # a zero upstream row: delta holds signed zeros
    return model, x, dlogits


def test_forward_and_backward_match_the_unfused_formulas_bit_for_bit():
    model, x, dlogits = zero_pre_activation_setup()
    pre, post = reference_forward(model, x)
    assert np.all(pre[0][:, 1] == 0.0) and np.all(pre[1][:, 2] == 0.0)
    logits, cache = nn.forward_logits(model, x)
    assert same_bits(logits, post[-1])
    # the cache is [batch, act_1, ..., logits]
    assert len(cache) == len(post) + 1 and same_bits(cache[0], x)
    for got, want in zip(cache[1:], post):
        assert same_bits(got, want)
    grads = nn.backward(model, cache, dlogits)
    assert same_bits(grads, reference_backward(model, x, pre, post, dlogits))
    # unit 1 of layer 0 (pre-activation exactly 0) gets no gradient; layer 0
    # holds 6 x 4 weights, then 6 biases
    assert np.all(grads[:24].reshape(6, 4)[1] == 0.0) and grads[24 + 1] == 0.0


def test_training_step_leaves_its_inputs_alone():
    model, x, dlogits = zero_pre_activation_setup()
    theta, batch, upstream = model.theta.copy(), x.copy(), dlogits.copy()
    _, cache = nn.forward_logits(model, x)
    assert same_bits(x, batch)
    cached = [a.copy() for a in cache[1:]]
    grads = nn.backward(model, cache, dlogits)
    assert same_bits(dlogits, upstream) and same_bits(cache[0], batch)
    for got, want in zip(cache[1:], cached):
        assert same_bits(got, want)
    gradient = grads.copy()
    opt = nn.OptimizerState(learning_rate=0.05, momentum=0.9)
    stepped = nn.sgd_step(model, grads, opt)
    assert same_bits(model.theta, theta)
    # the velocity's documented update; the new theta is built in the
    # gradient's buffer, and shares nothing with the model or the velocity
    assert same_bits(opt.velocity, np.zeros_like(theta) * 0.9 + gradient)
    assert stepped.theta is grads
    assert same_bits(stepped.theta, theta - 0.05 * opt.velocity)
    assert not np.shares_memory(stepped.theta, opt.velocity)
    assert not np.shares_memory(stepped.theta, model.theta)


@pytest.mark.parametrize(
    "learning_rate,momentum", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.9), (0.05, 0.9)]
)
def test_sgd_step_matches_theta_minus_lr_step_bit_for_bit(learning_rate, momentum):
    rng = np.random.default_rng(31)
    model = nn.init_mlp(3, [4], 2, rng)
    model.theta[:3] = [-0.0, 0.0, 5e-324]
    opt = nn.OptimizerState(learning_rate=learning_rate, momentum=momentum)
    velocity = np.zeros_like(model.theta)
    for _ in range(3):
        grads = rng.normal(size=model.theta.shape)
        grads[:3] = [0.0, -0.0, -5e-324]
        step = grads
        if momentum > 0:
            velocity = velocity * momentum + grads
            step = velocity
        expected = model.theta - learning_rate * step
        model = nn.sgd_step(model, grads, opt)
        assert same_bits(model.theta, expected)
        if momentum > 0:
            assert same_bits(opt.velocity, velocity)
        else:
            assert opt.velocity is None


# The default model (10 -> 1000 -> 5) on one 64-row batch: a step should
# allocate what it returns or caches, not the temporaries of unfused formulas.
# A ufunc that broadcasts (the bias add) or casts (the bool ReLU mask) fills
# numpy's iterator buffer of np.getbufsize() values, about 64 KB, on the way.
ROWS, HIDDEN = 64, 1000
ACTIVATION_BYTES = ROWS * HIDDEN * 8
UFUNC_BUFFER_BYTES = np.getbufsize() * 8


def default_step_setup():
    rng = np.random.default_rng(32)
    model = nn.init_mlp(10, [HIDDEN], 5, rng)
    x = rng.normal(size=(ROWS, 10))
    logits, cache = nn.forward_logits(model, x)
    dlogits = nn.cross_entropy(logits, rng.integers(0, 5, size=ROWS))[1]()
    return model, x, cache, dlogits


def test_forward_allocates_one_array_per_layer(traced_peak):
    model, x, _, _ = default_step_setup()
    peak, _ = traced_peak(lambda: nn.forward_logits(model, x))
    assert peak <= 1.1 * (ACTIVATION_BYTES + UFUNC_BUFFER_BYTES)


def test_backward_allocates_the_gradient_one_delta_and_one_mask(traced_peak):
    model, _, cache, dlogits = default_step_setup()
    peak, _ = traced_peak(lambda: nn.backward(model, cache, dlogits))
    mask_bytes = ROWS * HIDDEN
    budget = model.theta.nbytes + ACTIVATION_BYTES + mask_bytes + UFUNC_BUFFER_BYTES
    assert peak <= 1.1 * budget


def test_sgd_step_allocates_no_parameter_vector(traced_peak):
    model, _, cache, dlogits = default_step_setup()
    grads = nn.backward(model, cache, dlogits)
    expected = model.theta - 0.1 * grads
    opt = nn.OptimizerState(learning_rate=0.1)
    peak, stepped = traced_peak(lambda: nn.sgd_step(model, grads, opt))
    assert same_bits(stepped.theta, expected)
    # The new model's layer views and objects, not a second theta.
    assert peak <= 0.05 * model.theta.nbytes


def test_results_survive_the_next_forward_and_backward():
    model, x, dlogits = zero_pre_activation_setup()
    logits, cache = nn.forward_logits(model, x)
    grads = nn.backward(model, cache, dlogits)
    kept = [logits.copy(), grads.copy(), *(a.copy() for a in cache[1:])]
    _, again = nn.forward_logits(model, -x)
    nn.backward(model, again, -dlogits)
    assert same_bits(logits, kept[0]) and same_bits(grads, kept[1])
    for got, want in zip(cache[1:], kept[2:]):
        assert same_bits(got, want)
    assert not same_bits(again[-1], logits)


# ---------------------------------------------------------------------------
# chunked_logits


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_chunked_logits_equal_a_forward_on_each_chunk(n):
    rng = np.random.default_rng(34)
    model = nn.init_mlp(3, [7], 4, rng)
    data = rng.normal(size=(n, 3))
    logits = nn.chunked_logits(model, data)
    assert logits.shape == (n, 4) and logits.dtype == np.float64
    for start in range(0, n, nn.CHUNK_ROWS):
        chunk = data[start : start + nn.CHUNK_ROWS]
        assert same_bits(logits[start : start + nn.CHUNK_ROWS], nn.forward_logits(model, chunk)[0])
    if n:
        whole = nn.forward_logits(model, data)[0]
        assert np.max(np.abs(logits - whole)) <= 1e-12


def test_chunked_logits_own_their_memory():
    rng = np.random.default_rng(35)
    model = nn.init_mlp(3, [7], 4, rng)
    for n in (0, 5, 64, 130):
        logits = nn.chunked_logits(model, rng.normal(size=(n, 3)))
        assert logits.base is None and logits.flags.owndata


def test_chunked_logits_reject_bad_input():
    model = nn.init_mlp(3, [7], 4, np.random.default_rng(36))
    with pytest.raises(InputError):
        nn.chunked_logits(model, np.zeros((5, 2)))
    model.theta[-1] = np.inf
    with pytest.raises(NumericError):
        nn.chunked_logits(model, np.ones((70, 3)))


def test_softmax_outputs_soften_each_models_chunked_logits():
    rng = np.random.default_rng(37)
    models = [nn.init_mlp(3, [7], 4, rng) for _ in range(3)]
    data = rng.normal(size=(130, 3))
    for args, temperature in (((), 1.0), ((3.0,), 3.0)):
        probs = nn.softmax_outputs(models, data, *args)
        assert len(probs) == len(models)
        for model, p in zip(models, probs):
            expected = nn.softmax_temperature(nn.chunked_logits(model, data), temperature)
            assert same_bits(p, expected)


# ---------------------------------------------------------------------------
# finite_diff_gradient


def test_finite_diff_quadratic():
    rng = np.random.default_rng(14)
    model = nn.init_mlp(2, [3], 2, rng)

    def quadratic(m):
        return 0.5 * sum(
            float(np.sum(l.weights**2) + np.sum(l.bias**2)) for l in m.layers
        )

    grads = nn.finite_diff_gradient(quadratic, model)
    assert np.max(np.abs(grads - model.theta)) <= 1e-8


def test_finite_diff_constant_loss_is_zero(linear_model):
    model = linear_model(np.zeros(2), weights=np.eye(2))
    grads = nn.finite_diff_gradient(lambda m: 1.25, model)
    assert np.all(grads == 0.0)


def test_finite_diff_rejects_non_finite_loss(linear_model):
    model = linear_model(np.zeros(2), weights=np.eye(2))
    with pytest.raises(NumericError):
        nn.finite_diff_gradient(lambda m: float("nan"), model)


def test_finite_diff_of_a_vector_loss_gives_each_value_the_bits_of_its_own_sweep():
    rng = np.random.default_rng(16)
    model = nn.init_mlp(2, [3], 2, rng)
    batch, labels = rng.normal(size=(4, 2)), np.array([0, 1, 1, 0])
    parts = [
        lambda m: nn.cross_entropy(nn.forward_logits(m, batch)[0], labels)[0],
        lambda m: float(np.sum(nn.forward_logits(m, batch)[0] ** 2)),
        lambda m: float(np.exp(m.theta).sum()),
    ]
    grads = nn.finite_diff_gradient(lambda m: [part(m) for part in parts], model)
    assert grads.shape == (model.theta.size, len(parts))
    for k, part in enumerate(parts):
        assert same_bits(np.ascontiguousarray(grads[:, k]), nn.finite_diff_gradient(part, model))


def test_finite_diff_refuses_a_vector_loss_with_one_non_finite_value(linear_model):
    model = linear_model(np.zeros(2), weights=np.eye(2))
    theta = model.theta.copy()

    def loss(m):
        # finite until parameter 2 is probed
        return [0.0, 1.0 if m.theta[2] == theta[2] else float("inf")]

    with pytest.raises(NumericError, match="at parameter 2$"):
        nn.finite_diff_gradient(loss, model)
    assert same_bits(model.theta, theta)


def test_finite_diff_probes_one_parameter_at_a_time_and_restores_it():
    rng = np.random.default_rng(15)
    model = nn.init_mlp(2, [3], 2, rng)
    theta, eps, seen = model.theta.copy(), nn.FINITE_DIFF_EPSILON, []

    def loss(m):
        seen.append(m.theta.copy())
        if len(seen) == 5:
            raise RuntimeError("probe failed")
        return 0.0

    with pytest.raises(RuntimeError):
        nn.finite_diff_gradient(loss, model)
    assert same_bits(model.theta, theta)
    for call, probed in enumerate(seen):
        expected = theta.copy()
        expected[call // 2] = theta[call // 2] + (eps if call % 2 == 0 else -eps)
        assert same_bits(probed, expected)

    seen.clear()
    nn.finite_diff_gradient(lambda m: seen.append(m) or 0.0, model)
    assert len(seen) == 2 * theta.size and all(m is seen[0] for m in seen)
    assert same_bits(seen[0].theta, theta) and seen[0] is not model


# ---------------------------------------------------------------------------
# initialization, training, serialization


def test_init_mlp_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(15)
    model = nn.init_mlp(7, [11, 5], 3, rng)
    dims = [(7, 11), (11, 5), (5, 3)]
    for layer, (fan_in, fan_out) in zip(model.layers, dims):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(layer.weights)) <= limit
        assert np.all(layer.bias == 0.0)
    again = nn.init_mlp(7, [11, 5], 3, np.random.default_rng(15))
    assert np.array_equal(model.theta, again.theta)


def test_init_mlp_theta_is_the_per_layer_draws_in_order():
    rng = np.random.default_rng(22)
    parts = []
    for fan_in, fan_out in [(7, 11), (11, 5), (5, 3)]:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    model = nn.init_mlp(7, [11, 5], 3, np.random.default_rng(22))
    assert same_bits(model.theta, np.concatenate(parts))


def test_model_construction_refuses_widths_and_theta_that_do_not_fit():
    model = nn.MlpModel([2, 3, 2], np.zeros(3 * 2 + 3 + 2 * 3 + 2))
    assert (model.dims, model.input_dim, model.num_classes) == ([2, 3, 2], 2, 2)
    assert [layer.weights.shape for layer in model.layers] == [(3, 2), (2, 3)]
    with pytest.raises(InputError, match="holds 16 values, the layers need 17"):
        nn.MlpModel([2, 3, 2], np.zeros(16))
    # dims is a list of ints, as JSON reads it and init_mlp builds it.
    for dims in ([], [4], "34", 34, None, (2, 3, 2), np.array([2, 3, 2])):
        with pytest.raises(InputError, match="dims must list two or more widths"):
            nn.MlpModel(dims, np.zeros(17))
    # JSON's true would read as the width 1, and 2.0 as a float width.
    for dims, k in (
        ([2, 0, 2], 1), ([True, 2], 0), ([2, 2.0], 1), ([2, -1], 1), ([2, "2"], 1),
        ([np.int64(2), 2], 0), ([2, np.int32(2)], 1),
    ):
        with pytest.raises(InputError, match=rf"^dims\[{k}\] must be a positive integer"):
            nn.MlpModel(dims, np.zeros(6))
    for bad in (math.nan, math.inf):
        theta = np.zeros(6)
        theta[4] = bad
        with pytest.raises(NumericError):
            nn.MlpModel([2, 2], theta)


def test_model_construction_copies_the_callers_theta():
    theta = np.arange(6, dtype=np.float64)
    model = nn.MlpModel([2, 2], theta)
    theta[:] = -1.0
    assert model.theta.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    as_ints = nn.MlpModel([2, 2], np.arange(6))
    assert as_ints.theta.dtype == np.float64 and same_bits(as_ints.theta, model.theta)


def test_fit_classifier_separable_blobs():
    rng = np.random.default_rng(16)
    x = np.concatenate(
        [rng.normal(loc=(-4.0, 0.0), scale=0.4, size=(60, 2)),
         rng.normal(loc=(4.0, 0.0), scale=0.4, size=(60, 2))]
    )
    y = np.repeat([0, 1], 60)
    model = nn.init_mlp(2, [8], 2, rng)
    model = nn.fit_classifier(
        model, x, y, epochs=30, batch_size=16, opt=nn.OptimizerState(0.1), rng=rng
    )
    logits, _ = nn.forward_logits(model, x)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    assert acc >= 0.99


def test_fit_classifier_zero_epochs_is_identity():
    rng = np.random.default_rng(17)
    model = nn.init_mlp(3, [4], 2, rng)
    before = model.copy()
    trained = nn.fit_classifier(
        model,
        rng.normal(size=(10, 3)),
        rng.integers(0, 2, size=10),
        epochs=0,
        batch_size=4,
        opt=nn.OptimizerState(0.1),
        rng=rng,
    )
    assert np.array_equal(trained.theta, before.theta)


def test_fit_classifier_matches_a_per_batch_replay_bit_for_bit():
    """Each epoch draws one permutation; each batch of it, the last one
    ragged (37 rows in batches of 8), takes one forward, loss, backward and
    momentum step."""
    rows, batch_size, epochs = 37, 8, 3
    rng = np.random.default_rng(19)
    model = nn.init_mlp(5, [6], 3, rng)
    x = rng.normal(size=(rows, 5))
    y = rng.integers(0, 3, size=rows)

    fitted = nn.fit_classifier(
        model, x, y, epochs, batch_size, nn.OptimizerState(0.05, 0.9), np.random.default_rng(7)
    )

    replayed, opt, order_rng = model, nn.OptimizerState(0.05, 0.9), np.random.default_rng(7)
    for _ in range(epochs):
        order = order_rng.permutation(rows)
        for start in range(0, rows, batch_size):
            take = order[start : start + batch_size]
            logits, cache = nn.forward_logits(replayed, x[take])
            gradient = nn.cross_entropy(logits, y[take])[1]()
            replayed = nn.sgd_step(replayed, nn.backward(replayed, cache, gradient), opt)
    assert not np.array_equal(fitted.theta, model.theta)
    assert same_bits(fitted.theta, replayed.theta)


def test_fit_classifier_holds_one_model_at_a_time(traced_peak):
    """Beyond the caller's model, pretrain holds the momentum buffer, the
    model a step starts from and that step's gradient, in which the step
    builds the new vector; each step drops the model before it, across
    epochs too."""
    rng = np.random.default_rng(20)
    model = nn.init_mlp(64, [1000], 10, rng)
    x = rng.normal(size=(128, 64))
    y = rng.integers(0, 10, size=128)
    opt = nn.OptimizerState(0.05, 0.9)
    peak, _ = traced_peak(lambda: nn.fit_classifier(model, x, y, 3, 16, opt, rng))
    assert peak <= 4.0 * model.theta.nbytes


@pytest.mark.parametrize("n_labels", [5, 20])
def test_fit_classifier_refuses_labels_that_do_not_match_the_rows(n_labels):
    """Too few labels used to end in an IndexError; too many trained on the
    first ten silently."""
    rng = np.random.default_rng(17)
    model = nn.init_mlp(3, [4], 2, rng)
    with pytest.raises(InputError, match="^labels must align one-to-one with feature rows$"):
        nn.fit_classifier(
            model,
            rng.normal(size=(10, 3)),
            rng.integers(0, 2, size=n_labels),
            epochs=1,
            batch_size=4,
            opt=nn.OptimizerState(0.1),
            rng=rng,
        )


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    model = nn.init_mlp(4, [6], 3, rng)
    path = tmp_path / "net.model"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert np.array_equal(loaded.theta, model.theta)
    assert loaded.dims == [4, 6, 3]
    # writing the loaded model again must reproduce the file byte for byte
    again = tmp_path / "net2.model"
    nn.save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_save_model_builds_no_file_image(tmp_path, traced_peak):
    model = default_step_setup()[0]
    peak, _ = traced_peak(lambda: nn.save_model(model, tmp_path / "net.model"))
    # the finiteness check's mask, one byte a parameter, and the header line;
    # theta is written from its own buffer
    assert peak <= model.theta.size + 4096


def model_file(dims, values):
    """A model file built by hand: the dims header line, then the values."""
    return b'{"dims":%s}\n' % json.dumps(dims).encode() + struct.pack(f"<{len(values)}d", *values)


def test_model_file_round_trips_extreme_values_bit_for_bit(tmp_path, linear_model):
    model = linear_model(np.zeros(3))
    values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              0.30000000000000004, 0.1, -5e-324, 1.0, 2.0**-1022]
    assert repr(0.30000000000000004) != f"{0.30000000000000004:.16g}"  # needs 17 digits
    model.theta[:] = values
    path = tmp_path / "extreme.model"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert loaded.theta.tobytes() == np.array(values, "<f8").tobytes()
    assert np.signbit(loaded.theta[0])


def test_hand_built_model_file_pins_byte_order_and_layout(tmp_path):
    # layer 0: 1 -> 2, layer 1: 2 -> 2; weights row-major, then bias
    values = [1.5, -2.0, 0.25, 3.0, -0.5, 4.0, 8.0, -16.0, 0.125, 32.0]
    written = b'{"dims":[1,2,2]}\n' + b"".join(struct.pack("<d", v) for v in values)
    path = tmp_path / "hand.model"
    path.write_bytes(written)
    model = nn.load_model(path)
    assert model.layers[0].weights.tolist() == [[1.5], [-2.0]]
    assert model.layers[0].bias.tolist() == [0.25, 3.0]
    assert model.layers[1].weights.tolist() == [[-0.5, 4.0], [8.0, -16.0]]
    assert model.layers[1].bias.tolist() == [0.125, 32.0]
    again = tmp_path / "again.model"
    nn.save_model(model, again)
    assert again.read_bytes() == written


def test_load_model_rejects_malformed_files(tmp_path):
    header = b'{"dims":[2,2]}\n'  # 2 x 2 weights plus 2 biases: 6 values
    cases = [
        (b"{not json\n" + bytes(48), InputError),
        (b'{"dims\xff":[2,2]}\n' + bytes(48), InputError),
        (header[:-1], InputError),  # no line end after the header
        (b'["a list"]\n' + bytes(48), InputError),
        (b'{"input_dim":2}\n' + bytes(48), InputError),
        (model_file([2, 2], [1.0, 2.0, 3.0, 4.0, 0.0]), InputError),  # short
        (model_file([2, 2], [0.0] * 7), InputError),  # long
        (model_file([2, 3], [0.0] * 7), InputError),  # ends inside a weight matrix
        (header + bytes(47), InputError),  # ends inside a value
        (model_file([1, 1], [math.nan, 0.0]), NumericError),
        (model_file([2, 2], [0.0] * 5 + [math.inf]), NumericError),
        (model_file([2, True], [0.0] * 6), InputError),
        (model_file([2, 2.0], [0.0] * 6), InputError),
        (model_file([6], [0.0] * 6), InputError),
        (model_file("22", [0.0] * 6), InputError),
    ]
    # Every refusal names the file, whether the container or MlpModel made it.
    for index, (content, error) in enumerate(cases):
        path = tmp_path / f"bad_{index}.model"
        path.write_bytes(content)
        with pytest.raises(error, match=re.escape(str(path))):
            nn.load_model(path)

    # The formats that development builds wrote before the dims header: one
    # indented JSON document, theta as base64 or as per-layer number lists;
    # then a header line that lists each layer's shape and activation. The
    # header checks refuse them as any other file without a dims header.
    layers = [{"in": 2, "out": 2, "activation": "identity"}]
    with_base64 = {"input_dim": 2, "num_classes": 2, "layers": layers}
    with_base64["theta"] = base64.b64encode(bytes(48)).decode()
    with_lists = {"input_dim": 2, "num_classes": 2}
    with_lists["layers"] = [{"weights": [[0.0] * 2] * 2, "bias": [0.0] * 2, "activation": "identity"}]
    with_shapes = {"input_dim": 2, "num_classes": 2, "layers": layers}
    older = [
        ((json.dumps(doc, indent=2) + "\n").encode(), "the header line is not JSON")
        for doc in (with_base64, with_lists)
    ] + [
        (
            json.dumps(with_shapes, separators=(",", ":")).encode() + b"\n" + bytes(48),
            "the header line is not a JSON object with the key dims",
        )
    ]
    for index, (content, says) in enumerate(older):
        path = tmp_path / f"older_{index}.model"
        path.write_bytes(content)
        with pytest.raises(InputError, match=re.escape(says)) as refused:
            nn.load_model(path)
        assert str(path) in str(refused.value)
        assert "rerun" not in str(refused.value)


def test_save_model_refuses_non_finite_parameters(tmp_path):
    model = nn.init_mlp(2, [3], 2, np.random.default_rng(19))
    model.layers[1].bias[0] = np.nan
    path = tmp_path / "diverged.model"
    with pytest.raises(NumericError):
        nn.save_model(model, path)
    assert list(tmp_path.iterdir()) == []


def test_save_model_failure_keeps_the_previous_file(tmp_path, monkeypatch, failing_midstream):
    path = tmp_path / "net.model"
    nn.save_model(nn.init_mlp(2, [3], 2, np.random.default_rng(20)), path)
    before = path.read_bytes()
    newer = nn.init_mlp(2, [3], 2, np.random.default_rng(21))

    def failed_replace(src, dst):
        raise OSError("replace failed")

    for target, name, failure, error in (
        (nn, "write_atomic", failing_midstream(nn.write_atomic, OSError("disk full")), OSError),
        (nn, "write_atomic", failing_midstream(nn.write_atomic, ValueError("bad")), ValueError),
        (os, "replace", failed_replace, OSError),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, name, failure)
            with pytest.raises(error):
                nn.save_model(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.model"]
