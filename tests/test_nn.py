"""Forward, softmax, loss, backward, and SGD oracles for the dense network."""

import base64
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from domex import nn
from domex.errors import InputError, NumericError, ParameterError, ParseError


def linear_model(weights, bias, activation="identity"):
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    layer = nn.DenseLayer(w, b, activation)
    return nn.MlpModel([layer], w.shape[1], w.shape[0])


def fixed_logit_model(logit_rows):
    """Model mapping the k-th standard basis vector to the k-th logit row."""
    rows = np.asarray(logit_rows, dtype=np.float64)
    return linear_model(rows.T, np.zeros(rows.shape[1]))


# ---------------------------------------------------------------------------
# forward_logits


def test_forward_identity_layer():
    model = linear_model(np.eye(2), np.zeros(2))
    logits, _ = nn.forward_logits(model, np.array([[1.0, 2.0]]))
    assert np.array_equal(logits, np.array([[1.0, 2.0]]))


def test_forward_constant_map():
    model = linear_model(np.zeros((2, 3)), np.array([3.0, -1.0]))
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


def test_forward_rejects_wrong_width():
    model = linear_model(np.eye(2), np.zeros(2))
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
    with pytest.raises(ParameterError):
        nn.softmax_temperature(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ParameterError):
        nn.softmax_temperature(np.array([1.0, 2.0]), -1.0)
    with pytest.raises(InputError):
        nn.softmax_temperature(np.array([1.0, np.nan]), 1.0)


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


def test_cross_entropy_rejects_an_empty_batch():
    with pytest.raises(InputError):
        nn.cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))


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


def test_backward_sum_loss_hand_case():
    # L = sum(logits) on one linear layer: dL/dW has the column sums of the
    # inputs in every row, dL/db counts the batch size.
    model = linear_model(np.zeros((2, 2)), np.zeros(2))
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
    logits = cache.activations[-1]
    analytic = nn.backward(model, cache, nn.cross_entropy(logits, labels)[1]())
    numeric = nn.finite_diff_gradient(
        lambda m: nn.cross_entropy(nn.forward_logits(m, x)[0], labels)[0], model
    )
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


def test_backward_rejects_wrong_shape():
    model = linear_model(np.eye(2), np.zeros(2))
    _, cache = nn.forward_logits(model, np.zeros((3, 2)))
    with pytest.raises(InputError):
        nn.backward(model, cache, np.zeros((3, 5)))


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


def test_sgd_scalar_arithmetic():
    model = linear_model(np.array([[1.0]]), np.array([0.0]))
    grads = np.array([2.0, 0.0])
    stepped = nn.sgd_step(model, grads, nn.OptimizerState(learning_rate=0.1))
    assert abs(stepped.layers[0].weights[0, 0] - 0.8) <= 1e-15


def test_sgd_momentum_accumulates():
    # v1 = g, v2 = mu*v1 + g; two steps move by lr*(v1+v2).
    model = linear_model(np.array([[1.0]]), np.array([0.0]))
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    grads = np.array([1.0, 0.0])
    model = nn.sgd_step(model, grads, opt)
    model = nn.sgd_step(model, grads, opt)
    assert abs(model.layers[0].weights[0, 0] - (1.0 - 0.1 * (1.0 + 1.5))) <= 1e-15


def test_optimizer_rejects_negative_rate():
    with pytest.raises(ParameterError):
        nn.OptimizerState(learning_rate=-0.1)


# ---------------------------------------------------------------------------
# one training step: the unfused formulas, inputs left alone, allocations


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_forward(model, x):
    """The unfused forward: z = x @ W.T + b, then np.maximum(z, 0.0)."""
    pre, post, act = [], [], x
    for layer in model.layers:
        z = act @ layer.weights.T + layer.bias
        act = np.maximum(z, 0.0) if layer.activation == "relu" else z
        pre.append(z)
        post.append(act)
    return pre, post


def reference_backward(model, x, pre, post, dlogits):
    """The unfused backward, with the ReLU mask taken from z > 0."""
    blocks, delta = [], dlogits
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        if layer.activation == "relu":
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
    assert len(cache.activations) == len(post)
    for got, want in zip(cache.activations, post):
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
    cached = [a.copy() for a in cache.activations]
    grads = nn.backward(model, cache, dlogits)
    assert same_bits(dlogits, upstream) and same_bits(cache.inputs, batch)
    for got, want in zip(cache.activations, cached):
        assert same_bits(got, want)
    gradient = grads.copy()
    opt = nn.OptimizerState(learning_rate=0.05, momentum=0.9)
    stepped = nn.sgd_step(model, grads, opt)
    assert same_bits(grads, gradient) and same_bits(model.theta, theta)
    # the velocity's documented update, and nothing shared with the new model
    assert same_bits(opt.velocity, np.zeros_like(theta) * 0.9 + gradient)
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


def traced_peak(fn):
    """Peak bytes traced while fn runs (numpy reports its buffers), and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def default_step_setup():
    rng = np.random.default_rng(32)
    model = nn.init_mlp(10, [HIDDEN], 5, rng)
    x = rng.normal(size=(ROWS, 10))
    logits, cache = nn.forward_logits(model, x)
    dlogits = nn.cross_entropy(logits, rng.integers(0, 5, size=ROWS))[1]()
    return model, x, cache, dlogits


def test_forward_allocates_one_array_per_layer():
    model, x, _, _ = default_step_setup()
    peak, _ = traced_peak(lambda: nn.forward_logits(model, x))
    assert peak <= 1.1 * (ACTIVATION_BYTES + UFUNC_BUFFER_BYTES)


def test_backward_allocates_the_gradient_one_delta_and_one_mask():
    model, _, cache, dlogits = default_step_setup()
    peak, _ = traced_peak(lambda: nn.backward(model, cache, dlogits))
    mask_bytes = ROWS * HIDDEN
    budget = model.theta.nbytes + ACTIVATION_BYTES + mask_bytes + UFUNC_BUFFER_BYTES
    assert peak <= 1.1 * budget


def test_sgd_step_allocates_one_parameter_vector():
    model, _, cache, dlogits = default_step_setup()
    grads = nn.backward(model, cache, dlogits)
    opt = nn.OptimizerState(learning_rate=0.1)
    peak, stepped = traced_peak(lambda: nn.sgd_step(model, grads, opt))
    assert same_bits(stepped.theta, model.theta - 0.1 * grads)
    assert peak <= 1.1 * model.theta.nbytes


def test_step_through_a_reused_cache_allocates_no_activation_sized_array():
    model, x, _, dlogits = default_step_setup()
    cache = nn.ForwardCache()

    def step(rows):
        nn.forward_logits(model, x[:rows], cache)
        return nn.backward(model, cache, dlogits[:rows])

    step(ROWS)
    # a full batch, then a partial one in the first rows of the same buffers;
    # what is left is numpy's iterator buffer plus logit-sized arrays and
    # Python objects (measured 5 KB), well below a fresh 64 KB ReLU mask
    for rows in (ROWS, 10):
        peak, _ = traced_peak(lambda: step(rows))
        assert peak <= UFUNC_BUFFER_BYTES + 16 * 1024


def test_reused_cache_gives_the_bits_of_fresh_ones():
    model, x, dlogits = zero_pre_activation_setup()
    cache = nn.ForwardCache()
    for rows in (7, 3, 7, 0):
        logits, returned = nn.forward_logits(model, x[:rows], cache)
        fresh_logits, fresh = nn.forward_logits(model, x[:rows])
        assert returned is cache and same_bits(logits, fresh_logits)
        for got, want in zip(cache.activations, fresh.activations):
            assert same_bits(got, want)
        grads = nn.backward(model, cache, dlogits[:rows])
        assert same_bits(grads, nn.backward(model, fresh, dlogits[:rows]))
    # another architecture through the same cache gets buffers of its shapes
    other = nn.init_mlp(4, [9], 3, np.random.default_rng(33))
    logits, _ = nn.forward_logits(other, x, cache)
    assert same_bits(logits, nn.forward_logits(other, x)[0])
    _, fresh = nn.forward_logits(other, x)
    assert same_bits(nn.backward(other, cache, dlogits), nn.backward(other, fresh, dlogits))


def test_results_alias_the_cache_until_its_next_use():
    model, x, dlogits = zero_pre_activation_setup()
    cache = nn.ForwardCache()
    logits, _ = nn.forward_logits(model, x, cache)
    grads = nn.backward(model, cache, dlogits)
    first_logits, first_grads = logits.copy(), grads.copy()
    logits_again, _ = nn.forward_logits(model, -x, cache)
    grads_again = nn.backward(model, cache, -dlogits)
    assert np.shares_memory(logits, logits_again) and np.shares_memory(grads, grads_again)
    assert not same_bits(logits, first_logits) and not same_bits(grads, first_grads)


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
        # not a view into a cache buffer (or into anything else)
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


def test_finite_diff_constant_loss_is_zero():
    model = linear_model(np.eye(2), np.zeros(2))
    grads = nn.finite_diff_gradient(lambda m: 1.25, model)
    assert np.all(grads == 0.0)


def test_finite_diff_rejects_non_finite_loss():
    model = linear_model(np.eye(2), np.zeros(2))
    with pytest.raises(NumericError):
        nn.finite_diff_gradient(lambda m: float("nan"), model)
    with pytest.raises(ParameterError):
        nn.finite_diff_gradient(lambda m: 0.0, model, epsilon=0.0)


def test_finite_diff_probes_one_parameter_at_a_time_and_restores_it():
    rng = np.random.default_rng(15)
    model = nn.init_mlp(2, [3], 2, rng)
    theta, eps, seen = model.theta.copy(), 1e-5, []

    def loss(m):
        seen.append(m.theta.copy())
        if len(seen) == 5:
            raise RuntimeError("probe failed")
        return 0.0

    with pytest.raises(RuntimeError):
        nn.finite_diff_gradient(loss, model, epsilon=eps)
    assert same_bits(model.theta, theta)
    for call, probed in enumerate(seen):
        expected = theta.copy()
        expected[call // 2] = theta[call // 2] + (eps if call % 2 == 0 else -eps)
        assert same_bits(probed, expected)

    seen.clear()
    nn.finite_diff_gradient(lambda m: seen.append(m) or 0.0, model, epsilon=eps)
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


def test_model_validation_rejects_bad_chains():
    good = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
    out = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")
    with pytest.raises(InputError):
        nn.MlpModel([good, out], input_dim=5, num_classes=2)
    with pytest.raises(InputError):
        nn.MlpModel([good], input_dim=2, num_classes=3)
    relu_out = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")
    with pytest.raises(InputError):
        nn.MlpModel([good, relu_out], input_dim=2, num_classes=2)


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


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    model = nn.init_mlp(4, [6], 3, rng)
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert np.array_equal(loaded.theta, model.theta)
    assert loaded.input_dim == 4 and loaded.num_classes == 3
    # writing the loaded model again must reproduce the file byte for byte
    again = tmp_path / "model2.json"
    nn.save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def theta_text(values):
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode()


def model_document(layers, values, input_dim, num_classes):
    """A model file built by hand: layers as (in, out, activation)."""
    return json.dumps(
        {
            "input_dim": input_dim,
            "num_classes": num_classes,
            "layers": [{"in": i, "out": o, "activation": a} for i, o, a in layers],
            "theta": theta_text(values),
        }
    )


def test_model_file_round_trips_extreme_values_bit_for_bit(tmp_path):
    model = linear_model(np.zeros((3, 2)), np.zeros(3))
    values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              0.30000000000000004, 0.1, -5e-324, 1.0, 2.0**-1022]
    assert repr(0.30000000000000004) != f"{0.30000000000000004:.16g}"  # needs 17 digits
    model.theta[:] = values
    path = tmp_path / "extreme.json"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert loaded.theta.tobytes() == np.array(values, "<f8").tobytes()
    assert np.signbit(loaded.theta[0])


def test_hand_built_model_file_pins_byte_order_and_layout(tmp_path):
    # layer 0: 1 -> 2 relu, layer 1: 2 -> 2 identity; weights row-major, then bias
    values = [1.5, -2.0, 0.25, 3.0, -0.5, 4.0, 8.0, -16.0, 0.125, 32.0]
    path = tmp_path / "hand.json"
    path.write_text(model_document([(1, 2, "relu"), (2, 2, "identity")], values, 1, 2))
    model = nn.load_model(path)
    assert model.layers[0].weights.tolist() == [[1.5], [-2.0]]
    assert model.layers[0].bias.tolist() == [0.25, 3.0]
    assert model.layers[1].weights.tolist() == [[-0.5, 4.0], [8.0, -16.0]]
    assert model.layers[1].bias.tolist() == [0.125, 32.0]
    assert nn.model_to_dict(model)["theta"] == theta_text(values)


def test_load_model_rejects_malformed_files(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        nn.load_model(bad_json)

    missing_keys = tmp_path / "incomplete.json"
    missing_keys.write_text('{"input_dim": 2}')
    with pytest.raises(InputError):
        nn.load_model(missing_keys)

    # 2 x 2 weights plus 2 biases need 6 values
    identity_2x2 = [(2, 2, "identity")]
    wrong_count = tmp_path / "short.json"
    wrong_count.write_text(model_document(identity_2x2, [1.0, 2.0, 3.0, 4.0, 0.0], 2, 2))
    with pytest.raises(InputError):
        nn.load_model(wrong_count)

    too_long = tmp_path / "long.json"
    too_long.write_text(model_document(identity_2x2, [0.0] * 7, 2, 2))
    with pytest.raises(InputError):
        nn.load_model(too_long)

    partial_value = tmp_path / "partial.json"
    doc = json.loads(model_document(identity_2x2, [0.0] * 6, 2, 2))
    doc["theta"] = base64.b64encode(bytes(47)).decode()
    partial_value.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        nn.load_model(partial_value)

    not_base64 = tmp_path / "garbled.json"
    doc["theta"] = "not base64!"
    not_base64.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        nn.load_model(not_base64)

    nan_weight = tmp_path / "nan.json"
    nan_weight.write_text(model_document([(1, 1, "identity")], [math.nan, 0.0], 1, 1))
    with pytest.raises(NumericError):
        nn.load_model(nan_weight)


def test_save_model_refuses_non_finite_parameters(tmp_path):
    model = nn.init_mlp(2, [3], 2, np.random.default_rng(19))
    model.layers[1].bias[0] = np.nan
    path = tmp_path / "diverged.json"
    with pytest.raises(NumericError):
        nn.save_model(model, path)
    assert list(tmp_path.iterdir()) == []


def test_save_model_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    nn.save_model(nn.init_mlp(2, [3], 2, np.random.default_rng(20)), path)
    before = path.read_bytes()
    newer = nn.init_mlp(2, [3], 2, np.random.default_rng(21))

    def half_written(self, text):
        Path.write_bytes(self, text[: len(text) // 2].encode())
        raise OSError("no space left on device")

    def failed_replace(src, dst):
        raise OSError("replace failed")

    for target, name, failure in (
        (Path, "write_text", half_written),
        (os, "replace", failed_replace),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, name, failure)
            with pytest.raises(OSError):
                nn.save_model(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
