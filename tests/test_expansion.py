"""Oracles for entropy weighting, the alignment losses, and the update loop."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

from domex import data, expansion, nn
from domex.errors import ConfigError, InputError


def random_ensemble(rng, m=3, dim=4, hidden=5, classes=3):
    models = [nn.init_mlp(dim, [hidden], classes, rng) for _ in range(m)]
    ens = expansion.EnsembleState.initialize(models)
    # nudge the trainable copies so updated != originals
    for model in ens.updated:
        for layer in model.layers:
            layer.weights += 0.05 * rng.standard_normal(layer.weights.shape)
            layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    return ens


def probs_of(model, batch, temperature):
    return nn.softmax_temperature(nn.forward_logits(model, batch)[0], temperature)


def overall_loss(ens, i, batch, weights, hp):
    """Preservation plus lam * w_i * bias, the loss of one expand step of model i.

    The frozen targets run on the batch itself, so a replay built on this
    stays independent of expand, which gathers them from whole-set passes.
    """
    scale = hp.lam * float(weights.weights[i])
    targets = expansion.frozen_targets(ens, i, batch, hp.temperature)
    model = ens.updated[i]
    logits, cache = nn.forward_logits(model, batch)
    total, gradient, _, _ = expansion.weighted_loss(logits, targets, 1.0, scale, hp.temperature)
    return total, nn.backward(model, cache, gradient())


# ---------------------------------------------------------------------------
# hyperparameters and state


def test_hyperparams_validation():
    expansion.Hyperparams(epochs=0)  # zero rounds is a legal no-op
    for bad in (
        dict(lam=-1.0),
        dict(temperature=0.0),
        dict(weight_temperature=-0.5),
        dict(epochs=-1),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(seed=-1),
    ):
        with pytest.raises(ConfigError):
            expansion.Hyperparams(**bad)


def test_ensemble_state_validation():
    rng = np.random.default_rng(0)
    models = [nn.init_mlp(3, [4], 2, rng) for _ in range(3)]
    # expand zips the two roles, which would drop the third model unseen.
    with pytest.raises(InputError, match="same length"):
        expansion.EnsembleState(models, models[:2])


def test_ensemble_initialize_copies_are_independent():
    rng = np.random.default_rng(1)
    models = [nn.init_mlp(3, [4], 2, rng) for _ in range(2)]
    ens = expansion.EnsembleState.initialize(models)
    ens.updated[0].layers[0].weights += 1.0
    assert not np.array_equal(ens.updated[0].theta, ens.originals[0].theta)
    assert np.array_equal(ens.originals[0].theta, models[0].theta)


# ---------------------------------------------------------------------------
# mean_entropy


def test_mean_entropy_uniform_is_log_c(linear_model):
    model = linear_model(np.zeros(5), input_dim=3)
    x = np.random.default_rng(2).normal(size=(7, 3))
    assert abs(expansion.mean_entropy(model, x) - math.log(5.0)) <= 1e-12
    for c in (2, 3, 10, 1000):
        uniform = np.full((4, c), 1.0 / c)
        assert abs(expansion._mean_entropy_of(uniform) - math.log(c)) <= 1e-15 * math.log(c)


def test_mean_entropy_one_hot_is_exactly_zero(linear_model):
    # [0, -1e4, 1e4] softmaxes to exact zeros beside a 1: each 0 * ln 0 is 0,
    # and neither ln 0 nor 0 * -inf may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expansion._mean_entropy_of(np.eye(4)) == 0.0
        model = linear_model([0.0, -1e4, 1e4])
        assert nn.softmax_outputs([model], np.zeros((3, 2)))[0].tolist() == [[0.0, 0.0, 1.0]] * 3
        assert expansion.mean_entropy(model, np.zeros((3, 2))) == 0.0


def test_mean_entropy_matches_xlogy_reference():
    rng = np.random.default_rng(23)
    for scale in (0.1, 1.0, 10.0, 300.0):
        probs = nn.softmax_temperature(scale * rng.standard_normal((200, 7)), 1.0)
        entropies = [expansion._mean_entropy_of(row[None]) for row in probs]
        reference = -xlogy(probs, probs).sum(axis=1)
        np.testing.assert_allclose(entropies, reference, rtol=1e-15, atol=0.0)


def test_mean_entropy_confident_is_near_zero(linear_model):
    model = linear_model([60.0, 0.0, 0.0])
    x = np.zeros((4, 2))
    assert expansion.mean_entropy(model, x) <= 1e-6


def test_mean_entropy_per_sample_oracle(linear_model):
    logit_rows = np.array([[1.0, -0.5, 0.2], [3.0, 3.0, 3.0], [-2.0, 0.0, 4.0]])
    model = linear_model(np.zeros(3), weights=logit_rows.T)
    x = np.eye(3)  # row k selects logit row k
    expected = []
    for row in logit_rows:
        p = np.exp(row - row.max())
        p /= p.sum()
        expected.append(float(-np.sum(p * np.log(p))))
    assert abs(expansion.mean_entropy(model, x) - np.mean(expected)) <= 1e-12


# ---------------------------------------------------------------------------
# compute_weights


def test_weights_equal_entropies_are_uniform():
    w = expansion.compute_weights(np.array([1.0, 1.0, 1.0]), 0.7)
    assert np.max(np.abs(w.weights - 1.0 / 3.0)) <= 1e-12


def test_weights_scalar_evaluation():
    w = expansion.compute_weights(np.array([0.1, 0.2]), 0.1)
    e = math.e
    assert np.max(np.abs(w.weights - [1.0 / (1.0 + e), e / (1.0 + e)])) <= 1e-12


def test_weights_sum_monotone_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        ent = rng.uniform(0.0, math.log(5.0), size=rng.integers(2, 6))
        t0 = rng.uniform(0.05, 1.0)
        w = expansion.compute_weights(ent, t0).weights
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all((w > 0) & (w < 1))
        for i in range(len(ent)):
            for j in range(len(ent)):
                if ent[i] > ent[j]:
                    assert w[i] > w[j]
        shifted = expansion.compute_weights(ent + 17.5, t0).weights
        assert np.max(np.abs(shifted - w)) <= 1e-9


def test_weights_survive_extreme_entropy_scale():
    # max subtraction keeps exp() in range even for absurd magnitudes
    w = expansion.compute_weights(np.array([1e4, 1e4 + 1.0]), 0.1).weights
    assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= 1e-9


def test_weights_may_saturate_to_zero_and_one():
    # exp(-1000) underflows to 0: a correctly rounded softmax, not an error
    w = expansion.compute_weights(np.array([0.0, 1.0]), 1e-3)
    assert w.weights.tolist() == [0.0, 1.0]


def test_weights_worst_model_gets_largest_weight():
    # graded model quality: lower accuracy shows up as higher entropy, which
    # must map to a strictly larger share of the alignment pressure
    accuracies = np.array([43.63, 85.00, 95.28])
    entropies = (100.0 - accuracies) / 100.0 * math.log(5.0)
    w = expansion.compute_weights(entropies, 0.1).weights
    assert int(np.argmax(w)) == int(np.argmin(accuracies))
    assert int(np.argmin(w)) == int(np.argmax(accuracies))


def test_weights_rejects_bad_arguments():
    # A negative temperature would give the lowest entropy the largest weight.
    for temperature in (0.0, -0.1):
        with pytest.raises(ConfigError):
            expansion.compute_weights(np.array([0.1, 0.2]), temperature)


# ---------------------------------------------------------------------------
# bias_loss


def test_bias_identical_models_is_exactly_zero():
    rng = np.random.default_rng(4)
    model = nn.init_mlp(3, [4], 3, rng)
    ens = expansion.EnsembleState.initialize([model.copy() for _ in range(3)])
    loss, grads = expansion.bias_loss(ens, 1, rng.normal(size=(5, 3)), 3.0)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_bias_opposite_onehots_is_two(linear_model):
    a = linear_model([40.0, -40.0])
    b = linear_model([-40.0, 40.0])
    ens = expansion.EnsembleState([a.copy(), b.copy()], [a, b])
    loss, _ = expansion.bias_loss(ens, 0, np.zeros((1, 2)), 1.0)
    assert abs(loss - 2.0) <= 1e-9


def test_bias_brute_force_pair_oracle():
    rng = np.random.default_rng(5)
    ens = random_ensemble(rng, m=3, dim=4, classes=3)
    batch = rng.normal(size=(4, 4))
    t = 2.5
    probs = [probs_of(m, batch, t) for m in ens.updated]
    # symmetric pair sums: pair[i][j] is the contribution of peer j to loss i
    pair = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            acc = 0.0
            for x_index in range(batch.shape[0]):
                diff = probs[i][x_index] - probs[j][x_index]
                acc += float(np.dot(diff, diff))
            pair[i, j] = acc / batch.shape[0]
    assert np.max(np.abs(pair - pair.T)) <= 1e-12
    for i in range(3):
        loss, _ = expansion.bias_loss(ens, i, batch, t)
        assert abs(loss - pair[i].sum()) <= 1e-12


def test_bias_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    ens = random_ensemble(rng, m=2, dim=3, hidden=4, classes=2)
    batch = rng.normal(size=(3, 3))
    _, analytic = expansion.bias_loss(ens, 0, batch, 3.0)

    def loss_at(model):
        probe = expansion.EnsembleState(ens.originals, [model, ens.updated[1]])
        return expansion.bias_loss(probe, 0, batch, 3.0)[0]

    numeric = nn.finite_diff_gradient(loss_at, ens.updated[0])
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


def test_bias_rejects_an_index_outside_the_ensemble():
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, m=2)
    # Index -1 would make model 1 its own peer and return a plausible loss.
    for i in (2, -1):
        with pytest.raises(InputError, match="out of range"):
            expansion.bias_loss(ens, i, np.zeros((1, 4)), 1.0)


# ---------------------------------------------------------------------------
# preservation_loss


def test_preservation_zero_at_initialization():
    rng = np.random.default_rng(8)
    models = [nn.init_mlp(4, [5], 3, rng) for _ in range(2)]
    ens = expansion.EnsembleState.initialize(models)
    loss, grads = expansion.preservation_loss(ens, 0, rng.normal(size=(6, 4)), 3.0)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_preservation_scalar_hand_case(linear_model):
    updated = linear_model(np.log([0.6, 0.4]))
    original = linear_model(np.log([0.5, 0.5]))
    ens = expansion.EnsembleState([original, original.copy()], [updated, original.copy()])
    loss, _ = expansion.preservation_loss(ens, 0, np.zeros((1, 2)), 1.0)
    assert abs(loss - 0.02) <= 1e-12


def test_preservation_per_sample_oracle():
    rng = np.random.default_rng(9)
    ens = random_ensemble(rng, m=2, dim=3, classes=4)
    batch = rng.normal(size=(5, 3))
    t = 3.0
    p_upd = probs_of(ens.updated[0], batch, t)
    p_org = probs_of(ens.originals[0], batch, t)
    expected = float(np.mean([np.dot(d, d) for d in (p_upd - p_org)]))
    loss, _ = expansion.preservation_loss(ens, 0, batch, t)
    assert abs(loss - expected) <= 1e-12


# ---------------------------------------------------------------------------
# the overall loss: preservation plus lam * w_i * bias


def test_overall_lambda_zero_equals_preservation():
    rng = np.random.default_rng(10)
    ens = random_ensemble(rng, m=3)
    batch = rng.normal(size=(4, 4))
    hp = expansion.Hyperparams(lam=0.0)
    w = expansion.compute_weights(np.array([0.3, 0.5, 0.7]), hp.weight_temperature)
    total, grads = overall_loss(ens, 1, batch, w, hp)
    pres, pres_grads = expansion.preservation_loss(ens, 1, batch, hp.temperature)
    assert total == pres
    assert np.array_equal(grads, pres_grads)


def test_overall_combines_terms_linearly():
    rng = np.random.default_rng(11)
    ens = random_ensemble(rng, m=3)
    batch = rng.normal(size=(5, 4))
    hp = expansion.Hyperparams(lam=10.0, temperature=3.0)
    w = expansion.compute_weights(np.array([0.2, 0.9, 0.4]), hp.weight_temperature)
    for i in range(3):
        total, grads = overall_loss(ens, i, batch, w, hp)
        l_org, g_org = expansion.preservation_loss(ens, i, batch, hp.temperature)
        l_bias, g_bias = expansion.bias_loss(ens, i, batch, hp.temperature)
        scale = hp.lam * float(w.weights[i])
        assert abs(total - (l_org + scale * l_bias)) <= 1e-12
        assert np.max(np.abs(grads - (g_org + scale * g_bias))) <= 1e-12


def test_loss_value_equals_each_loss_bit_for_bit():
    rng = np.random.default_rng(13)
    ens = random_ensemble(rng, m=3)
    batch = rng.normal(size=(5, 4))
    hp = expansion.Hyperparams(lam=10.0, temperature=3.0)
    w = expansion.compute_weights(np.array([0.2, 0.9, 0.4]), hp.weight_temperature)
    for i in range(3):
        scale = hp.lam * float(w.weights[i])
        for (a_org, a_bias), (total, _) in (
            ((0.0, 1.0), expansion.bias_loss(ens, i, batch, hp.temperature)),
            ((1.0, 0.0), expansion.preservation_loss(ens, i, batch, hp.temperature)),
            ((1.0, scale), overall_loss(ens, i, batch, w, hp)),
        ):
            targets = expansion.frozen_targets(ens, i, batch, hp.temperature)
            logits, _ = nn.forward_logits(ens.updated[i], batch)
            value, *_ = expansion.weighted_loss(logits, targets, a_org, a_bias, hp.temperature)
            assert value == total


def test_frozen_targets_stack_the_original_then_the_peers_in_order():
    rng = np.random.default_rng(26)
    ens = random_ensemble(rng, m=4)
    batch = rng.normal(size=(5, 4))
    for i in range(4):
        targets = expansion.frozen_targets(ens, i, batch, 3.0)
        peers = [m for j, m in enumerate(ens.updated) if j != i]
        expected = [probs_of(m, batch, 3.0) for m in [ens.originals[i], *peers]]
        assert targets.shape == (4, 5, 3)
        assert np.array_equal(targets, np.stack(expected))


def separate_terms_loss(probs, anchor, peers, a_org, a_bias):
    """L_org, L_bias and dtotal/dprobs with each target summed on its own."""
    n = probs.shape[0]
    org_diff = probs - anchor
    l_org = float((org_diff * org_diff).sum()) / n
    dprobs = np.zeros_like(probs)
    dprobs += (2.0 * a_org / n) * org_diff
    l_bias = 0.0
    for peer in peers:
        diff = probs - peer
        l_bias += float((diff * diff).sum()) / n
        dprobs += (2.0 * a_bias / n) * diff
    return l_org, l_bias, dprobs


@pytest.mark.parametrize("k", [2, 3, 8])
def test_weighted_loss_on_a_stack_equals_each_target_summed_alone(monkeypatch, k):
    # the dtotal/dprobs that weighted_loss backpropagates is caught on its way
    # into softmax_temperature_backward
    seen = []

    def catch(probs, dprobs, temperature):
        seen.append(dprobs.copy())
        return nn.softmax_temperature_backward(probs, dprobs, temperature)

    monkeypatch.setattr(expansion, "softmax_temperature_backward", catch)
    rng = np.random.default_rng(27)
    for n in (1, 60, 64):
        for c in (5, 10):
            logits = 4.0 * rng.standard_normal((n, c))
            targets = nn.softmax_temperature(4.0 * rng.standard_normal((k, n, c)), 3.0)
            probs = nn.softmax_temperature(logits, 3.0)
            for a_org in (0.0, 1.0):
                for a_bias in (0.0, 3.7):
                    total, gradient, l_org, l_bias = expansion.weighted_loss(
                        logits, targets, a_org, a_bias, 3.0
                    )
                    gradient()
                    expected = separate_terms_loss(probs, targets[0], targets[1:], a_org, a_bias)
                    assert (l_org, l_bias) == expected[:2]
                    assert total == a_org * expected[0] + a_bias * expected[1]
                    assert np.array_equal(seen.pop(), expected[2])


# ---------------------------------------------------------------------------
# one update round: expand(..., epochs=1)


def test_round_lambda_zero_is_a_fixed_point():
    rng = np.random.default_rng(13)
    models = [nn.init_mlp(3, [4], 2, rng) for _ in range(3)]
    ens = expansion.EnsembleState.initialize(models)
    hp = expansion.Hyperparams(lam=0.0, epochs=1, batch_size=4, seed=5)
    after, _ = expansion.expand(ens, rng.normal(size=(10, 3)), hp)
    for before_m, after_m in zip(ens.updated, after.updated):
        assert np.array_equal(after_m.theta, before_m.theta)


def test_round_identical_models_stay_put():
    rng = np.random.default_rng(14)
    model = nn.init_mlp(3, [4], 2, rng)
    ens = expansion.EnsembleState.initialize([model.copy(), model.copy()])
    hp = expansion.Hyperparams(epochs=1, batch_size=4, seed=6)
    after, records = expansion.expand(ens, rng.normal(size=(8, 3)), hp)
    for before_m, after_m in zip(ens.updated, after.updated):
        assert np.array_equal(after_m.theta, before_m.theta)
    assert all(r["mean_L_bias"] == 0.0 for r in records)


def logged_weights(log):
    return expansion.WeightVector(np.array([r["w_i"] for r in log]))


def test_round_matches_scripted_reexecution():
    """The one-by-one schedule, replayed step by step with public ops only."""
    rng = np.random.default_rng(15)
    ens = random_ensemble(rng, m=2, dim=3, hidden=4, classes=3)
    new_data = rng.normal(size=(8, 3))
    hp = expansion.Hyperparams(epochs=1, batch_size=3, learning_rate=0.05, seed=21)

    result, log = expansion.expand(ens, new_data, hp)

    replay_rng = np.random.default_rng(hp.seed)
    entropies = expansion.ensemble_entropies(ens.updated, new_data)
    weights = expansion.compute_weights(entropies, hp.weight_temperature)
    current = list(ens.updated)
    for i in range(2):
        opt = nn.OptimizerState(hp.learning_rate, hp.momentum)
        order = replay_rng.permutation(8)
        for start in range(0, 8, hp.batch_size):
            batch = new_data[order[start : start + hp.batch_size]]
            view = expansion.EnsembleState(ens.originals, current)
            _, grads = overall_loss(view, i, batch, weights, hp)
            current[i] = nn.sgd_step(current[i], grads, opt)

    assert np.array_equal(logged_weights(log).weights, weights.weights)
    for scripted, produced in zip(current, result.updated):
        assert np.array_equal(produced.theta, scripted.theta)


# Bit equality holds for the installed BLAS at the measured sizes below, where
# the shuffled batches and the whole-set chunks all have 64 rows but the last;
# it is a property of the BLAS's small-matrix path, not a numpy guarantee (a
# 130-row set, whose last chunk has 2 rows, differed by 6.9e-18).
def test_round_matches_per_batch_replay_at_default_sizes():
    """Rows gathered from the chunked whole-set passes equal per-batch forwards."""
    for n in (300, 700):
        rng = np.random.default_rng(22)
        ens = random_ensemble(rng, m=3, dim=10, hidden=1000, classes=5)
        new_data = rng.normal(size=(n, 10))
        hp = expansion.Hyperparams(epochs=1, seed=4)

        result, log = expansion.expand(ens, new_data, hp)
        used_w = logged_weights(log)

        replay_rng = np.random.default_rng(hp.seed)
        current = list(ens.updated)
        for i in range(3):
            opt = nn.OptimizerState(hp.learning_rate, hp.momentum)
            order = replay_rng.permutation(n)
            for start in range(0, n, hp.batch_size):
                batch = new_data[order[start : start + hp.batch_size]]
                view = expansion.EnsembleState(ens.originals, current)
                _, grads = overall_loss(view, i, batch, used_w, hp)
                current[i] = nn.sgd_step(current[i], grads, opt)

        for scripted, produced in zip(current, result.updated):
            assert produced.theta.tobytes() == scripted.theta.tobytes(), n


def test_round_records_carry_the_log_fields():
    rng = np.random.default_rng(16)
    ens = random_ensemble(rng, m=2)
    x = rng.normal(size=(6, 4))
    hp = expansion.Hyperparams(epochs=1, batch_size=4, seed=2)
    _, records = expansion.expand(ens, x, hp)
    entropies = expansion.ensemble_entropies(ens.updated, x)
    weights = expansion.compute_weights(entropies, hp.weight_temperature)
    assert [r["model_index"] for r in records] == [0, 1]
    for i, r in enumerate(records):
        assert set(r) == {"round", "model_index", "mean_L_org", "mean_L_bias", "E_i", "w_i"}
        assert r["round"] == 1
        assert r["w_i"] == float(weights.weights[i])
        assert r["E_i"] == float(entropies[i])


# ---------------------------------------------------------------------------
# expand


def test_expand_zero_epochs_is_identity():
    rng = np.random.default_rng(17)
    ens = random_ensemble(rng, m=2)
    result, log = expansion.expand(ens, rng.normal(size=(5, 4)), expansion.Hyperparams(epochs=0))
    assert log == []
    for before_m, after_m in zip(ens.updated, result.updated):
        assert np.array_equal(after_m.theta, before_m.theta)


def test_expand_never_touches_the_originals():
    rng = np.random.default_rng(18)
    models = [nn.init_mlp(4, [6], 3, rng) for _ in range(3)]
    frozen = [m.copy() for m in models]
    ens = expansion.EnsembleState.initialize(models)
    hp = expansion.Hyperparams(epochs=2, batch_size=8, learning_rate=0.05, seed=3)
    result, _ = expansion.expand(ens, rng.normal(size=(20, 4)), hp)
    for original, reference in zip(result.originals, frozen):
        assert np.array_equal(original.theta, reference.theta)
    changed = [
        not np.array_equal(u.theta, o.theta) for u, o in zip(result.updated, result.originals)
    ]
    assert any(changed)


def test_expand_on_the_originals_themselves_equals_expand_on_copies():
    """The CLI passes each original as its own updated model, without a copy:
    expand must give the bits it gives on copies and write into no theta."""
    rng = np.random.default_rng(25)
    models = [nn.init_mlp(4, [6], 3, rng) for _ in range(3)]
    before = [m.theta.tobytes() for m in models]
    x = rng.normal(size=(20, 4))
    hp = expansion.Hyperparams(epochs=2, batch_size=8, learning_rate=0.05, momentum=0.5, seed=4)
    shared, shared_log = expansion.expand(expansion.EnsembleState(models, list(models)), x, hp)
    copied, copied_log = expansion.expand(expansion.EnsembleState.initialize(models), x, hp)
    assert repr(shared_log) == repr(copied_log)
    for s_model, c_model, model in zip(shared.updated, copied.updated, models):
        assert s_model.theta.tobytes() == c_model.theta.tobytes() != model.theta.tobytes()
    assert [m.theta.tobytes() for m in models] == before


def test_expand_is_deterministic():
    rng = np.random.default_rng(19)
    models = [nn.init_mlp(3, [5], 2, rng) for _ in range(2)]
    x = rng.normal(size=(12, 3))
    hp = expansion.Hyperparams(epochs=3, batch_size=5, seed=9)
    r1, log1 = expansion.expand(expansion.EnsembleState.initialize(models), x, hp)
    r2, log2 = expansion.expand(expansion.EnsembleState.initialize(models), x, hp)
    assert log1 == log2
    for a, b in zip(r1.updated, r2.updated):
        assert np.array_equal(a.theta, b.theta)


def test_expand_runs_one_forward_and_one_backward_per_step(monkeypatch):
    """Counted in rows forwarded, as the whole-set forwards run in chunks."""
    rng = np.random.default_rng(23)
    m, n, rounds = 3, 20, 3
    ens = random_ensemble(rng, m=m)
    hp = expansion.Hyperparams(epochs=rounds, batch_size=6, seed=1)
    rows, counts = [], {"backward": 0, "sgd_step": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    real_forward = nn.forward_logits

    def counting_forward(model, batch, *rest):
        rows.append(len(batch))
        return real_forward(model, batch, *rest)

    # steps call expansion's binding; whole-set passes go through nn.chunked_logits
    monkeypatch.setattr(expansion, "forward_logits", counting_forward)
    monkeypatch.setattr(nn, "forward_logits", counting_forward)
    monkeypatch.setattr(expansion, "backward", counted("backward", expansion.backward))
    monkeypatch.setattr(expansion, "sgd_step", counted("sgd_step", expansion.sgd_step))
    expansion.expand(ens, rng.normal(size=(n, 4)), hp)

    steps = rounds * m * 4  # batches of 6, 6, 6 and 2 rows
    assert counts == {"backward": steps, "sgd_step": steps}
    # every step forwards its batch; n < nn.CHUNK_ROWS, so each of the
    # m * (rounds + 2) whole-set passes is one n-row forward
    assert sorted(rows) == sorted([6, 6, 6, 2] * rounds * m + [n] * m * (rounds + 2))
    assert sum(rows) == rounds * m * n + m * (rounds + 2) * n


def test_expand_whole_set_passes_run_in_chunks(monkeypatch):
    """An updated model equal to its original shares the original's first pass."""
    rng = np.random.default_rng(24)
    m, n, rounds = 2, 150, 1
    ens = expansion.EnsembleState.initialize([nn.init_mlp(4, [5], 3, rng) for _ in range(m)])
    hp = expansion.Hyperparams(epochs=rounds, seed=2)
    rows = []
    real_forward = nn.forward_logits

    def counting_forward(model, batch, *rest):
        rows.append(len(batch))
        return real_forward(model, batch, *rest)

    monkeypatch.setattr(nn, "forward_logits", counting_forward)
    expansion.expand(ens, rng.normal(size=(n, 4)), hp)
    assert max(rows) == nn.CHUNK_ROWS
    assert rows == [64, 64, 22] * m * (rounds + 1)


def test_expand_log_totals_do_not_increase_on_benchmark():
    cfg, new_transform = data.make_benchmark(
        num_classes=3, feature_dim=6, samples_per_class=40
    )
    domains = data.generate_domains(cfg, 3, new_transform)
    by_name = {ds.name: ds for ds in domains}

    rng = np.random.default_rng(20)
    originals = []
    for i in range(3):
        ds = by_name[f"source_{i}"]
        model = nn.init_mlp(ds.dim, [16], cfg.num_classes, rng)
        model = nn.fit_classifier(
            model, ds.features, ds.labels, 10, 32, nn.OptimizerState(0.05, 0.9), rng
        )
        originals.append(model)

    hp = expansion.Hyperparams(epochs=4, seed=0)
    ens = expansion.EnsembleState.initialize(originals)
    _, log = expansion.expand(ens, by_name["new"].features, hp)

    def round_total(round_index):
        # the combined per-model losses recorded for one round, summed
        rows = [r for r in log if r["round"] == round_index]
        assert rows
        return sum(r["mean_L_org"] + hp.lam * r["w_i"] * r["mean_L_bias"] for r in rows)

    assert round_total(hp.epochs) <= round_total(1)
    assert [r["round"] for r in log] == [r for r in range(1, 5) for _ in range(3)]
