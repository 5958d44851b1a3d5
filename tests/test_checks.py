"""The finite-difference verifier itself, including its negative controls."""

import collections

import numpy as np
import pytest

from domex import checks, expansion, nn
from domex.config import GradcheckConfig


def test_suite_passes_on_default_seeds():
    results = checks.run_gradient_suite(tuple(GradcheckConfig().seeds))
    assert len(results) == len(checks.CHECKED_LOSSES) * 5
    assert {r.loss for r in results} == set(checks.CHECKED_LOSSES)
    for r in results:
        assert r.passed, f"{r.loss} seed {r.seed}: max error {r.max_error:.3e}"
        assert r.max_error < checks.REL_TOL


def test_corrupted_gradient_is_reported(monkeypatch):
    # negative control: biasing the analytic first-layer weight gradient, in
    # the backward pass that every check runs after its loss, must trip every
    # check
    backward = nn.backward

    def corrupted(model, cache, dlogits):
        grads = backward(model, cache, dlogits)
        grads[: model.layers[0].weights.size] += 0.5
        return grads

    monkeypatch.setattr(nn, "backward", corrupted)
    results = checks.run_gradient_suite(seeds=(0,))
    assert len(results) == len(checks.CHECKED_LOSSES)
    assert not any(r.passed for r in results)


def test_a_corrupted_bias_gradient_fails_only_the_bias_checks(monkeypatch):
    # targeted negative control: the four checks share one forward and one
    # probe sweep, yet corrupting the one gradient() that only the bias loss
    # (a_org == 0) asks for must fail the bias rows and no others
    weighted_loss = expansion.weighted_loss

    def corrupted(logits, targets, a_org, a_bias, temperature):
        value, gradient, *terms = weighted_loss(logits, targets, a_org, a_bias, temperature)
        if a_org == 0.0:
            return (value, lambda: gradient() + 0.5, *terms)
        return (value, gradient, *terms)

    monkeypatch.setattr(expansion, "weighted_loss", corrupted)
    results = checks.run_gradient_suite(seeds=(0, 1))
    assert [(r.loss, r.seed) for r in results if not r.passed] == [("bias", 0), ("bias", 1)]


def own_check_error(loss_name, seed):
    """max_error of one loss checked alone: its own closure of model 0's
    logits, its own forward and its own finite-difference sweep."""
    ensemble, batch, labels, hp = checks._tiny_setup(seed)
    model = ensemble.updated[0]
    if loss_name == "cross_entropy":
        loss = lambda logits: nn.cross_entropy(logits, labels)
    else:
        entropies = expansion.ensemble_entropies(ensemble.updated, batch)
        w_0 = float(expansion.compute_weights(entropies, hp.weight_temperature).weights[0])
        a_org, a_bias = {
            "bias": (0.0, 1.0),
            "preservation": (1.0, 0.0),
            "overall": (1.0, hp.lam * w_0),
        }[loss_name]
        targets = expansion.frozen_targets(ensemble, 0, batch, hp.temperature)
        loss = lambda logits: expansion.weighted_loss(
            logits, targets, a_org, a_bias, hp.temperature
        )
    logits, cache = nn.forward_logits(model, batch)
    analytic = nn.backward(model, cache, loss(logits)[1]())
    numeric = nn.finite_diff_gradient(lambda m: loss(nn.forward_logits(m, batch)[0])[0], model)
    return checks.gradient_discrepancy(analytic, numeric)


@pytest.mark.parametrize("loss_name", checks.CHECKED_LOSSES)
def test_probes_take_the_value_of_the_loss_whose_gradient_is_checked(loss_name):
    # the shared sweep cannot cross-wire the losses: each row's error has the
    # bits of the one its loss gets when checked alone
    results = checks.run_gradient_suite(seeds=(0, 1))
    for seed in (0, 1):
        [result] = [r for r in results if (r.loss, r.seed) == (loss_name, seed)]
        assert result.max_error.hex() == own_check_error(loss_name, seed).hex()


def test_a_seed_makes_one_setup_one_analytic_forward_and_one_probe_sweep(monkeypatch):
    ensemble = checks._tiny_setup(0)[0]
    params, peers = ensemble.updated[0].theta.size, ensemble.m
    calls = collections.Counter()

    def counted(module, name, loss=False):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if not loss:
                return result
            value, gradient, *terms = result

            def counted_gradient():
                calls["gradient"] += 1
                return gradient()

            return (value, counted_gradient, *terms)

        monkeypatch.setattr(module, name, wrapper)

    counted(checks, "_tiny_setup")
    counted(expansion, "frozen_targets")
    counted(expansion, "ensemble_entropies")
    counted(nn, "forward_logits")
    counted(nn, "backward")
    counted(nn, "cross_entropy", loss=True)
    counted(expansion, "weighted_loss", loss=True)
    assert all(r.passed for r in checks.check_seed(0))
    # One analytic forward and 2P probes of model 0; the frozen-targets and
    # entropy passes forward each of the m models once on the 6-row batch.
    assert calls == {
        "_tiny_setup": 1,
        "frozen_targets": 1,
        "ensemble_entropies": 1,
        "forward_logits": 2 * params + 1 + 2 * peers,
        "backward": 4,
        "cross_entropy": 2 * params + 1,
        "weighted_loss": 2 * params + 3,
        "gradient": 4,
    }


@pytest.mark.parametrize("loss_name", ["bias", "overall", "preservation"])
def test_expansion_check_runs_the_frozen_targets_once(monkeypatch, loss_name):
    # the analytic and the numeric side of every expansion loss of a seed
    # share one pass of model 0's peers and original
    calls = []
    frozen_targets = expansion.frozen_targets

    def counted(*args, **kwargs):
        calls.append(args[1])
        return frozen_targets(*args, **kwargs)

    monkeypatch.setattr(expansion, "frozen_targets", counted)
    [result] = [r for r in checks.check_seed(0) if r.loss == loss_name]
    assert result.passed
    assert calls == [0]


def test_seed_check_is_deterministic_and_the_suite_orders_it_loss_by_loss():
    a, b = checks.check_seed(3), checks.check_seed(3)
    assert [r.loss for r in a] == list(checks.CHECKED_LOSSES)
    assert [r.max_error.hex() for r in a] == [r.max_error.hex() for r in b]
    c = checks.check_seed(0)
    suite = checks.run_gradient_suite(seeds=(3, 0))
    assert suite == [r for pair in zip(a, c) for r in pair]


def test_discrepancy_of_identical_gradients_is_zero():
    rng = np.random.default_rng(0)
    model = nn.init_mlp(3, [4], 2, rng)
    grads = nn.finite_diff_gradient(
        lambda m: float(sum(np.sum(l.weights) for l in m.layers)), model
    )
    assert checks.gradient_discrepancy(grads, grads) == 0.0


def test_discrepancy_uses_absolute_floor_for_tiny_entries():
    g = np.array([0.0, 0.0])
    h = np.array([5e-9, 0.0])
    # both magnitudes sit under the floor, so the difference reads as absolute
    assert checks.gradient_discrepancy(g, h) <= 1e-8
