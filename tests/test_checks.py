"""The finite-difference verifier itself, including its negative control."""

import numpy as np
import pytest

from domex import checks, expansion, nn
from domex.config import GradcheckConfig
from domex.errors import InputError


def test_suite_passes_on_default_seeds():
    results = checks.run_gradient_suite(tuple(GradcheckConfig().seeds))
    assert len(results) == len(checks.CHECKED_LOSSES) * 5
    assert {r.loss_name for r in results} == set(checks.CHECKED_LOSSES)
    for r in results:
        assert r.passed, f"{r.loss_name} seed {r.seed}: max error {r.max_error:.3e}"
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


@pytest.mark.parametrize("loss_name", ["bias", "preservation", "overall"])
def test_expansion_check_runs_the_frozen_targets_once(monkeypatch, loss_name):
    # the analytic and the numeric side share one pass of model 0's peers and original
    calls = []
    frozen_targets = expansion.frozen_targets

    def counted(*args, **kwargs):
        calls.append(args[1])
        return frozen_targets(*args, **kwargs)

    monkeypatch.setattr(expansion, "frozen_targets", counted)
    assert checks.check_loss_gradient(loss_name, 0).passed
    assert calls == [0]


@pytest.mark.parametrize("loss_name", checks.CHECKED_LOSSES)
def test_probes_take_the_value_of_the_loss_whose_gradient_is_checked(monkeypatch, loss_name):
    # one call for the analytic side, two per parameter for the probes; only
    # the analytic side asks for the gradient
    calls = {"loss": 0, "gradient": 0}

    def counted(loss):
        def wrapper(*args, **kwargs):
            value, gradient, *terms = loss(*args, **kwargs)

            def counted_gradient():
                calls["gradient"] += 1
                return gradient()

            calls["loss"] += 1
            return (value, counted_gradient, *terms)

        return wrapper

    monkeypatch.setattr(nn, "cross_entropy", counted(nn.cross_entropy))
    monkeypatch.setattr(expansion, "weighted_loss", counted(expansion.weighted_loss))
    assert checks.check_loss_gradient(loss_name, 0).passed
    params = checks._tiny_setup(0)[0].updated[0].theta.size
    assert calls == {"loss": 2 * params + 1, "gradient": 1}


def test_single_loss_check_is_deterministic():
    a = checks.check_loss_gradient("bias", seed=3)
    b = checks.check_loss_gradient("bias", seed=3)
    assert a.max_error == b.max_error
    with pytest.raises(InputError):
        checks.check_loss_gradient("made_up_loss", seed=0)


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
