"""The finite-difference verifier itself, including its negative control."""

import numpy as np
import pytest

from domex import checks, nn
from domex.errors import InputError


def test_suite_passes_on_default_seeds():
    results = checks.run_gradient_suite()
    assert len(results) == len(checks.CHECKED_LOSSES) * 5
    assert {r.loss_name for r in results} == set(checks.CHECKED_LOSSES)
    for r in results:
        assert r.passed, f"{r.loss_name} seed {r.seed}: max error {r.max_error:.3e}"
        assert r.max_error < checks.REL_TOL


def test_corrupted_gradient_is_reported():
    # negative control: biasing one analytic gradient entry must trip the check
    results = checks.run_gradient_suite(seeds=(0,), corruption=0.5)
    assert any(not r.passed for r in results)


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
