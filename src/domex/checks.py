"""Gradient verification: analytic backprop vs central finite differences.

Every loss the package trains on gets its gradient checked end to end on
small seeded instances. The comparison is relative per element with an
absolute floor, since relative error is meaningless near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expansion, nn
from .errors import InputError

ABS_FLOOR = 1e-8
REL_TOL = 1e-4

CHECKED_LOSSES = ("cross_entropy", "bias", "preservation", "overall")


def gradient_discrepancy(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case per-element error between two gradient vectors.

    Elements where both magnitudes are below ABS_FLOOR are compared
    absolutely; the rest relatively against the larger magnitude.
    """
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.where(scale < ABS_FLOOR, diff, diff / np.maximum(scale, ABS_FLOOR))
    return float(err.max(initial=0.0))


@dataclass
class CheckResult:
    loss_name: str
    seed: int
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error < REL_TOL


def _tiny_setup(seed: int):
    """Seeded small problem: 3 peer models, a mixed batch, labels."""
    rng = np.random.default_rng(seed)
    input_dim, num_classes, n = 4, 3, 6
    models = [nn.init_mlp(input_dim, [5], num_classes, rng) for _ in range(3)]
    batch = rng.normal(0.0, 1.0, size=(n, input_dim))
    labels = rng.integers(0, num_classes, size=n)
    ensemble = expansion.EnsembleState.initialize(models)
    # Nudge the trainable copies off their originals; otherwise the
    # preservation gradient is exactly zero and its check proves nothing.
    for model in ensemble.updated:
        model.theta += 0.05 * rng.standard_normal(model.theta.size)
    hp = expansion.Hyperparams(epochs=1, batch_size=n, seed=seed)
    return ensemble, batch, labels, hp


def _overall_coefficients(ensemble, batch, hp) -> tuple[float, float]:
    entropies = expansion.ensemble_entropies(ensemble.updated, batch)
    weights = expansion.compute_weights(entropies, hp.weight_temperature).weights
    return 1.0, hp.lam * float(weights[0])


# The (a_org, a_bias) coefficients that each expansion loss puts on L_org and
# L_bias for model 0; overall is preservation plus lam * w_0 * bias.
_COEFFICIENTS = {
    "bias": lambda ensemble, batch, hp: (0.0, 1.0),
    "preservation": lambda ensemble, batch, hp: (1.0, 0.0),
    "overall": _overall_coefficients,
}


def _gradient_and_loss(loss_name: str, seed: int):
    """Model 0's analytic gradient, model 0, and its value-only loss function."""
    ensemble, batch, labels, hp = _tiny_setup(seed)
    model = ensemble.updated[0]
    if loss_name == "cross_entropy":
        logits, cache = nn.forward_logits(model, batch)
        grads = nn.backward(model, cache, nn.cross_entropy_gradient(logits, labels))
        loss_fn = lambda m: nn.cross_entropy(nn.forward_logits(m, batch)[0], labels)
        return grads, model, loss_fn
    # Model 0's anchor and peers are frozen, so they are run once per check
    # and both sides take them: the gradient from the loss that every expand
    # step calls, each probe from one forward and no backward.
    a_org, a_bias = _COEFFICIENTS[loss_name](ensemble, batch, hp)
    targets = expansion.frozen_targets(ensemble, 0, batch, hp.temperature, a_org, a_bias)
    args = (batch, *targets, a_org, a_bias, hp.temperature)
    grads = expansion.weighted_loss(model, *args)[1]
    return grads, model, lambda m: expansion.weighted_loss_value(m, *args)


def check_loss_gradient(loss_name: str, seed: int) -> CheckResult:
    """Compare one loss's backprop gradient against finite differences."""
    if loss_name not in CHECKED_LOSSES:
        raise InputError(f"unknown loss {loss_name!r}; expected one of {CHECKED_LOSSES}")
    grads, model, loss_fn = _gradient_and_loss(loss_name, seed)
    numeric = nn.finite_diff_gradient(loss_fn, model)
    return CheckResult(loss_name, seed, gradient_discrepancy(grads, numeric))


def run_gradient_suite(seeds: tuple[int, ...] = (0, 1, 2, 3, 4)) -> list[CheckResult]:
    """Check every trained loss over the given seeds; returns all results."""
    return [
        check_loss_gradient(name, seed)
        for name in CHECKED_LOSSES
        for seed in seeds
    ]
