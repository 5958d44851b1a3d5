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


def _loss_of_logits(loss_name: str, ensemble, batch, labels, hp):
    """Model 0's loss as a function of its logits on the batch.

    An expansion loss takes model 0's target stack, which is frozen, from
    one frozen_targets pass per check.
    """
    if loss_name == "cross_entropy":
        return lambda logits: nn.cross_entropy(logits, labels)
    a_org, a_bias = _COEFFICIENTS[loss_name](ensemble, batch, hp)
    targets = expansion.frozen_targets(ensemble, 0, batch, hp.temperature)
    return lambda logits: expansion.weighted_loss(logits, targets, a_org, a_bias, hp.temperature)


def check_loss_gradient(loss_name: str, seed: int) -> CheckResult:
    """Compare one loss's backprop gradient against finite differences.

    Both sides run model 0 forward and then the same loss of its logits: the
    analytic side backpropagates that loss's gradient(), and each probe takes
    its value alone.
    """
    if loss_name not in CHECKED_LOSSES:
        raise InputError(f"unknown loss {loss_name!r}; expected one of {CHECKED_LOSSES}")
    ensemble, batch, labels, hp = _tiny_setup(seed)
    model = ensemble.updated[0]
    loss = _loss_of_logits(loss_name, ensemble, batch, labels, hp)
    logits, cache = nn.forward_logits(model, batch)
    grads = nn.backward(model, cache, loss(logits)[1]())
    numeric = nn.finite_diff_gradient(lambda m: loss(nn.forward_logits(m, batch)[0])[0], model)
    return CheckResult(loss_name, seed, gradient_discrepancy(grads, numeric))


def run_gradient_suite(seeds: tuple[int, ...]) -> list[CheckResult]:
    """Check every trained loss over the given seeds; returns all results."""
    return [
        check_loss_gradient(name, seed)
        for name in CHECKED_LOSSES
        for seed in seeds
    ]
