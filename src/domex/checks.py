"""Gradient verification: analytic backprop vs central finite differences.

Every loss the package trains on gets its gradient checked end to end on
small seeded instances. The comparison is relative per element with an
absolute floor, since relative error is meaningless near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expansion, nn

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
    """One loss's check on one seed; gradcheck.json writes its fields in order."""

    loss: str
    seed: int
    max_error: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_error < REL_TOL


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


def _coefficients(ensemble, batch, hp) -> list[tuple[float, float]]:
    """The (a_org, a_bias) that bias, preservation and overall, in that order,
    put on model 0's L_org and L_bias; overall is preservation plus
    lam * w_0 * bias."""
    entropies = expansion.ensemble_entropies(ensemble.updated, batch)
    weights = expansion.compute_weights(entropies, hp.weight_temperature).weights
    return [(0.0, 1.0), (1.0, 0.0), (1.0, hp.lam * float(weights[0]))]


def check_seed(seed: int) -> list[CheckResult]:
    """Compare every loss's backprop gradient against finite differences on
    one seeded problem; the results follow CHECKED_LOSSES.

    One forward of model 0 feeds each loss's gradient() and backward pass.
    One probe sweep then takes all four values at once from one
    cross_entropy and one weighted_loss call per probe: an expansion loss's
    value is a_org * L_org + a_bias * L_bias, the expression weighted_loss
    totals, so each keeps the bits of that loss taken alone.
    """
    ensemble, batch, labels, hp = _tiny_setup(seed)
    model = ensemble.updated[0]
    targets = expansion.frozen_targets(ensemble, 0, batch, hp.temperature)
    coefficients = _coefficients(ensemble, batch, hp)

    logits, cache = nn.forward_logits(model, batch)
    dlogits = [nn.cross_entropy(logits, labels)[1]()] + [
        expansion.weighted_loss(logits, targets, a_org, a_bias, hp.temperature)[1]()
        for a_org, a_bias in coefficients
    ]

    def values(probe):
        logits = nn.forward_logits(probe, batch)[0]
        l_org, l_bias = expansion.weighted_loss(logits, targets, 1.0, 1.0, hp.temperature)[2:]
        return [nn.cross_entropy(logits, labels)[0]] + [
            a_org * l_org + a_bias * l_bias for a_org, a_bias in coefficients
        ]

    numeric = nn.finite_diff_gradient(values, model)
    return [
        CheckResult(name, seed, gradient_discrepancy(nn.backward(model, cache, d), numeric[:, k]))
        for k, (name, d) in enumerate(zip(CHECKED_LOSSES, dlogits))
    ]


def run_gradient_suite(seeds: tuple[int, ...]) -> list[CheckResult]:
    """Check every trained loss over the given seeds; returns all results,
    loss by loss."""
    return [result for per_loss in zip(*map(check_seed, seeds)) for result in per_loss]
