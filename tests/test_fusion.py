"""Score fusion, accuracy bookkeeping, and the entropy/accuracy report."""

from dataclasses import asdict

import numpy as np
import pytest

from domex import fusion, nn
from domex.data import DomainDataset
from domex.errors import InputError


def random_models(rng, m, dim=3, classes=3):
    return [nn.init_mlp(dim, [4], classes, rng) for _ in range(m)]


def softmax_rows(model, batch):
    return nn.softmax_temperature(nn.forward_logits(model, batch)[0], 1.0)


# ---------------------------------------------------------------------------
# fuse_m1


def test_m1_single_model_is_its_softmax():
    rng = np.random.default_rng(0)
    model = random_models(rng, 1)[0]
    batch = rng.normal(size=(6, 3))
    pred = fusion.fuse_m1([model], batch)
    assert np.max(np.abs(pred.scores - softmax_rows(model, batch))) <= 1e-12


def test_m1_opposite_onehots_average_to_half(linear_model):
    # bias-only models whose softmax output is the given distribution
    models = [linear_model(np.log(p)) for p in ([0.999999, 0.000001], [0.000001, 0.999999])]
    pred = fusion.fuse_m1(models, np.zeros((1, 2)))
    assert np.max(np.abs(pred.scores - 0.5)) <= 1e-5


def test_m1_brute_force_oracle():
    rng = np.random.default_rng(1)
    models = random_models(rng, 3)
    batch = rng.normal(size=(5, 3))
    pred = fusion.fuse_m1(models, batch)
    expected = np.mean([softmax_rows(m, batch) for m in models], axis=0)
    assert np.max(np.abs(pred.scores - expected)) <= 1e-12
    assert np.max(np.abs(pred.scores.sum(axis=1) - 1.0)) <= 1e-9


def test_m1_ignores_per_model_logit_offsets():
    rng = np.random.default_rng(2)
    models = random_models(rng, 3)
    batch = rng.normal(size=(4, 3))
    base = fusion.fuse_m1(models, batch)
    shifted_models = []
    for k, m in enumerate(models):
        shifted = m.copy()
        shifted.layers[-1].bias += 10.0 * (k + 1)  # constant over classes
        shifted_models.append(shifted)
    shifted_pred = fusion.fuse_m1(shifted_models, batch)
    assert np.max(np.abs(shifted_pred.scores - base.scores)) <= 1e-9
    assert np.array_equal(shifted_pred.predicted, base.predicted)


def test_m1_and_baseline_are_model_order_invariant():
    rng = np.random.default_rng(3)
    models = random_models(rng, 3)
    batch = rng.normal(size=(7, 3))
    probs = nn.softmax_outputs(models, batch)
    reordered = [probs[2], probs[0], probs[1]]
    assert np.max(np.abs(
        fusion.fuse("m1", None, probs).scores - fusion.fuse("m1", None, reordered).scores
    )) <= 1e-12
    assert np.array_equal(
        fusion.fuse("baseline", probs, None).predicted,
        fusion.fuse("baseline", reordered, None).predicted,
    )


def test_baseline_and_m1_are_one_rule_on_different_models():
    rng = np.random.default_rng(15)
    probs = nn.softmax_outputs(random_models(rng, 3), rng.normal(size=(5, 3)))
    assert np.array_equal(
        fusion.fuse("baseline", probs, None).scores, fusion.fuse("m1", None, probs).scores
    )


# ---------------------------------------------------------------------------
# fuse_m2


def test_m2_degenerates_to_m1_argmax_when_nothing_moved():
    rng = np.random.default_rng(4)
    models = random_models(rng, 3)
    batch = rng.normal(size=(6, 3))
    m2 = fusion.fuse_m2(models, [m.copy() for m in models], batch)
    m1 = fusion.fuse_m1(models, batch)
    assert np.array_equal(m2.predicted, m1.predicted)


def test_m2_elementwise_max_by_hand(linear_model):
    original = linear_model(np.log([0.7, 0.3]))
    updated = linear_model(np.log([0.4, 0.6]))
    x = np.zeros((1, 2))
    pred = fusion.fuse_m2([original], [updated], x)
    assert np.max(np.abs(pred.scores - np.array([0.7, 0.6]))) <= 1e-9
    assert pred.predicted.tolist() == [0]


def test_m2_brute_force_oracle_and_bounds():
    rng = np.random.default_rng(5)
    originals = random_models(rng, 2)
    updated = random_models(rng, 2)
    batch = rng.normal(size=(5, 3))
    pred = fusion.fuse_m2(originals, updated, batch)

    expected = np.zeros((5, 3))
    for o, u in zip(originals, updated):
        p_o, p_u = softmax_rows(o, batch), softmax_rows(u, batch)
        for n in range(5):
            for c in range(3):
                expected[n, c] += max(p_o[n, c], p_u[n, c])
    assert np.max(np.abs(pred.scores - expected)) <= 1e-12
    assert np.all(pred.scores <= 2.0)
    per_model_max = np.maximum(
        np.max([softmax_rows(m, batch) for m in originals], axis=0),
        np.max([softmax_rows(m, batch) for m in updated], axis=0),
    )
    assert np.all(pred.scores >= per_model_max - 1e-12)


def test_m2_scale_of_scores_does_not_change_predictions():
    rng = np.random.default_rng(6)
    originals = random_models(rng, 2)
    updated = random_models(rng, 2)
    batch = rng.normal(size=(8, 3))
    pred = fusion.fuse_m2(originals, updated, batch)
    rescaled = fusion.PredictionBatch.from_scores(pred.scores * 0.37)
    assert np.array_equal(rescaled.predicted, pred.predicted)


def test_m2_rejects_mismatched_lists():
    rng = np.random.default_rng(7)
    x = np.zeros((1, 3))
    with pytest.raises(InputError):
        fusion.fuse_m2(random_models(rng, 2), random_models(rng, 1), x)


# ---------------------------------------------------------------------------
# fuse_baseline, accuracy, prediction plumbing


def test_baseline_single_and_identical_models():
    rng = np.random.default_rng(8)
    model = random_models(rng, 1)[0]
    batch = rng.normal(size=(5, 3))
    single = fusion.fuse_baseline([model], batch)
    assert np.array_equal(
        single.predicted, np.argmax(softmax_rows(model, batch), axis=1)
    )
    trio = fusion.fuse_baseline([model.copy() for _ in range(3)], batch)
    assert np.array_equal(trio.predicted, single.predicted)


def test_baseline_brute_force_oracle():
    rng = np.random.default_rng(9)
    models = random_models(rng, 3)
    batch = rng.normal(size=(4, 3))
    pred = fusion.fuse_baseline(models, batch)
    expected = np.mean([softmax_rows(m, batch) for m in models], axis=0)
    assert np.max(np.abs(pred.scores - expected)) <= 1e-12


def test_prediction_ties_break_to_lowest_class():
    pred = fusion.PredictionBatch.from_scores(
        np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
    )
    assert pred.predicted.tolist() == [0, 1]


def test_accuracy_counting():
    pred = fusion.PredictionBatch.from_scores(np.eye(4))
    assert fusion.accuracy(pred, np.arange(4)) == 1.0
    assert fusion.accuracy(pred, (np.arange(4) + 1) % 4) == 0.0
    assert fusion.accuracy(pred, np.array([0, 1, 2, 0])) == 0.75
    with pytest.raises(InputError):
        fusion.accuracy(pred, np.arange(3))
    # (4, 1) labels would broadcast against (4,) predictions to a 4x4 grid.
    with pytest.raises(InputError):
        fusion.accuracy(pred, np.arange(4).reshape(4, 1))


def test_model_form_matches_probability_form_exactly():
    rng = np.random.default_rng(13)
    originals = random_models(rng, 3)
    updated = random_models(rng, 3)
    batch = rng.normal(size=(6, 3))
    p_o = nn.softmax_outputs(originals, batch)
    p_u = nn.softmax_outputs(updated, batch)
    pairs = [
        (fusion.fuse_baseline(originals, batch), fusion.fuse("baseline", p_o, None)),
        (fusion.fuse_m1(updated, batch), fusion.fuse("m1", None, p_u)),
        (fusion.fuse_m2(originals, updated, batch), fusion.fuse("m2", p_o, p_u)),
    ]
    for from_models, from_probs in pairs:
        assert np.array_equal(from_models.scores, from_probs.scores)


# ---------------------------------------------------------------------------
# expanded accuracy and reports


def test_expanded_accuracy_replays_published_vector():
    per_domain = {"C": 92.92, "L": 64.87, "S": 77.64, "V": 76.01}
    assert abs(fusion.expanded_accuracy(per_domain) - 77.86) <= 1e-12


def test_expanded_accuracy_edge_cases():
    assert fusion.expanded_accuracy({"only": 0.42}) == 0.42
    assert abs(fusion.expanded_accuracy({"a": 0.0, "b": 1.0}) - 0.5) <= 1e-15
    with pytest.raises(InputError):
        fusion.expanded_accuracy({})


def test_evaluate_expanded_reports_mean_of_domains():
    rng = np.random.default_rng(11)
    models = random_models(rng, 2, dim=3, classes=3)
    test_sets = {
        name: DomainDataset(
            name, rng.normal(size=(6, 3)), rng.integers(0, 3, size=6)
        )
        for name in ("source_0", "source_1", "new")
    }
    report = fusion.evaluate_expanded("baseline", models, models, test_sets)
    assert set(report.per_domain_accuracy) == set(test_sets)
    mean = np.mean(list(report.per_domain_accuracy.values()))
    assert abs(report.expanded_accuracy - mean) <= 1e-12
    assert report.method == "baseline"

    payload = asdict(report)
    assert list(payload) == ["method", "per_domain_accuracy", "expanded_accuracy"]
    assert payload["expanded_accuracy"] == report.expanded_accuracy


def test_evaluate_expanded_rejects_unusable_test_sets():
    rng = np.random.default_rng(12)
    models = random_models(rng, 2)
    with pytest.raises(InputError):
        fusion.evaluate_expanded("baseline", models, models, {})
    unlabelled = {"new": DomainDataset("new", rng.normal(size=(3, 3)))}
    with pytest.raises(InputError):
        fusion.evaluate_expanded("baseline", models, models, unlabelled)


def test_evaluate_runs_one_forward_per_model_and_domain(monkeypatch):
    """Counted in rows forwarded: each model passes over each test set once."""
    rng = np.random.default_rng(14)
    originals = random_models(rng, 3)
    updated = random_models(rng, 3)
    # 70 rows take two chunks
    sizes = {"source_0": 5, "source_1": 6, "source_2": 7, "new": 70}
    test_sets = {
        name: DomainDataset(name, rng.normal(size=(n, 3)), rng.integers(0, 3, size=n))
        for name, n in sizes.items()
    }
    separate = {
        method: fusion.evaluate_expanded(method, originals, updated, test_sets)
        for method in fusion.FUSION_METHODS
    }

    rows = []
    real_forward = nn.forward_logits

    def counting_forward(model, batch, *rest):
        rows.append(len(batch))
        return real_forward(model, batch, *rest)

    monkeypatch.setattr(nn, "forward_logits", counting_forward)
    outputs = {}
    shared = {
        method: fusion.evaluate_expanded(
            method, originals, updated, test_sets, outputs=outputs
        )
        for method in fusion.FUSION_METHODS
    }
    assert sorted(rows) == sorted([5, 6, 7, 64, 6] * 6)
    assert sum(rows) == 6 * sum(sizes.values())
    for method in fusion.FUSION_METHODS:
        assert shared[method] == separate[method]


# ---------------------------------------------------------------------------
# results table


def test_results_table_layout():
    reports = {
        method: fusion.EvaluationReport(method, {"source_0": 0.5, "new": 0.25}, 0.375)
        for method in ("baseline", "m1", "m2")
    }
    table = fusion.format_results_table(reports)
    lines = table.splitlines()
    assert "Base" in lines[0] and "M1" in lines[0] and "M2" in lines[0]
    assert lines[1].startswith("source_0")
    assert lines[2].startswith("new")
    assert lines[-1].startswith("Expanded")
    assert "37.50" in lines[-1]
