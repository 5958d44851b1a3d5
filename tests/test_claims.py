"""Evidence for the paper's three claims, each traced to the part that causes it.

The acceptance gate checks the end results of the default pipeline. These
tests vary one existing knob against it on the same pretrained originals:

- entropy weighting, against uniform weights (a weight_temperature so large
  that every softmax weight is 1/m), raises m1's new-domain gain, and
  inverted weights (the softmax of the negated entropies) lower it further;
- the alignment term makes the updated models disagree less on the new
  domain than the originals do;
- the originals kept beside the updated models make m2 drop less on the
  source domains than m1.

Beside the three claims it checks the paper's target: with entropy weights,
m1 and m2 raise the expanded domain's accuracy, the unweighted mean over the
sources and the new domain, above the unexpanded ensemble's.

Every claim is checked on seeds 0-9 and again on held-out seeds 10-19, and
README's table of the medians is checked against them byte for byte.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from domex import config, data, expansion, fusion, nn

README = Path(__file__).resolve().parents[1] / "README.md"
SEED_SETS = {"seeds 0-9": range(10), "held-out seeds 10-19": range(10, 20)}
UNIFORM_WEIGHT_TEMPERATURE = 1e9
_compute_weights = expansion.compute_weights


def inverted_weights(entropies, weight_temperature):
    """compute_weights of the negated entropies: the most confident model
    feels the most alignment pressure."""
    return _compute_weights(-entropies, weight_temperature)


def disagreement(models, features):
    """Mean over model pairs of the share of rows whose argmax differs."""
    predicted = [p.argmax(axis=1) for p in nn.softmax_outputs(models, features)]
    return float(
        np.mean([np.mean(a != b) for a, b in itertools.combinations(predicted, 2)])
    )


def run_seed(seed):
    """One seed's originals, pretrained as in the acceptance gate with the
    default run configuration, then expanded once per weighting."""
    defaults = config.RunConfig()
    pretrain = defaults.pretrain
    cfg, new_transform = data.make_benchmark(seed=seed)
    domains = data.generate_domains(cfg, 3, new_transform)
    spec = data.SplitSpec(seed=seed)
    splits = {ds.name: data.split(ds, spec) for ds in domains}
    test_sets = {name: test for name, (_, test) in splits.items()}
    new_train = splits["new"][0].features

    originals = []
    for i, child_seed in enumerate(np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(child_seed)
        train = splits[f"source_{i}"][0]
        model = nn.init_mlp(train.dim, defaults.model.hidden_units, cfg.num_classes, rng)
        originals.append(
            nn.fit_classifier(
                model,
                train.features,
                train.labels,
                pretrain.epochs,
                pretrain.batch_size,
                nn.OptimizerState(pretrain.learning_rate, pretrain.momentum),
                rng,
            )
        )

    base = fusion.evaluate_expanded("baseline", originals, originals, test_sets)
    sources = [f"source_{i}" for i in range(3)]
    result = {"disagreement_before": disagreement(originals, new_train)}
    for variant, weight_temperature in (
        ("entropy", defaults.expansion.weight_temperature),
        ("uniform", UNIFORM_WEIGHT_TEMPERATURE),
        ("inverted", defaults.expansion.weight_temperature),
    ):
        hp = expansion.Hyperparams(weight_temperature=weight_temperature, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            if variant == "inverted":
                patch.setattr(expansion, "compute_weights", inverted_weights)
            ensemble, log = expansion.expand(
                expansion.EnsembleState(originals, originals), new_train, hp
            )
        reports = {
            method: fusion.evaluate_expanded(method, originals, ensemble.updated, test_sets)
            for method in ("m1", "m2")
        }
        acc = {method: report.per_domain_accuracy for method, report in reports.items()}
        result[variant] = {
            "weights": [record["w_i"] for record in log],
            "m1_gain": 100.0 * (acc["m1"]["new"] - base.per_domain_accuracy["new"]),
            "expanded_gain": {
                method: 100.0 * (report.expanded_accuracy - base.expanded_accuracy)
                for method, report in reports.items()
            },
            "worst_drop": {
                method: 100.0
                * max(base.per_domain_accuracy[s] - acc[method][s] for s in sources)
                for method in acc
            },
            "disagreement_after": disagreement(ensemble.updated, new_train),
        }
    return result


@pytest.fixture(scope="module")
def runs():
    return {seed: run_seed(seed) for seeds in SEED_SETS.values() for seed in seeds}


def median(values):
    return float(np.median(list(values)))


@pytest.mark.parametrize("seed_set", SEED_SETS)
def test_entropy_weighting_raises_the_new_domain_gain(runs, seed_set):
    picked = [runs[seed] for seed in SEED_SETS[seed_set]]
    # The patch reached expand: every seed's inverted weights differ.
    assert all(r["inverted"]["weights"] != r["entropy"]["weights"] for r in picked)
    entropy, uniform, inverted = (
        median(r[variant]["m1_gain"] for r in picked)
        for variant in ("entropy", "uniform", "inverted")
    )
    print(
        f"{seed_set}: median m1 new-domain gain, entropy {entropy:+.2f}, "
        f"uniform {uniform:+.2f}, inverted {inverted:+.2f}"
    )
    assert entropy > uniform > inverted


@pytest.mark.parametrize("seed_set", SEED_SETS)
def test_alignment_makes_the_models_disagree_less_on_the_new_domain(runs, seed_set):
    picked = [runs[seed] for seed in SEED_SETS[seed_set]]
    before = median(r["disagreement_before"] for r in picked)
    after = median(r["entropy"]["disagreement_after"] for r in picked)
    uniform = median(r["uniform"]["disagreement_after"] for r in picked)
    print(f"{seed_set}: median disagreement {before:.3f} -> {after:.3f} (uniform {uniform:.3f})")
    assert after < before


@pytest.mark.parametrize("seed_set", SEED_SETS)
def test_max_fusion_drops_less_on_the_sources_than_averaging(runs, seed_set):
    picked = [runs[seed] for seed in SEED_SETS[seed_set]]
    drops = {
        (variant, method): median(r[variant]["worst_drop"][method] for r in picked)
        for variant in ("entropy", "uniform")
        for method in ("m1", "m2")
    }
    print(f"{seed_set}: median worst source drop", {k: round(v, 2) for k, v in drops.items()})
    assert drops["entropy", "m2"] < drops["entropy", "m1"]


@pytest.mark.parametrize("seed_set", SEED_SETS)
def test_expansion_raises_the_expanded_domain_accuracy(runs, seed_set):
    picked = [runs[seed] for seed in SEED_SETS[seed_set]]
    gains = {
        (variant, method): median(r[variant]["expanded_gain"][method] for r in picked)
        for variant in ("entropy", "uniform")
        for method in ("m1", "m2")
    }
    print(f"{seed_set}: median expanded-domain gain", {k: round(v, 2) for k, v in gains.items()})
    assert gains["entropy", "m1"] > 0 and gains["entropy", "m2"] > 0


# README's claims table: its columns, then its rows as (weights, seed set).
CLAIMS_COLUMNS = (
    "weights",
    "seeds",
    "m1 new-domain gain",
    "worst source drop, m1 / m2",
    "expanded-domain gain, m1 / m2",
    "disagreement, originals -> updated",
)
CLAIMS_ROWS = [
    ("entropy", "seeds 0-9"),
    ("uniform", "seeds 0-9"),
    ("entropy", "held-out seeds 10-19"),
    ("uniform", "held-out seeds 10-19"),
    ("inverted", "seeds 0-9"),
    ("inverted", "held-out seeds 10-19"),
]


def test_readme_claims_table_is_the_measured_medians(runs):
    lines = [f"| {' | '.join(CLAIMS_COLUMNS)} |", "|---" * len(CLAIMS_COLUMNS) + "|"]
    for variant, seed_set in CLAIMS_ROWS:
        seeds = SEED_SETS[seed_set]
        picked = [runs[seed] for seed in seeds]

        def pair(key):
            return [median(r[variant][key][method] for r in picked) for method in ("m1", "m2")]

        cells = [
            variant,
            f"{seeds[0]}-{seeds[-1]}",
            f"{median(r[variant]['m1_gain'] for r in picked):+.2f} pts",
            "{:.2f} / {:.2f} pts".format(*pair("worst_drop")),
            "{:+.2f} / {:+.2f} pts".format(*pair("expanded_gain")),
            "{:.3f} -> {:.3f}".format(
                median(r["disagreement_before"] for r in picked),
                median(r[variant]["disagreement_after"] for r in picked),
            ),
        ]
        lines.append(f"| {' | '.join(cells)} |")
    block = README.read_text().split("The medians it measures:\n\n", 1)[1].split("\n\n", 1)[0]
    assert "\n".join(lines) == block
