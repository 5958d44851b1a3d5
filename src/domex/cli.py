"""Command-line pipeline: synth -> pretrain -> expand -> evaluate.

Each stage reads one JSON config (defaults apply when omitted), works inside
a run directory, and leaves a manifest of inputs and output digests behind.
The expand stage deliberately takes no source-domain data: it consumes only
the saved source models and the unlabelled new-domain features, which the
manifest makes auditable.

Exit codes: 0 success, 2 bad configuration (ConfigError, or a MemoryError:
sizes this machine cannot hold), 3 missing or malformed files (InputError,
OSError), 4 numeric failure (NumericError).
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when main builds the parser; importing it
# here makes that part of start-up, not of the stage that runs first.
import locale  # noqa: F401
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, checks, expansion, fusion, nn
from .config import OutputLayout, RunConfig, load_config, write_manifest
from .data import (
    DomainDataset,
    benchmark_shifts,
    generate_domains,
    load_csv,
    split,
    write_atomic,
    write_csv,
)
from .errors import ConfigError, InputError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _domain_names(cfg: RunConfig) -> list[str]:
    return [f"source_{i}" for i in range(cfg.data.num_sources)] + ["new"]


def _check_features(path: Path, ds: DomainDataset, ref: Path, width: int) -> None:
    """Refuse the CSV at path unless its feature count is width, ref's."""
    if ds.dim != width:
        raise InputError(f"{path} has {ds.dim} features but {ref} has {width}")


def _load_labelled(
    paths: list[Path], cfg: RunConfig, ref: Path, width: int | None
) -> list[DomainDataset]:
    """The labelled CSVs at paths, each refused unless it has a label column,
    labels below num_classes and width features, ref's (None: the first CSV's)."""
    sets = []
    for path in paths:
        ds = load_csv(path)
        if not ds.labelled:
            raise InputError(f"{path} has no label column")
        top = int(ds.labels.max())
        if top >= cfg.data.num_classes:
            raise ConfigError(f"{path} has label {top} but num_classes is {cfg.data.num_classes}")
        width = ds.dim if width is None else width
        _check_features(path, ds, ref, width)
        sets.append(ds)
    return sets


def cmd_synth(cfg: RunConfig, layout: OutputLayout, config_paths: list[Path]) -> None:
    new_transform = benchmark_shifts(cfg.data)[1]
    domains = generate_domains(cfg.data, cfg.data.num_sources, new_transform)

    outputs = []
    for ds in domains:
        train, test = split(ds, cfg.data)
        test_part = (layout.domain_csv(ds.name, "test"), test)
        if ds.name == "new":
            # The new domain's train rows are written once, without labels.
            unlabelled = DomainDataset("new_unlabelled", train.features)
            parts = [test_part, (layout.new_unlabelled_csv, unlabelled)]
        else:
            parts = [(layout.domain_csv(ds.name, "train"), train), test_part]
        for path, part_ds in parts:
            write_csv(part_ds, path)
            outputs.append(path)
    write_manifest(layout, "synth", cfg, config_paths, outputs)
    print(f"synth: {len(domains)} domains under {layout.data_dir}")


def cmd_pretrain(cfg: RunConfig, layout: OutputLayout, config_paths: list[Path]) -> None:
    seeds = np.random.SeedSequence(cfg.pretrain.seed).spawn(cfg.data.num_sources)

    csv_paths = [layout.domain_csv(name, "train") for name in _domain_names(cfg)[:-1]]
    inputs, outputs = list(config_paths) + csv_paths, []
    train_sets = _load_labelled(csv_paths, cfg, csv_paths[0], None)
    # Every source domain must cover the same classes; the whole method
    # assumes one shared label space.
    classes = [sorted(set(t.labels.tolist())) for t in train_sets]
    for csv_path, found in zip(csv_paths[1:], classes[1:]):
        if found != classes[0]:
            raise InputError(f"{csv_path} has labels {found} but {csv_paths[0]} has {classes[0]}")

    for i, train in enumerate(train_sets):
        rng = np.random.default_rng(seeds[i])
        model = nn.init_mlp(
            train.dim, cfg.model.hidden_units, cfg.data.num_classes, rng
        )
        opt = nn.OptimizerState(
            learning_rate=cfg.pretrain.learning_rate, momentum=cfg.pretrain.momentum
        )
        model = nn.fit_classifier(
            model,
            train.features,
            train.labels,
            epochs=cfg.pretrain.epochs,
            batch_size=cfg.pretrain.batch_size,
            opt=opt,
            rng=rng,
        )
        path = layout.original_model(i)
        nn.save_model(model, path)
        outputs.append(path)
    write_manifest(layout, "pretrain", cfg, inputs, outputs)
    print(f"pretrain: {cfg.data.num_sources} source models under {layout.models_dir}")


def cmd_expand(cfg: RunConfig, layout: OutputLayout, config_paths: list[Path]) -> None:
    # Source-free by construction: inputs are the source models plus the
    # unlabelled new-domain features, nothing else.
    model_paths = [layout.original_model(i) for i in range(cfg.data.num_sources)]
    originals = _load_models(model_paths, cfg)
    new_data = load_csv(layout.new_unlabelled_csv)
    _check_features(layout.new_unlabelled_csv, new_data, model_paths[0], originals[0].input_dim)

    # Each updated model starts as its original object, not a copy: expand
    # replaces models and never writes into a theta.
    ensemble = expansion.EnsembleState(originals, list(originals))
    ensemble, log = expansion.expand(ensemble, new_data.features, cfg.expansion)

    outputs = []
    for i, model in enumerate(ensemble.updated):
        path = layout.updated_model(i)
        nn.save_model(model, path)
        outputs.append(path)
    log_lines = [json.dumps(record) for record in log]
    write_atomic(layout.training_log, "\n".join(log_lines) + ("\n" if log_lines else ""))
    outputs.append(layout.training_log)

    inputs = config_paths + model_paths + [layout.new_unlabelled_csv]
    write_manifest(layout, "expand", cfg, inputs, outputs)
    print(
        f"expand: {len(ensemble.updated)} updated models after "
        f"{cfg.expansion.epochs} rounds under {layout.expanded_dir}"
    )


def _load_models(paths: list[Path], cfg: RunConfig) -> list[nn.MlpModel]:
    """The models at paths, refused unless every one emits the configured
    classes and takes the first one's features."""
    models = [nn.load_model(path) for path in paths]
    for path, model in zip(paths, models):
        if model.input_dim != models[0].input_dim:
            raise InputError(
                f"{path} has input_dim {model.input_dim} but {paths[0]} has {models[0].input_dim}"
            )
        if model.num_classes != cfg.data.num_classes:
            raise InputError(
                f"{path} emits {model.num_classes} classes but num_classes is "
                f"{cfg.data.num_classes}"
            )
    return models


def cmd_evaluate(cfg: RunConfig, layout: OutputLayout, config_paths: list[Path]) -> None:
    model_paths = [
        role(i)
        for i in range(cfg.data.num_sources)
        for role in (layout.original_model, layout.updated_model)
    ]
    models = _load_models(model_paths, cfg)
    originals, updated = models[0::2], models[1::2]
    names = _domain_names(cfg)
    csv_paths = [layout.domain_csv(name, "test") for name in names]
    labelled = _load_labelled(csv_paths, cfg, model_paths[0], models[0].input_dim)
    test_sets = dict(zip(names, labelled))

    # Shared by all methods: one pass per (model, test set).
    outputs: dict = {}
    reports = {
        method: fusion.evaluate_expanded(method, originals, updated, test_sets, outputs=outputs)
        for method in cfg.evaluate.methods
    }
    write_atomic(
        layout.report_json,
        json.dumps({"reports": [asdict(r) for r in reports.values()]}, indent=2) + "\n",
    )
    table = fusion.format_results_table(reports)
    write_atomic(layout.results_table, table + "\n")

    inputs = config_paths + model_paths + csv_paths
    write_manifest(layout, "evaluate", cfg, inputs, [layout.report_json, layout.results_table])
    print(table)


def cmd_gradcheck(cfg: RunConfig, layout: OutputLayout, config_paths: list[Path]) -> None:
    results = checks.run_gradient_suite(tuple(cfg.gradcheck.seeds))
    all_passed = all(r.passed for r in results)
    payload = {
        "tolerance": checks.REL_TOL,
        "results": [asdict(r) for r in results],
        "all_passed": all_passed,
    }
    write_atomic(layout.gradcheck_json, json.dumps(payload, indent=2) + "\n")
    write_manifest(layout, "gradcheck", cfg, config_paths, [layout.gradcheck_json])
    worst = max(r.max_error for r in results)
    print(
        f"gradcheck: {len(results)} checks, worst error {worst:.3e}, "
        f"{'all passed' if all_passed else 'FAILURES PRESENT'}"
    )
    if not all_passed:
        raise NumericError("analytic gradients disagree with finite differences")


class Stage(NamedTuple):
    run: Callable[[RunConfig, OutputLayout, list[Path]], None]
    help: str
    # The config section whose seed --seed overrides; None: no --seed flag.
    seeded_section: str | None = None


STAGES = {
    "synth": Stage(cmd_synth, "generate the synthetic multi-domain benchmark", "data"),
    "pretrain": Stage(cmd_pretrain, "train one classifier per source domain", "pretrain"),
    "expand": Stage(
        cmd_expand, "update source models on unlabelled new-domain data", "expansion"
    ),
    "evaluate": Stage(cmd_evaluate, "score fused classifiers on every domain's test split"),
    "gradcheck": Stage(cmd_gradcheck, "verify analytic gradients against finite differences"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domex",
        description="Source-free multi-source domain expansion pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, required=True, help="run directory")
        if stage.seeded_section:
            p.add_argument("--seed", type=int, help=f"override {stage.seeded_section}.seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGES[args.command]
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            # replace reruns the section's checks on the new seed.
            section = getattr(cfg, stage.seeded_section)
            cfg = replace(cfg, **{stage.seeded_section: replace(section, seed=args.seed)})
        layout = OutputLayout(args.out)
        # Diverged training overflows in numpy; the finiteness checks on
        # logits and saved parameters report it as one NumericError. Set once
        # per stage: a per-call errstate costs about 5% of gradcheck.
        with np.errstate(over="ignore", invalid="ignore"):
            stage.run(cfg, layout, [args.config] if args.config else [])
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        # The config asked for arrays larger than this machine's memory:
        # smaller size knobs fix it, so it exits as a configuration error.
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
