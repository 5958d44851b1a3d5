"""Command-line pipeline: synth -> pretrain -> expand -> evaluate.

Each stage reads one JSON config (defaults apply when omitted), works inside
a run directory, and leaves a manifest of inputs and output digests behind.
The expand stage deliberately takes no source-domain data: it consumes only
the saved source models and the unlabelled new-domain features, which the
manifest makes auditable.

Exit codes: 0 success, 2 bad configuration, 3 missing or malformed files,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when main builds the parser; importing it
# here makes that part of start-up, not of the stage that runs first.
import locale  # noqa: F401
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks, expansion, fusion, nn
from .config import OutputLayout, RunConfig, load_config, write_manifest
from .data import (
    DomainDataset,
    benchmark_shifts,
    generate_domains,
    load_csv,
    split,
    standardize,
    write_atomic,
    write_csv,
)
from .errors import ConfigError, InputError, NumericError, ParameterError, ParseError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# The stages that take --seed, and the config section whose seed it overrides.
SEEDED_SECTIONS = {"synth": "data", "pretrain": "pretrain", "expand": "expansion"}


def _domain_names(cfg: RunConfig) -> list[str]:
    return [f"source_{i}" for i in range(cfg.data.num_sources)] + ["new"]


def _config_inputs(args) -> list[Path]:
    return [Path(args.config)] if args.config else []


def _check_label_range(ds: DomainDataset, cfg: RunConfig) -> None:
    """Refuse a labelled set whose labels the configured classes cannot hold."""
    top = int(ds.labels.max())
    if top >= cfg.data.num_classes:
        raise ConfigError(f"labels reach {top} but num_classes is {cfg.data.num_classes}")


def cmd_synth(cfg: RunConfig, layout: OutputLayout, args) -> int:
    new_transform = benchmark_shifts(cfg.data)[1]
    domains = generate_domains(cfg.data, cfg.data.num_sources, new_transform)
    layout.data_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    for ds in domains:
        train, test = split(ds, cfg.data)
        if cfg.data.standardize:
            train, (test,) = standardize(train, [test])
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
    outputs.append(write_manifest(layout, "synth", cfg, _config_inputs(args), outputs[:]))
    logger.info("wrote %d files under %s", len(outputs), layout.data_dir)
    print(f"synth: {len(domains)} domains under {layout.data_dir}")
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, layout: OutputLayout, args) -> int:
    layout.models_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.pretrain.seed).spawn(cfg.data.num_sources)

    inputs, outputs = _config_inputs(args), []
    train_sets = []
    for i in range(cfg.data.num_sources):
        csv_path = layout.domain_csv(f"source_{i}", "train")
        train = load_csv(csv_path)
        if not train.labelled:
            raise InputError(f"{csv_path} has no label column; cannot pretrain on it")
        train_sets.append(train)
        inputs.append(csv_path)
    # Every source domain must cover the same classes; the whole method
    # assumes one shared label space.
    label_sets = [frozenset(t.labels.tolist()) for t in train_sets]
    if len(set(label_sets)) != 1:
        raise ConfigError(
            f"source domains disagree on their label sets: {sorted(map(sorted, label_sets))}"
        )
    # The label sets agree, so the first set's range is every set's.
    _check_label_range(train_sets[0], cfg)

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
        # The accuracy costs a pass over the whole training set.
        if logger.isEnabledFor(logging.INFO):
            train_acc = fusion.accuracy(
                fusion.PredictionBatch.from_scores(nn.chunked_logits(model, train.features)),
                train.labels,
            )
            logger.info("source_%d train accuracy %.4f", i, train_acc)
    outputs.append(write_manifest(layout, "pretrain", cfg, inputs, outputs[:]))
    print(f"pretrain: {cfg.data.num_sources} source models under {layout.models_dir}")
    return EXIT_OK


def cmd_expand(cfg: RunConfig, layout: OutputLayout, args) -> int:
    # Source-free by construction: inputs are the source models plus the
    # unlabelled new-domain features, nothing else.
    model_paths = [layout.original_model(i) for i in range(cfg.data.num_sources)]
    originals = [nn.load_model(p) for p in model_paths]
    new_data = load_csv(layout.new_unlabelled_csv)

    ensemble = expansion.EnsembleState.initialize(originals)
    ensemble, log = expansion.expand(ensemble, new_data.features, cfg.expansion)

    layout.expanded_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, model in enumerate(ensemble.updated):
        path = layout.updated_model(i)
        nn.save_model(model, path)
        outputs.append(path)
    log_lines = [json.dumps(record) for record in log]
    write_atomic(layout.training_log, "\n".join(log_lines) + ("\n" if log_lines else ""))
    outputs.append(layout.training_log)

    inputs = _config_inputs(args) + model_paths + [layout.new_unlabelled_csv]
    outputs.append(write_manifest(layout, "expand", cfg, inputs, outputs[:]))
    print(
        f"expand: {len(ensemble.updated)} updated models after "
        f"{cfg.expansion.epochs} rounds under {layout.expanded_dir}"
    )
    return EXIT_OK


def _load_models(layout: OutputLayout, cfg: RunConfig) -> tuple[list, list, list[Path]]:
    paths = []
    originals, updated = [], []
    for i in range(cfg.data.num_sources):
        orig_path, upd_path = layout.original_model(i), layout.updated_model(i)
        originals.append(nn.load_model(orig_path))
        updated.append(nn.load_model(upd_path))
        paths += [orig_path, upd_path]
    return originals, updated, paths


def cmd_evaluate(cfg: RunConfig, layout: OutputLayout, args) -> int:
    originals, updated, model_paths = _load_models(layout, cfg)
    test_sets, csv_paths = {}, []
    for name in _domain_names(cfg):
        path = layout.domain_csv(name, "test")
        ds = load_csv(path)
        if not ds.labelled:
            raise InputError(f"{path} has no labels; cannot score predictions on it")
        _check_label_range(ds, cfg)
        ds.name = name
        test_sets[name] = ds
        csv_paths.append(path)

    # Shared by all methods: one pass per (model, test set).
    outputs: dict = {}
    reports = {
        method: fusion.evaluate_expanded(method, originals, updated, test_sets, outputs=outputs)
        for method in cfg.evaluate.methods
    }
    layout.eval_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(
        layout.report_json,
        json.dumps({"reports": [r.to_dict() for r in reports.values()]}, indent=2) + "\n",
    )
    table = fusion.format_results_table(reports, domain_order=_domain_names(cfg))
    write_atomic(layout.results_table, table + "\n")

    outputs = [layout.report_json, layout.results_table]
    inputs = _config_inputs(args) + model_paths + csv_paths
    outputs.append(write_manifest(layout, "evaluate", cfg, inputs, outputs[:]))
    print(table)
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, layout: OutputLayout, args) -> int:
    results = checks.run_gradient_suite(tuple(cfg.gradcheck.seeds))
    all_passed = all(r.passed for r in results)
    layout.checks_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "tolerance": checks.REL_TOL,
        "results": [
            {
                "loss": r.loss_name,
                "seed": r.seed,
                "max_error": r.max_error,
                "passed": r.passed,
            }
            for r in results
        ],
        "all_passed": all_passed,
    }
    write_atomic(layout.gradcheck_json, json.dumps(payload, indent=2) + "\n")
    write_manifest(
        layout, "gradcheck", cfg, _config_inputs(args), [layout.gradcheck_json]
    )
    worst = max(r.max_error for r in results)
    print(
        f"gradcheck: {len(results)} checks, worst error {worst:.3e}, "
        f"{'all passed' if all_passed else 'FAILURES PRESENT'}"
    )
    if not all_passed:
        raise NumericError("analytic gradients disagree with finite differences")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "expand": cmd_expand,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domex",
        description="Source-free multi-source domain expansion pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "synth": "generate the synthetic multi-domain benchmark",
        "pretrain": "train one classifier per source domain",
        "expand": "update source models on unlabelled new-domain data",
        "evaluate": "score fused classifiers on every domain's test split",
        "gradcheck": "verify analytic gradients against finite differences",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, required=True, help="run directory")
        if name in SEEDED_SECTIONS:
            p.add_argument("--seed", type=int, help=f"override {SEEDED_SECTIONS[name]}.seed")
        p.add_argument(
            "--log-level",
            choices=["debug", "info", "warning", "error"],
            default="warning",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = getattr(logging, args.log_level.upper())
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # basicConfig does nothing once the root logger has handlers (a host
    # application, pytest); the package logger's level applies either way.
    logging.getLogger("domex").setLevel(level)
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            getattr(cfg, SEEDED_SECTIONS[args.command]).seed = args.seed
        cfg.check_seeds()
        layout = OutputLayout(args.out)
        layout.root.mkdir(parents=True, exist_ok=True)
        # Diverged training overflows in numpy; the finiteness checks on
        # logits and saved parameters report it as one NumericError. Set once
        # per stage: a per-call errstate costs about 5% of gradcheck.
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](cfg, layout, args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
