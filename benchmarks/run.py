"""The domex benchmark: the real CLI pipeline, timed end to end and per layer.

Usage:
    python3 benchmarks/run.py --workload paper_default --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all  # every workload in turn

Each pipeline pass runs in a fresh interpreter (child.py): it imports
``domex.cli`` from ``src/`` of this checkout, then calls ``cli.main`` for
synth, pretrain, expand, evaluate and gradcheck. The parent checks every
stage's outputs, repeats passes until ``--seconds`` have been spent (and at
least once per accuracy-panel seed), and prints medians. The metric names and
units come from BENCHMARK.json; the last stdout line is the JSON result.

``--trace 1`` alternates untraced and traced passes. The traced ones wrap
the public functions of nn, expansion, fusion, data, config and checks from
outside (tracing.py) and report per-layer metrics; the traced-minus-untraced
pipeline time is the tracing overhead. See README.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STAGES = ("synth", "pretrain", "expand", "evaluate", "gradcheck")
PIPELINE_STAGES = STAGES[:4]
# One BLAS thread in the children only: expand digests depend on the count,
# and one thread keeps timings steady on a shared machine.
BLAS_THREADS = "1"
# Wall times are reported at a fixed reference speed: each interval is scaled
# by REFERENCE_S over the reference kernel's time measured beside it in the
# same process (child.reference_s). The host is shared and its speed drifts
# by a quarter within minutes; the kernel's time tracks that drift, so the
# scaled times are steady while the raw ones are not. REFERENCE_S is the
# kernel's time on an idle 2.1 GHz Xeon core, so scaled seconds read close
# to wall seconds there. Raw wall-clock medians are printed beside them.
REFERENCE_S = 0.010
MIN_SETUP_SAMPLES = 5
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 120

# "panel" is the number of fixed pipeline seeds (0 .. panel-1) every timed run
# passes through; the accuracy metrics are medians over them, so they are a
# property of the code rather than of the benchmark seed. The benchmark seed
# picks the order of the panel and the fresh pipeline seeds of later passes.
WORKLOADS = {
    "paper_default": {"config": {}, "panel": 8},
    "many_sources": {
        "config": {
            "data": {
                "source_rotations_deg": [15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0],
                "source_shift_sigmas": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0],
            },
            "pretrain": {"epochs": 5},
            # Half the default rounds: a shorter expand fits more passes in a
            # run and spreads less; it still dominates the pipeline.
            "expansion": {"epochs": 5},
            "gradcheck": {"seeds": [0]},
        },
        "panel": 6,
    },
    "wide_features": {
        "config": {
            "data": {
                "feature_dim": 256,
                "num_classes": 10,
                # 150 per class fits only two passes in a run; the model files,
                # whose size is set by feature_dim, keep I/O dominant at 75.
                "samples_per_class": 75,
                # 1.5 * sqrt(10 / 256): the class means sit as far apart, in
                # noise units, as in the default 10-feature config, so the
                # task is not trivially separable.
                "mean_scale": 0.3,
            },
            "pretrain": {"epochs": 5},
            "expansion": {"epochs": 2},
            "gradcheck": {"seeds": [0]},
        },
        "panel": 4,
    },
}


def pipeline_seed(seed: int, k: int, panel: int) -> int:
    if k < panel:
        return (seed + k) % panel
    return random.Random(f"{seed}:{k}").randrange(panel, 2**31)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_expand(run_dir: Path, cfg: dict) -> str | None:
    expected = cfg["expansion"]["epochs"] * len(cfg["data"]["source_rotations_deg"])
    lines = (run_dir / "expanded" / "training_log.ndjson").read_text().splitlines()
    if len(lines) != expected:
        return f"training log has {len(lines)} records, expected {expected}"
    for line in lines:
        for key, value in json.loads(line).items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"training log value {key}={value!r} is not a finite number"
    return None


def _check_evaluate(run_dir: Path, cfg: dict) -> str | None:
    reports = json.loads((run_dir / "eval" / "report.json").read_text())["reports"]
    methods = [r["method"] for r in reports]
    if sorted(methods) != sorted(cfg["evaluate"]["methods"]):
        return f"report methods {methods} differ from {cfg['evaluate']['methods']}"
    domains = {f"source_{i}" for i in range(len(cfg["data"]["source_rotations_deg"]))}
    domains.add("new")
    for report in reports:
        per_domain = report["per_domain_accuracy"]
        if set(per_domain) != domains:
            return f"{report['method']} reports domains {sorted(per_domain)}"
        for value in [*per_domain.values(), report["expanded_accuracy"]]:
            if not 0.0 <= value <= 1.0:
                return f"{report['method']} accuracy {value} outside [0, 1]"
    return None


def _check_gradcheck(run_dir: Path, cfg: dict) -> str | None:
    payload = json.loads((run_dir / "checks" / "gradcheck.json").read_text())
    return None if payload["all_passed"] is True else "gradcheck.json has failures"


STAGE_CHECKS = {
    "expand": _check_expand,
    "evaluate": _check_evaluate,
    "gradcheck": _check_gradcheck,
}


def check_stage(run_dir: Path, stage: str, code: int | None) -> str | None:
    """Why the stage's outputs are wrong, or None when they pass every check."""
    if code != 0:
        return f"exit code {code}"
    try:
        manifest = json.loads((run_dir / f"{stage}_manifest.json").read_text())
        for output in manifest["outputs"]:
            path = run_dir / output["path"]
            if not path.is_file() or sha256(path) != output["sha256"]:
                return f"{output['path']} does not match its manifest digest"
        check = STAGE_CHECKS.get(stage)
        return check(run_dir, manifest["config"]) if check else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def accuracy_points(run_dir: Path) -> tuple[float, float, float]:
    """m1's new-domain gain over baseline in points, and m2 against baseline on
    the worst source domain: its retention in percent and its drop in points."""
    reports = json.loads((run_dir / "eval" / "report.json").read_text())["reports"]
    acc = {r["method"]: r["per_domain_accuracy"] for r in reports}
    base, m1, m2 = acc["baseline"], acc["m1"], acc["m2"]
    sources = [d for d in base if d.startswith("source_")]
    gain = 100.0 * (m1["new"] - base["new"])
    retention = 100.0 * min(m2[d] / base[d] for d in sources)
    drop = 100.0 * max(base[d] - m2[d] for d in sources)
    return gain, retention, drop


class Runner:
    """Launches child passes inside one scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(WORKLOADS[workload]["config"]))
        self.environment: dict | None = None
        self.traces: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, stages, pseed: int, trace: bool, run_id: str) -> tuple[dict | None, float]:
        out = self.work / run_id
        request = {
            "src": str(ROOT / "src"),
            "config": str(self.config),
            "out": str(out),
            "seed": pseed,
            "stages": list(stages),
            "trace": trace,
            "run_id": run_id,
            "result": str(self.work / "result.json"),
        }
        request_path = self.work / "request.json"
        request_path.write_text(json.dumps(request))
        Path(request["result"]).unlink(missing_ok=True)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(request_path)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{run_id}: timed out after {CHILD_TIMEOUT_S} s")
            return None, time.monotonic() - start
        wall = time.monotonic() - start
        if proc.returncode != 0:
            self.failures.append(f"{run_id}: child exited {proc.returncode}: {proc.stderr[-500:]}")
            return None, wall
        result = json.loads(Path(request["result"]).read_text())
        if proc.stderr:
            result["stderr"] = proc.stderr
        self.environment = self.environment or result["environment"]
        return result, wall

    def setup_sample(self, run_id: str) -> float | None:
        """One fresh interpreter that only imports domex.cli; one operation."""
        result, _ = self.child([], 0, False, run_id)
        self.attempted += 1
        if result is None:
            self.failed += 1
            return None
        return result["import_s"] * REFERENCE_S / result["reference_s"][0]

    def pipeline(self, k: int, trace: bool) -> dict:
        """One pass over all stages; every stage invocation is one operation."""
        panel = WORKLOADS[self.workload]["panel"]
        pseed = pipeline_seed(self.seed, k, panel)
        run_id = f"{self.workload}-s{self.seed}-p{k}{'-traced' if trace else ''}"
        result, wall = self.child(STAGES, pseed, trace, run_id)
        run_dir = self.work / run_id
        ok = True
        for stage in STAGES:
            code = None if result is None else result["stages"][stage]["rc"]
            problem = check_stage(run_dir, stage, code)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                ok = False
                self.failures.append(f"{run_id} {stage}: {problem}")
        if not ok and result is not None and "stderr" in result:
            self.failures.append(f"{run_id} stderr: {result['stderr'][-500:]}")
        passed = {"ok": ok, "wall": wall, "panel": k < panel, "seed": pseed}
        if result is not None:
            ref = result["reference_s"]
            passed["import_s"] = result["import_s"] * REFERENCE_S / ref[0]
        if ok:
            passed["raw_stage_s"] = {s: result["stages"][s]["s"] for s in STAGES}
            passed["scale"] = {
                s: REFERENCE_S / ((ref[i] + ref[i + 1]) / 2) for i, s in enumerate(STAGES)
            }
            passed["stage_s"] = {s: passed["raw_stage_s"][s] * passed["scale"][s] for s in STAGES}
            passed["pipeline_s"] = sum(passed["stage_s"][s] for s in PIPELINE_STAGES)
            passed["raw_pipeline_s"] = sum(passed["raw_stage_s"][s] for s in PIPELINE_STAGES)
            passed["peak_rss_mb"] = result["peak_rss_mb"]
            passed["accuracy"] = accuracy_points(run_dir)
            if trace:
                passed["layers"] = result["layers"]
                for stage, functions in result["layers"]["stages"].items():
                    for stats in functions.values():
                        stats["s"] *= passed["scale"][stage]
                        stats["self_s"] *= passed["scale"][stage]
                self.traces.append(result["trace"])
        shutil.rmtree(run_dir, ignore_errors=True)
        return passed


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _more_time(passes: list[dict], deadline: float) -> bool:
    walls = [p["wall"] for p in passes]
    return time.monotonic() + (statistics.median(walls) if walls else 0.0) <= deadline


def timed_metrics(runner: Runner, seconds: float) -> dict:
    panel = WORKLOADS[runner.workload]["panel"]
    deadline = time.monotonic() + seconds
    passes: list[dict] = []
    k = 0
    while k < panel or _more_time(passes, deadline):
        passes.append(runner.pipeline(k, trace=False))
        k += 1
    good = [p for p in passes if p["ok"]]
    setup = [p["import_s"] for p in passes if "import_s" in p]
    for i in range(MIN_SETUP_SAMPLES - len(setup)):
        sample = runner.setup_sample(f"setup{i}")
        if sample is not None:
            setup.append(sample)
    on_panel = [p["accuracy"] for p in good if p["panel"]]
    full_panel = len(on_panel) == panel
    metrics = {
        "setup_s": _median(setup),
        "pipeline_s": _median(p["pipeline_s"] for p in good),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in good),
        "m1_new_gain_pts": _median(a[0] for a in on_panel) if full_panel else None,
        "m2_source_retention_pct": _median(a[1] for a in on_panel) if full_panel else None,
    }
    for stage in STAGES:
        metrics[f"{stage}_s"] = _median(p["stage_s"][stage] for p in good)
    print(
        f"# {runner.workload} seed {runner.seed}: {len(passes)} pipeline passes "
        f"({len(good)} passed), {len(setup)} setup samples, accuracy panel seeds 0..{panel - 1}"
    )
    raw = " ".join(
        f"{stage}_s={_median(p['raw_stage_s'][stage] for p in good)}" for stage in STAGES
    )
    print(
        f"# {runner.workload} raw wall-clock medians: "
        f"pipeline_s={_median(p['raw_pipeline_s'] for p in good)} {raw}"
    )
    # The worst m2 drop below baseline in points (criterion 7) can be 0 or
    # negative, so it is printed here rather than bounded as a metric.
    print(f"# {runner.workload} m2_source_drop_pts = {_median(a[2] for a in on_panel)} pts")
    return metrics


def layer_value(name: str, layers: dict) -> float:
    """A per-layer metric of one traced pass, summed over the stages."""
    if name in layers["derived"]:
        return layers["derived"][name]
    function, stat = name.rsplit(".", 1)
    return sum(
        stage.get(function, {}).get(stat, 0) for stage in layers["stages"].values()
    )


def traced_metrics(runner: Runner, seconds: float, names: list[str]) -> dict:
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    j = 0
    while j < MIN_TRACE_PAIRS or _more_time(plain + traced, deadline):
        plain.append(runner.pipeline(j, trace=False))
        traced.append(runner.pipeline(j, trace=True))
        j += 1
    good = [p for p in traced if p["ok"]]
    metrics = {}
    for name in names:
        if name.startswith("trace."):
            continue
        metrics[name] = _median(layer_value(name, p["layers"]) for p in good)
    plain_s = _median(p["pipeline_s"] for p in plain if p["ok"])
    traced_s = _median(p["pipeline_s"] for p in good)
    if plain_s is not None and traced_s is not None:
        metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans"] = _median(p["layers"]["spans"] for p in good)
    if good:
        first = good[0]["layers"]["stages"]
        shown = ("nn.forward_logits", "nn.backward", "nn.sgd_step", "expansion.mean_entropy")
        for stage, stats in first.items():
            counts = " ".join(f"{f}={stats.get(f, {}).get('calls', 0)}" for f in shown)
            print(f"# traced {stage} (pipeline seed {good[0]['seed']}): {counts}")
    print(
        f"# {runner.workload} seed {runner.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes, untraced pipeline_s {plain_s}, traced {traced_s}"
    )
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"domex-{workload}-", dir=build))
    try:
        runner = Runner(workload, seed, work)
        # Untimed warm-up: the first import in a fresh checkout compiles the
        # bytecode caches, which no later invocation pays.
        runner.child([], 0, False, "warmup")
        if trace:
            values = traced_metrics(runner, seconds, [m["name"] for m in wanted])
            traces = build / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{workload}-seed{seed}.json").write_text(json.dumps(runner.traces))
        else:
            values = timed_metrics(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    for failure in runner.failures:
        print(f"# failure: {failure}", file=sys.stderr)
    print("# environment " + json.dumps(runner.environment, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {workload} {name} = {m['value']} {m['unit']}")
    return {
        "correct": runner.failed == 0 and not missing and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "domex" / "cli.py").is_file():
        print(f"error: no domex source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
