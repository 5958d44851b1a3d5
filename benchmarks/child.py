"""One pipeline pass in a fresh interpreter: import domex.cli, run CLI stages.

Usage: python3 child.py REQUEST.json

The request (written by run.py) names the source tree, the config, the run
directory, the pipeline seed, the stages to run, whether to trace, and where
to write the result. The result records the import time, each stage's exit
code and wall time, the reference kernel's time around every timed interval,
the peak resident memory, the numeric environment and, when traced, the spans
and their per-layer aggregates.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing

# Stages whose --seed selects their randomness; evaluate and gradcheck take none.
SEEDED_STAGES = ("synth", "pretrain", "expand")


def _openblas_runtime() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                entry.update(threads=threads(), config=config().decode())
                break
        found.append(entry)
    return found


def numeric_environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_runtime": _openblas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def reference_s() -> float:
    """Wall time of a fixed reference kernel: the median of three runs.

    The kernel mixes what the pipeline spends its time on, small dense
    matmuls and elementwise passes over 64x1000 float64 arrays and plain
    interpreter work, so that its speed tracks the host's current speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.standard_normal((64, 10)), rng.standard_normal((1000, 10)), rng.standard_normal((5, 1000))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(50):
            hidden = np.maximum(x @ w1.T, 0.0)
            grad = (hidden @ w2.T).T @ hidden
        text = ",".join(repr(float(v)) for v in grad.ravel())
        total = sum(float(cell) for cell in text.split(","))
        times.append(time.perf_counter() - start)
    if not np.isfinite(total):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return sorted(times)[1]


def run_stage(cli, stage: str, request: dict) -> int:
    argv = [stage, "--out", request["out"], "--config", request["config"]]
    if stage in SEEDED_STAGES:
        argv += ["--seed", str(request["seed"])]
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import domex.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"domex.cli was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    # The reference kernel runs right after the import and after every
    # stage, so each stage has a speed sample on both sides and the import
    # one right after it.
    reference = [reference_s()]
    stages = {}
    for stage in request["stages"]:
        start = time.perf_counter()
        with tracer.stage(stage) if tracer is not None else nullcontext():
            code = run_stage(cli, stage, request)
        stages[stage] = {"rc": code, "s": time.perf_counter() - start}
        reference.append(reference_s())

    result = {
        "import_s": import_s,
        "reference_s": reference,
        "stages": stages,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": numeric_environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["trace"] = tracer.to_dict(request["run_id"])
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
