"""Outside-in span tracing of the domex layers.

The tracer replaces every public module-level function of the traced modules
with a wrapper that records one span per call. It rebinds the wrapper at
every name that holds the function anywhere in the package, not only in the
defining module: ``expansion`` and ``fusion`` import ``forward_logits`` by
name, and ``cli`` imports ``load_csv``, ``write_csv`` and ``write_manifest``
by name, so patching ``domex.nn.forward_logits`` alone would miss their calls.

Spans stay in memory until the traced process ends. This module uses only the
standard library, so importing it does not shift the import time the
benchmark measures for ``domex.cli``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

PACKAGE = "domex"
TRACED_MODULES = ("nn", "expansion", "fusion", "data", "config", "checks")

# Span layout: [name index, stage index, parent span index (-1 for a root),
# start ns, end ns, measured counters or None].
NAME, STAGE, PARENT, START, END, EXTRA = range(6)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _forward_work(args, kwargs, result) -> dict:
    """Work of one forward pass, computed from the array shapes.

    Per dense layer with r rows, i inputs and o outputs: r*i*o multiply-adds,
    and 8*(r*i + o*i + o + 2*r*o) bytes moved (read the input activations,
    the weights and the bias; write the pre-activation and the activation).
    Cache misses are ignored, so both numbers are computed, not measured.
    """
    model, batch = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "batch")
    rows = len(batch)
    macs = moved = 0
    for layer in model.layers:
        n_out, n_in = layer.weights.shape
        macs += rows * n_in * n_out
        moved += 8 * (rows * n_in + n_out * n_in + n_out + 2 * rows * n_out)
    # The pair identifies the (model, input) combination so that repeated
    # forwards of the same model on the same array can be counted as waste.
    return {"rows": rows, "macs": macs, "bytes": moved, "pair": (id(model), id(batch))}


MEASURES = {
    "nn.forward_logits": _forward_work,
    "nn.save_model": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))},
    "nn.load_model": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
    "data.write_csv": lambda a, k, r: {
        "rows": _arg(a, k, 0, "ds").n,
        "bytes": _file_bytes(_arg(a, k, 1, "path")),
    },
    "data.load_csv": lambda a, k, r: {
        "rows": r.n,
        "bytes": _file_bytes(_arg(a, k, 0, "path")),
    },
    "config.sha256_file": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Records a span per wrapped call; one tracer per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.stages: list[str] = []
        self.spans: list[list] = []
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._stage = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_index: int) -> list:
        span = [name_index, self._stage, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_index = self._intern(name)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name_index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                span[EXTRA] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions at every package binding."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    @contextlib.contextmanager
    def stage(self, stage: str):
        """Root span ``cli.<stage>`` around one CLI stage invocation."""
        self._stage = len(self.stages)
        self.stages.append(stage)
        span = self._open(self._intern(f"cli.{stage}"))
        try:
            yield
        finally:
            self._close(span)
            self._stage = -1

    def to_dict(self, run_id: str) -> dict:
        """The spans in a JSON-ready form; ``pair`` identities are dropped."""
        spans = []
        for span in self.spans:
            extra = span[EXTRA]
            if extra is not None:
                extra = {k: v for k, v in extra.items() if k != "pair"}
            spans.append(span[:EXTRA] + [extra])
        return {"run": run_id, "names": self.names, "stages": self.stages, "spans": spans}

    def aggregate(self) -> dict:
        """Per stage and function: calls, busy time, self time and summed counters.

        Self time is a span's duration minus the durations of its direct
        children. Also derives the waste ratios of the expansion and fusion
        layers from the parent links.
        """
        names, spans = self.names, self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]

        entropy = self._name_index.get("expansion.mean_entropy")
        evaluate = self._name_index.get("fusion.evaluate_expanded")
        # Parents precede their children in the list, so one pass settles the
        # "has an ancestor named X" flags.
        in_entropy = [False] * len(spans)
        in_evaluate = [False] * len(spans)
        stages: dict[str, dict[str, dict]] = {}
        step_forwards = 0
        eval_forwards, eval_pairs = 0, set()
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                in_entropy[i] = in_entropy[parent] or spans[parent][NAME] == entropy
                in_evaluate[i] = in_evaluate[parent] or spans[parent][NAME] == evaluate
            stage = self.stages[span[STAGE]]
            name = names[span[NAME]]
            duration = span[END] - span[START]
            stats = stages.setdefault(stage, {}).setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            stats["calls"] += 1
            stats["s"] += duration / 1e9
            stats["self_s"] += (duration - child_ns[i]) / 1e9
            for key, value in (span[EXTRA] or {}).items():
                if key != "pair":
                    stats[key] = stats.get(key, 0) + value
            if name == "nn.forward_logits":
                if stage == "expand" and not in_entropy[i]:
                    step_forwards += 1
                if in_evaluate[i]:
                    eval_forwards += 1
                    eval_pairs.add(span[EXTRA]["pair"])

        def calls(stage: str, name: str) -> int:
            return stages.get(stage, {}).get(name, {}).get("calls", 0)

        steps = calls("expand", "nn.sgd_step")
        derived = {
            "expansion.sgd_steps": steps,
            "expansion.forward_per_step": step_forwards / steps if steps else 0.0,
            "expansion.backward_per_step": (
                calls("expand", "nn.backward") / steps if steps else 0.0
            ),
            "fusion.forward_per_model_domain": (
                eval_forwards / len(eval_pairs) if eval_pairs else 0.0
            ),
        }
        return {"stages": stages, "derived": derived, "spans": len(spans)}
