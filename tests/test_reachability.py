"""No code that only tests keep alive: one pass of the five CLI stages runs
every function in src/domex, apart from the few named here, and no module
of src/domex or tests imports a name it never uses."""

import ast
import inspect
import json
import sys
import types
from pathlib import Path

from domex import cli

SOURCE_DIR = Path(cli.__file__).parent
# Called only by tests/test_acceptance.py, which must not change.
GATE_ONLY = {
    "make_benchmark",
    "mean_entropy",
    "_batch_loss",
    "bias_loss",
    "preservation_loss",
    "fuse_baseline",
    "fuse_m1",
    "fuse_m2",
}
# Called only when an input is refused.
ERROR_PATH_ONLY = {"_located"}
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def defined_functions(path: Path) -> set[types.CodeType]:
    """The code object of every function and lambda in path, nested ones
    included; compiled afresh, each equals the code object its import made."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                # Class bodies lack CO_OPTIMIZED; comprehensions are not functions.
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in COMPREHENSIONS:
                    found.add(const)
    return found


def test_every_function_runs_in_one_pass_of_the_cli(tmp_path):
    raw = {
        "data": {
            "num_classes": 3,
            "feature_dim": 4,
            "samples_per_class": 8,
            "source_rotations_deg": [10.0, 50.0],
            "source_shift_sigmas": [0.5, 1.5],
            "standardize": True,
        },
        "model": {"hidden_units": [4]},
        "pretrain": {"epochs": 2},
        "expansion": {"epochs": 1},
        "evaluate": {"methods": ["baseline", "m1", "m2"]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        for stage in cli.STAGES:
            if stage == "evaluate":
                # synth's CSVs all take load_csv's orjson path; CRLF line
                # ends send this one through numpy's reader.
                new_test = tmp_path / "run" / "data" / "new_test.csv"
                new_test.write_bytes(new_test.read_bytes().replace(b"\n", b"\r\n"))
            # gradcheck builds its own tiny models, so it runs on the default
            # config, whose sections fill every list field from its default.
            argv = [stage] if stage == "gradcheck" else [stage, "--config", str(config)]
            argv += ["--out", str(tmp_path / "run")]
            assert cli.main(argv) == cli.EXIT_OK
    finally:
        sys.setprofile(None)

    never_ran = {
        f"{path.name}:{code.co_firstlineno}:{code.co_name}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for code in defined_functions(path) - ran
        if code.co_name not in GATE_ONLY | ERROR_PATH_ONLY
    }
    assert never_ran == set()


def unused_imports(path: Path) -> list[str]:
    """The names that path imports and never reads, apart from those on lines
    marked noqa: F401 and the __future__ features."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # import a.b binds a; import a.b as c binds c.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(SOURCE_DIR.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_the_unused_import_check_sees_a_leftover_import(tmp_path):
    module = tmp_path / "leftover.py"
    module.write_text(
        "from typing import NamedTuple, Sequence\n"
        "import locale  # noqa: F401\n"
        "import os.path\n"
        "def widths(dims: Sequence[int]) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == ["leftover.py:1: NamedTuple"]
