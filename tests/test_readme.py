"""The README's config block, library example, code names, Requires line,
model file names, model header line and feature cell format agree with the code."""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import numpy as np

from domex import cli, config, data, nn

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def code_block(heading, language):
    """The first fenced block of the language after the heading."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_config_block_is_the_default_config():
    default = dataclasses.asdict(config.RunConfig())
    assert json.loads(code_block("### Configuration", "json")) == default


def test_library_example_runs_as_written(capsys):
    exec(code_block("## Library use", "python"), {})
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["Domain", "source_0", "source_1", "source_2", "new", "Expanded"]


def defines(module, name):
    """Whether the domex module has name and, for a function or class, defines it."""
    module = importlib.import_module(f"domex.{module}")
    value = getattr(module, name, None)
    if inspect.isfunction(value) or inspect.isclass(value):
        return value.__module__ == module.__name__
    return value is not None


def test_backticked_module_names_exist():
    """Each `module.name` is defined in that module or is a field of its config section."""
    sections = {f.name: f.default_factory() for f in dataclasses.fields(config.RunConfig)}
    pattern = r"`(nn|fusion|expansion|data|config|checks)\.([A-Za-z_]\w*)"
    names = re.findall(pattern, README.read_text())
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not defines(module, name) and not hasattr(sections.get(module), name)
    ]
    assert missing == []


def test_seed_sentence_names_each_seeded_stage():
    """README names `section.seed` for `stage` for exactly the stages that take --seed."""
    named = set(re.findall(r"`(\w+)\.seed` for `(\w+)`", README.read_text()))
    seeded = {(s.seeded_section, name) for name, s in cli.STAGES.items() if s.seeded_section}
    assert named == seeded


def test_requires_line_names_the_runtime_dependencies():
    """The packages on the Requires line are pyproject.toml's [project] dependencies."""
    requires = re.search(r"^Requires Python [\d.]+\+(.*?)\.", README.read_text(), re.M | re.S)
    named = set(re.findall(r"[a-z][\w.-]*", requires.group(1))) - {"and"}
    pyproject = (ROOT / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)^\]", pyproject, re.M | re.S).group(1)
    assert named == set(re.findall(r'^\s*"([A-Za-z0-9_.-]+)', dependencies, re.M))


def test_output_layout_names_the_model_files_as_the_code_does():
    """Each model file's line in the Output layout block spells its name as
    OutputLayout does, with the index as {i}."""
    block = code_block("## Output layout", "")
    layout = config.OutputLayout("run")
    for path in (layout.original_model(0), layout.updated_model(0)):
        name = path.name.replace("0", "{i}", 1)
        line = re.search(rf"^  {path.parent.name}/ .*$", block, re.M).group(0)
        assert name in re.split(r"[\s,]+", line)


def test_model_header_line_is_what_save_model_writes_for_the_default_model(tmp_path):
    path = tmp_path / "default.model"
    nn.save_model(nn.init_mlp(10, [1000], 5, np.random.default_rng(0)), path)
    head = path.read_bytes().split(b"\n", 1)[0] + b"\n"
    assert code_block("### Model files", "json") == head.decode()


def test_feature_cell_format_is_what_write_csv_writes(tmp_path, significant_digits):
    """The example cells in "Data files" are what write_csv writes for their
    floats: repr's significant digits, each reading back bit for bit."""
    section = README.read_text().split("\n### Data files\n", 1)[1]
    examples = re.search(r"writes every feature as .*?, as in (.*?):", section, re.S).group(1)
    cells = re.findall(r"`([^`]+)`", examples)
    values = np.array([[float(cell) for cell in cells]])
    path = tmp_path / "cells.csv"
    data.write_csv(data.DomainDataset("cells", values), path)
    written = path.read_text().splitlines()[1].split(",")
    assert written == cells
    for cell, v in zip(written, values[0].tolist()):
        assert significant_digits(cell) == significant_digits(repr(v))
    assert data.load_csv(path).features.tobytes() == values.tobytes()
