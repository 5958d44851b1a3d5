"""The README's config block, library example and code names agree with the code."""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

from domex import config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, language):
    """The first fenced block of the language after the heading."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_config_block_is_the_default_config():
    assert json.loads(code_block("### Configuration", "json")) == config.RunConfig().to_dict()


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
