"""The README's config block and library example agree with the code."""

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
