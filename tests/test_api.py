"""The public surface: every exported name resolves, and README's library
example runs as written."""

import re
from pathlib import Path

import weightopt

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in weightopt.__all__ if not hasattr(weightopt, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), f"{README}:library-example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
