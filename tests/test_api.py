"""The public surface: every exported name resolves, README's library
example runs as written, and every public name has a caller in weightopt."""

import ast
import re
from pathlib import Path

import weightopt

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(weightopt.__file__).resolve().parent


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


def test_no_caller_less_library_names():
    """A top-level public def or class of a weightopt module exists only if
    weightopt itself uses it; re-exports in __init__.py do not count."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    caller_less = {name for name in defined if name not in used}
    assert caller_less == {
        "make_box",          # the README library example builds its domain with it
        "dominating_shift",  # perfbench's tracer looks it up by name
    }
