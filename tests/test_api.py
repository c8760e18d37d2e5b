"""The public surface: every exported name resolves, README's library
example runs as written and its config example loads, every public name
has a caller in weightopt, every optional parameter is passed by some call,
every default is taken by some call and every error class has an exit code."""

import ast
import importlib
import json
import math
import re
from pathlib import Path

import weightopt
from weightopt.cli import EXIT_CODES, RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(weightopt.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in weightopt.__all__ if not hasattr(weightopt, name)]
    assert missing == []


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block after `heading` in README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert block is not None
    return block.group(1)


def _readme_library_example() -> str:
    return _readme_block("## Library example", "python")


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_library_example(), f"{README}:library-example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2


def test_readme_config_example_loads():
    raw = json.loads(_readme_block("### Config schema", "json"))
    cfg = RunConfig.from_dict(raw, README)
    assert (cfg.task, cfg.seeds, cfg.output_dir, cfg.heatmap) == ("optimize2", 8, "out", True)


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


def _passed_parameters(call: ast.Call) -> tuple[float, set[str] | None]:
    """(how many leading positional parameters the call fills, the keywords
    it names); a *args fills every position from its own on, and a **kwargs
    names every keyword (None)."""
    starred = [k for k, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    positional = math.inf if starred else len(call.args)
    keywords = {kw.arg for kw in call.keywords}
    return positional, None if None in keywords else keywords


def _optional_parameters() -> list[tuple[str, str, str, int | None, bool]]:
    """(module, function, parameter, its position or None if keyword-only,
    whether it has a default) for every parameter of a top-level function
    or method of a weightopt module that has a default or is keyword-only."""
    optional = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    defs.append((node, 0 if static else 1))  # self is not passed
        for node, skip in defs:
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            first = len(params) - len(args.defaults)
            optional += [(path.stem, node.name, name, k - skip, True)
                         for k, name in enumerate(params) if k >= first]
            optional += [(path.stem, node.name, a.arg, None, default is not None)
                         for a, default in zip(args.kwonlyargs, args.kw_defaults)]
    return optional


def _calls(sources) -> dict[str, list[tuple[float, set[str] | None]]]:
    """The ``_passed_parameters`` of every call in the source texts, by the
    called name: a bare name or the last attribute."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(_passed_parameters(node))
    return calls


def test_no_caller_less_parameters():
    """Every parameter of a top-level function or method of a weightopt
    module that has a default or is keyword-only is passed, by position or
    by keyword, by some call in weightopt: an option that no caller sets is
    a constant.  Calls resolve by name, as in the test above.  cli.main's
    argv is exempt: the console script calls main()."""
    calls = _calls(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))

    def passed(function, name, position):
        return any((position is not None and position < positional)
                   or keywords is None or name in keywords
                   for positional, keywords in calls.get(function, []))

    caller_less = {f"{module}.{function}({name})"
                   for module, function, name, position, _ in _optional_parameters()
                   if not passed(function, name, position)}
    assert caller_less == {"cli.main(argv)"}


def test_no_default_without_a_taker():
    """Every default of a top-level function or method of a weightopt module
    is taken by some call, in weightopt, its tests or README's library
    example, that passes the parameter neither by position nor by keyword:
    a default that every call overrides only restates a value held
    elsewhere.  Calls resolve by name, as in the tests above."""
    sources = [path.read_text(encoding="utf-8")
               for directory in (SRC, README.parent / "tests")
               for path in sorted(directory.glob("*.py"))]
    calls = _calls([*sources, _readme_library_example()])

    def taken(function, name, position):
        return any(keywords is not None and name not in keywords
                   and (position is None or position >= positional)
                   for positional, keywords in calls.get(function, []))

    untaken = {f"{module}.{function}({name})"
               for module, function, name, position, has_default in _optional_parameters()
               if has_default and not taken(function, name, position)}
    assert untaken == set()


def _callers(function: str) -> set[str]:
    """Where the weightopt modules call a function of this name, by module
    and top-level def or class."""
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "attr", None) == function
                        or getattr(node.func, "id", None) == function):
                    calls.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return calls


def test_power_of_two_scaling_lives_in_grid():
    """frexp, the exponent that power-of-two scaling divides by, is called
    only in grid.py, where grid.unit_scale scales values for every module
    whose sums could overflow."""
    assert {call for call in _callers("frexp") if not call.startswith("grid.")} == set()


def test_the_bounding_box_lives_in_grid():
    """ptp, which measures the extent of the cells, is called only in
    grid.py: a GridDomain finds its ``bounding_box`` once, and the
    eigensolver's sine-basis routing and Temple's β read it there."""
    assert {call for call in _callers("ptp") if not call.startswith("grid.")} == set()


def test_no_domain_beside_a_field():
    """No function of a weightopt module takes a GridDomain parameter beside
    a ScalarField or OptimizeReport parameter: the field, or the report's
    weight, carries its domain.  Parameters are matched by the names in
    their annotations."""
    both = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                types = {name.id for a in args.posonlyargs + args.args + args.kwonlyargs
                         if a.annotation is not None
                         for name in ast.walk(a.annotation) if isinstance(name, ast.Name)}
                if "GridDomain" in types and types & {"ScalarField", "OptimizeReport"}:
                    both.add(f"{path.stem}.{node.name}")
    assert both == {
        # perfbench's tracer reads the weight as the solve's second positional argument
        "eig.principal_positive_eigenvalue",
    }


def test_every_error_class_has_its_own_exit_code():
    """An exception class of weightopt exists only if cli.EXIT_CODES names
    it, so it selects an exit code or stderr label; one that only narrows
    a builtin base nothing tells apart is that base."""
    named = {t for types, _, _ in EXIT_CODES
             for t in (types if isinstance(types, tuple) else (types,))}
    modules = [importlib.import_module(f"weightopt.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    defined = {obj for module in [weightopt, *modules] for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert sorted(cls.__name__ for cls in defined - named) == []
