"""Every public name resolves: `latdisc.__all__`, and the functions the
benchmark's layer tracer (perfbench/layers.py) wraps by name; and every
top-level definition in src/, and every method of a top-level class, is
reachable from the commands; and only the CLI module imports the I/O
modules."""

import ast
import importlib
import importlib.util
from pathlib import Path

import latdisc

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # standard library imports only
    return layers.TRACED


def test_all_names_resolve():
    assert [name for name in latdisc.__all__ if not hasattr(latdisc, name)] == []


def test_traced_names_resolve():
    missing = [
        f"{module}.{fn}"
        for module, fns in _traced().items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"latdisc.{module}"), fn, None))
    ]
    assert missing == []


def _is_method(node):
    """A non-dunder method, reached only through a mention of its name."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _top_level(src):
    """(module, name) -> the top-level def, class or assignment binding it,
    and (module, "Class.method") -> each non-dunder method of a top-level
    class; and the other top-level statements, which run on import."""
    defs, run = {}, []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in filter(_is_method, node.body):
                        defs[path.stem, f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[path.stem, name.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                run.append(node)
    return defs, run


def _mentions(node):
    """The Name and Attribute identifiers in `node`.  A class contributes
    its bases, decorators, class-level statements and dunder methods; its
    other methods are definitions of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list]
        parts += [item for item in node.body if not _is_method(item)]
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def test_src_reachable_from_commands():
    # every top-level definition in src/, and every non-dunder method of a
    # top-level class, is reached from what the commands and the
    # benchmark's tracer call, following the Name and Attribute identifiers
    # each reached definition mentions (matched by name alone, so a name
    # defined in two places is reached in both)
    defs, run = _top_level(LAYERS.parents[1] / "src" / "latdisc")
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    roots = [("cli", "main")] + [(m, fn) for m, fns in _traced().items() for fn in fns]
    reached = set(roots)
    todo = [defs[key] for key in roots] + run
    while todo:
        for name in _mentions(todo.pop()):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(defs[key])
    assert sorted(f"{m}.{name}" for m, name in defs.keys() - reached) == []


def test_only_the_cli_does_io():
    # argument parsing, CSV, streams, the environment and the process live
    # in cli; the library modules take and return values
    io_modules = {"argparse", "csv", "io", "os", "sys"}
    found = []
    for path in sorted((LAYERS.parents[1] / "src" / "latdisc").glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.stem}: {name}"
                for name in names
                if name.partition(".")[0] in io_modules
            ]
    assert found == []
