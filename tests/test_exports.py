"""Every public name resolves: `latdisc.__all__`, and the functions the
benchmark's layer tracer (perfbench/layers.py) wraps by name; and every
top-level definition in src/ is reachable from the commands."""

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


def _top_level(src):
    """(module, name) -> the top-level def, class or assignment binding it,
    and the other top-level statements, which run on import."""
    defs, run = {}, []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[path.stem, name.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                run.append(node)
    return defs, run


def test_src_reachable_from_commands():
    # every top-level definition in src/ is reached from what the commands
    # and the benchmark's tracer call, following the Name and Attribute
    # identifiers each reached definition mentions (matched by name alone,
    # so a name defined in two modules is reached in both)
    defs, run = _top_level(LAYERS.parents[1] / "src" / "latdisc")
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    roots = [("cli", "main")] + [(m, fn) for m, fns in _traced().items() for fn in fns]
    reached = set(roots)
    todo = [defs[key] for key in roots] + run
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                for key in by_name.get(name, ()):
                    if key not in reached:
                        reached.add(key)
                        todo.append(defs[key])
    assert sorted(f"{m}.{name}" for m, name in defs.keys() - reached) == []
