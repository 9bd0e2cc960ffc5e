"""Every public name resolves: `latdisc.__all__`, and the functions the
benchmark's layer tracer (perfbench/layers.py) wraps by name; the package
namespace is lazy, each name is its module's object, and every module
imports on its own; every top-level definition in src/, and every method of
a top-level class, is reachable from the commands; and only the CLI module
imports the I/O modules."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latdisc

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
SRC = LAYERS.parents[1] / "src" / "latdisc"

# `latdisc.__all__` as recorded when `__init__` still imported every module
PUBLIC = [
    "__version__", "kernel_implementation",
    "LatdiscError", "InputError", "RankDeficientError",
    "NotIntegrationLatticeError", "CapExceededError",
    "UndecidableComparisonError", "InvariantViolationError",
    "inverse", "hnf", "gram_schmidt",
    "IntegrationLattice", "PointSet", "from_rank1", "from_basis", "from_json",
    "to_json", "dual", "enumerate_points",
    "shortest_vector", "SpectralResult", "spectral_test",
    "Halfspace", "Slab", "AxisBox", "ConvexBody", "halfspace_cube_volume",
    "body_volume", "body_contains", "local_discrepancy", "body_to_dict",
    "SlabCertificate", "slab_certificate", "HyperplaneCountCertificate",
    "hyperplane_count_certificate", "DiscrepancyEstimate",
    "estimate_isotropic_discrepancy",
    "fibonacci_lattice", "scaled_integer_lattice", "bad_lattice",
    "korobov_lattice", "korobov_search", "GeneratorSearchResult",
    "GammaValue", "gamma_half_integer", "minkowski_sigma_check",
    "BoundsReport", "verify_lattice",
    "Bounds", "sqrt_bounds", "pi_bounds", "decimal_str",
]
# the library modules: attributes of the package after a bare `import latdisc`
LIBRARY = (
    "errors", "linalg", "lattice", "kernels", "reduction", "volume",
    "discrepancy", "constructions", "bounds", "directed",
)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # standard library imports only
    return layers


def _traced():
    return _layers().TRACED


def test_all_names_resolve():
    assert latdisc.__all__ == PUBLIC
    assert [name for name in latdisc.__all__ if not hasattr(latdisc, name)] == []


def test_each_name_is_its_modules_object():
    table = latdisc._MODULE_OF
    assert ["__version__", "kernel_implementation", *table] == PUBLIC
    assert set(table.values()) <= set(LIBRARY)
    module = lambda name: importlib.import_module(f"latdisc.{name}")  # noqa: E731
    wrong = [
        name
        for name, owner in table.items()
        if getattr(latdisc, name) is not getattr(module(owner), name)
    ]
    wrong += [name for name in LIBRARY if getattr(latdisc, name) is not module(name)]
    assert wrong == []


def test_unknown_names_are_missing():
    assert not hasattr(latdisc, "nope")
    with pytest.raises(ImportError):
        from latdisc import nope  # noqa: F401


def test_star_import_binds_all():
    namespace = {}
    exec("from latdisc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(latdisc, name) for name in PUBLIC)


_CHILD = """
import json, sys
{statement}
print(json.dumps({{
    "loaded": sorted(m for m in sys.modules if m.partition(".")[0] == "latdisc"),
    "dir": [n for n in dir(sys.modules["latdisc"]) if not n.startswith("_")],
}}))
"""


@pytest.fixture(scope="module")
def fresh_imports():
    """target -> what `import latdisc[.target]` leaves in a new interpreter:
    the latdisc modules loaded and the public names of `dir(latdisc)`.  One
    interpreter per target, so no earlier import can hide an import cycle."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(latdisc.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    found = {}
    for target in ("", *LIBRARY, "cli"):
        statement = f"import latdisc{'.' if target else ''}{target}"
        child = subprocess.run(
            [sys.executable, "-c", _CHILD.format(statement=statement)],
            capture_output=True, text=True, env=env,
        )
        assert child.returncode == 0, f"{statement}: {child.stderr}"
        found[target] = json.loads(child.stdout)
    return found


def test_bare_import_loads_no_module(fresh_imports):
    assert fresh_imports[""]["loaded"] == ["latdisc"]
    expected = {name for name in PUBLIC if not name.startswith("_")} | set(LIBRARY)
    assert len(expected) == 62
    assert fresh_imports[""]["dir"] == sorted(expected)


def test_a_module_loads_only_what_it_imports(fresh_imports):
    assert fresh_imports["lattice"]["loaded"] == [
        "latdisc", "latdisc.errors", "latdisc.lattice", "latdisc.linalg",
    ]
    assert fresh_imports["errors"]["loaded"] == ["latdisc", "latdisc.errors"]
    # the commands still load every module
    assert len(fresh_imports["cli"]["loaded"]) == 12


def test_tracer_patches_the_namespace_and_restores_it():
    layers = _layers()
    for module in layers.TRACED:
        importlib.import_module(f"latdisc.{module}")
    original = latdisc.constructions.korobov_search
    with layers.Tracer():
        assert latdisc.korobov_search is not original
        assert latdisc.korobov_search.__wrapped__ is original
    assert latdisc.korobov_search is original
    # nothing was cached in the package, so no wrapper outlived the trace
    assert [n for n in latdisc._MODULE_OF if n in vars(latdisc)] == []
    assert [n for n, v in vars(latdisc).items() if hasattr(v, "__wrapped__")] == []


def test_modules_import_submodules_only():
    # a library module that fetched a public name through the package would
    # go through its lazy `__getattr__`, and make import order matter again;
    # `cli` reads the literal `__version__`
    submodules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [
                    f"{path.stem}: import {alias.name}"
                    for alias in node.names
                    if alias.name == "latdisc"
                ]
            elif isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None)
                or (node.level == 0 and node.module == "latdisc")
            ):
                found += [
                    f"{path.stem}: from . import {alias.name}"
                    for alias in node.names
                    if alias.name not in submodules
                    and (path.stem, alias.name) != ("cli", "__version__")
                ]
    assert found == []


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
    defs, run = _top_level(SRC)
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
    for path in sorted(SRC.glob("*.py")):
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
