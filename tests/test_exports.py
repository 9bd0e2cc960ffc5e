"""Every public name resolves: `latdisc.__all__`, and the functions the
benchmark's layer tracer (perfbench/layers.py) wraps by name."""

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
