"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces each traced library function by a timing wrapper in
every `latdisc` module namespace that holds it.  Library code looks those
names up in module globals at call time, so calls made inside the library
are caught as well, without editing the library.

Each call records a span (index, function, parent span, root span, start,
end).  Spans stay in memory and are written out once, at the end; to bound
memory only the first SPAN_CAP spans of each function are kept, while the
per-function call counts and times cover every call.  A function's self
time is its span time minus the time of the traced spans nested directly
inside it.
"""

from __future__ import annotations

import itertools
import sys
from time import perf_counter

# layer (module) -> public functions timed in it; cli.main is the root span
TRACED = {
    "cli": ("main",),
    "lattice": ("enumerate_points", "dual", "from_json"),
    "linalg": ("hnf", "inverse", "gram_schmidt"),
    "kernels": ("lll_reduce", "gauss_reduce_2d"),
    "reduction": ("spectral_test",),
    "constructions": ("korobov_search",),
    "volume": ("local_discrepancy", "body_contains", "body_volume"),
    "discrepancy": (
        "slab_certificate",
        "hyperplane_count_certificate",
        "estimate_isotropic_discrepancy",
    ),
    "bounds": ("verify_lattice",),
    "directed": ("certify_le", "sqrt_bounds"),
}

SPAN_CAP = 5000


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n  # outermost activations only
        self.self_s = [0.0] * n
        self.dropped = [0] * n
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.nodes = 0
        self.evaluations = 0
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index, time of child spans]
        self._active = [0] * n  # live activations per function (recursion)
        self._counter = itertools.count()

    def __enter__(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "latdisc" or name.startswith("latdisc."))
        ]
        fid = 0
        for mod, fns in TRACED.items():
            owner = sys.modules[f"latdisc.{mod}"]
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(fid, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
                fid += 1
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fid: int, fn):
        stack, counter, active = self._stack, self._counter, self._active
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        dropped, spans = self.dropped, self.spans
        kept = [0]
        name = self.names[fid]
        count_nodes = name == "lattice.enumerate_points"
        count_evaluations = name == "discrepancy.estimate_isotropic_discrepancy"

        def wrapper(*args, **kwargs):
            frame = [next(counter), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[fid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[fid] -= 1
                span = t1 - t0
                calls[fid] += 1
                self_s[fid] += span - frame[1]
                if not active[fid]:
                    total_s[fid] += span
                if parent is not None:
                    parent[1] += span
                if kept[0] < SPAN_CAP:
                    kept[0] += 1
                    spans.append(
                        (
                            frame[0],
                            fid,
                            parent[0] if parent else -1,
                            stack[0][0] if stack else frame[0],
                            t0,
                            t1,
                        )
                    )
                else:
                    dropped[fid] += 1
            if count_nodes:
                self.nodes += len(result)
            elif count_evaluations:
                self.evaluations += result.evaluations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def count(self, name: str) -> int:
        return self.calls[self.index(name)]

    def self_time(self, name: str) -> float:
        return self.self_s[self.index(name)]

    def calls_under_roots(self, name: str, roots: set[int]) -> int:
        """Calls of `name` whose root span is one of `roots` (cli.main spans)."""
        fid = self.index(name)
        return sum(1 for s in self.spans if s[1] == fid and s[3] in roots)

    def root_spans(self) -> list[int]:
        """Span indices of the cli.main calls, in call order."""
        fid = self.index("cli.main")
        return [s[0] for s in sorted(self.spans) if s[1] == fid]

    def spans_doc(self) -> dict:
        """The recorded spans, ready to be written out as JSON."""
        return {
            "functions": self.names,
            "columns": ["index", "function", "parent", "root", "start_s", "end_s"],
            "spans": sorted(self.spans),
            "dropped": {n: d for n, d in zip(self.names, self.dropped) if d},
        }
