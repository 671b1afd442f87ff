"""Span tracing around covertnet's public functions, from outside the package.

Each wrapped function records one span per call: its key, start, end and
the span that was open when it was called. Spans stay in memory; `drain`
turns them into per-key call counts, total time and self time (total
minus the time covered by direct child spans) and clears them.

Functions are patched where callers look them up: every covertnet module
whose namespace binds the original function object gets the wrapper, so
`dismantling.spectral_bisection` and `spectral.spectral_bisection` both
record. Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every traced function; the key used in the
# report is "<module>.<attribute path>"
TARGETS = (
    ("graph", "load_edge_list"),
    ("graph", "remove_nodes"),
    ("graph", "induced_subgraph"),
    ("graph", "connected_components"),
    ("reference", "reference_network"),
    ("metrics", "report"),
    ("metrics", "betweenness"),
    ("metrics", "mean_betweenness"),
    ("metrics", "eigenvector_centrality"),
    ("metrics", "diameter_lcc"),
    ("metrics", "average_clustering"),
    ("spectral", "spectral_bisection"),
    ("spectral", "fiedler"),
    ("spectral", "crossing_subgraph"),
    ("dismantling", "run_strategy"),
    ("dismantling", "wvc"),
    ("dismantling", "DismantlingTrace.to_csv"),
    ("dismantling", "DismantlingTrace.to_json"),
    ("sampling", "snowball_run"),
    ("synthesis", "synthesize_reference"),
    ("synthesis", "objective"),
    ("synthesis", "soft_report"),
    ("cli", "main"),
    ("cli", "build_comparison"),
)

KEYS = tuple(f"{module}.{path}" for module, path in TARGETS)


class Tracer:
    def __init__(self):
        # one [key, start, end, parent index] list per call, in call order
        self.spans: list[list] = []
        self._open: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, key: str, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def install(self, package: str = "covertnet") -> None:
        """Patch every target; a target missing from the code is noted in `absent`."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module_name, path in TARGETS:
            key = f"{module_name}.{path}"
            owner = sys.modules.get(f"{package}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def drain(self) -> dict[str, dict[str, float]]:
        """Per-key calls, total_s and self_s of the recorded spans; clears them.

        A call nested inside another call of the same key adds to the
        count and to self time, but not again to total time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {key: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for key in KEYS}
        for i, (key, start, end, parent) in enumerate(spans):
            row = out[key]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            while parent >= 0 and spans[parent][0] != key:
                parent = spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        spans.clear()
        return out
