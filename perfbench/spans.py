"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: around the calls it
makes into the package, and by replacing module-level names
(``binsquares.cli.includes``, ``binsquares.witness.fold``, ...) with
recording wrappers in a traced worker process.  The package source is
never edited.  Spans stay in
memory until the worker process reports them; self time is derived from
the span tree afterwards (see :func:`self_times`).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module path, attribute, span name, result attribute copied into the span).
# A dotted module path ending in a class name patches a method.
PATCH_POINTS = (
    ("binsquares.cli", "includes", "automata.includes", "explored"),
    ("binsquares.cli", "syntax_checker", "folding.syntax_checker", None),
    ("binsquares.cli", "exceptions_four_squares", "oracle.exceptions", None),
    ("binsquares.cli", "exceptions_exact_four_positive", "oracle.exceptions", None),
    ("binsquares.cli", "two_squares_density", "oracle.two_squares_density", None),
    ("binsquares.cli", "lower_density_estimate", "oracle.lower_density_estimate", None),
    ("binsquares.witness", "fold", "folding.fold", None),
    ("binsquares.witness", "decompose_brute", "oracle.decompose_brute", None),
    ("binsquares.witness.Decomposition", "verify", "witness.verify", None),
    ("binsquares.oracle", "sumset_table", "oracle.sumset_table", None),
    ("binsquares.oracle", "ground_set_upto", "numberforms.ground_set_upto", None),
)


def _resolve(path: str):
    """Import a module, or a class inside one given as ``module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Records spans (name, start, end, parent, request, attrs) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = ""

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "attrs": attrs,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name: str, result_attr: str | None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if result_attr is not None:
                    attrs[result_attr] = getattr(result, result_attr)
                return result

        return traced

    def install(self) -> None:
        """Replace every patch point with a recording wrapper."""
        for path, attr, name, result_attr in PATCH_POINTS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name, result_attr))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process nest strictly (one thread, one stack), so the
    children of a span never overlap and their durations simply add up.
    """
    selfs = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            selfs[s["parent"]] -= s["end"] - s["start"]
    return selfs
