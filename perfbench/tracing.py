"""Spans at the package's module boundaries, recorded from outside the package.

Every public function of tourney_codes (each function the package
exports) is wrapped once, and the wrapper is bound in every module that
binds the original, so calls between modules are recorded as well:
adjacency, for one, is rebound in tournament, spectral, representation and
codes.  The CLI's json.dumps is traced through a stand-in bound to
tourney_codes.cli.json alone, so the benchmark's own JSON work stays
untraced.  A span is [name, start, end, parent index or -1]; spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager

import tourney_codes
from tourney_codes import cli, codes, representation, spectral, tournament

_MODULES = (tourney_codes, tournament, spectral, representation, codes, cli)
LAYERS = ("tournament", "spectral", "representation", "codes")


class _JsonStandIn:
    """What tourney_codes.cli sees as json: dumps traced, the rest json's own."""

    def __init__(self, dumps) -> None:
        self.dumps = dumps

    def __getattr__(self, name: str):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        restore = []
        for name, fn in list(vars(tourney_codes).items()):
            if not (inspect.isfunction(fn) and fn.__module__.startswith("tourney_codes.")):
                continue
            wrapper = self._wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{name}", fn)
            for module in _MODULES:
                if vars(module).get(name) is fn:
                    restore.append((module, name, fn))
                    setattr(module, name, wrapper)
        restore.append((cli, "json", cli.json))
        cli.json = _JsonStandIn(self._wrap("cli.serialize", json.dumps))
        try:
            yield self
        finally:
            for module, name, fn in reversed(restore):
                setattr(module, name, fn)

    def top_level_seconds(self, first: int = 0) -> float:
        """Summed duration of the outermost spans recorded since index first."""
        return sum(end - start for _, start, end, parent in self.spans[first:] if parent < 0)

    def calls_since(self, first: int = 0) -> Counter:
        return Counter(name for name, _, _, _ in self.spans[first:])

    def totals(self) -> tuple[Counter, dict]:
        """Calls and self seconds per span name.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread never overlap, so that is the sum of
        the children's durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def run_cli(argv: list[str], text: str) -> tuple[int, bytes, str, float]:
    """tourney_codes.cli.main(argv) in this process.

    Returns the exit code, stdout, stderr and wall seconds.  An exception
    that escapes main is a failed invocation: its traceback goes to the
    captured stderr and the code is -1.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # reported through the exit code, not raised
        traceback.print_exc()
        code = -1
    finally:
        wall = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue().encode("utf-8"), err.getvalue(), wall


# Per-layer metrics: calls per item of these spans ...  Spans that no
# workload of BENCHMARK.json reaches (canonical_form and switch, the exact
# Krylov helpers) are left out; the span files still hold them.
CALLS = ("tournament.adjacency", "tournament.parse_line", "tournament.seidel_squared",
         "spectral.eigensystem", "spectral.spectrum_of",
         "representation.analyze", "representation.verify_embedding")
# ... and self seconds per item of these (metric name -> span name).  The
# CLI's input parsing stage is tournament.parse_catalog called from cli.
SELF = {name: name for name in (
    "tournament.adjacency", "tournament.parse_line",
    "spectral.eigensystem", "spectral.group_spectrum",
    "representation.analyze", "representation.classify_type",
    "representation.gram_matrix", "representation.embed",
    "representation.verify_embedding", "codes.classify_code",
    "codes.is_doubly_regular", "codes.skew_hadamard_check",
    "codes.drt_minus_vertex_check", "codes.block_form_check", "cli.serialize")}
SELF["cli.parse_catalog"] = "tournament.parse_catalog"


def layer_metrics(tracer: Tracer, items: int, batches: list[tuple[int, Counter]],
                  glue_s: float) -> dict:
    """Per-item counts and self times from the traced spans.

    items is the number of items traced.  batches holds (items, calls) per
    complete traced batch.  Calls per item are the median over those
    batches, so they repeat exactly from run to run even when one batch of
    a pool behaves differently; with no complete batch they read 0.
    glue_s is the traced wall time not covered by outermost spans.
    """
    _, self_s = tracer.totals()
    out = {}
    for name in CALLS:
        out[f"{name}.calls_per_item"] = (
            statistics.median(c[name] / n for n, c in batches) if batches else 0.0,
            "calls/item")
    for name, span in SELF.items():
        out[f"{name}.self_s"] = (self_s[span] / items, "s/item")
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / items, "s/item")
    out["cli.glue_s"] = (glue_s / items, "s/item")
    return out
