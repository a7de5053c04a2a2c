"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function at every module
attribute of the ``mmmspace`` package that refers to it (for example
``mmmspace.dmat.exact_law``, ``mmmspace.poly.exact_law`` and
``mmmspace.exact_law``), so calls from one layer into another are seen
too.  `Tracer.uninstall` puts the originals back.  Nothing under ``src/``
is edited.

Each wrapped call is a span.  A layer's ``.s`` metric is self time: the
span's duration minus the time its traced children took, wrapper costs of
the children included, so that the tracer's own bookkeeping is charged to
no layer.  Counters are computed from the arguments and results after the
span has ended.  With ``memory=True`` every span also tracks the
tracemalloc peak above its starting allocation; nested spans pass their
peaks up before resetting the peak counter.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

MIB = float(1 << 20)


def _cli_span(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    words = [str(t) for t in (argv or [])]
    sub = next((w for w in words if not w.startswith("-")), "none")
    return f"cli.{sub}"


def _count_exact_law(tr, args, kwargs, law):
    space = args[0]
    order = args[1] if len(args) > 1 else kwargs["n"]
    tr.add("dmat.exact_law.tuples", space.n ** order)
    tr.add("dmat.exact_law.atoms", len(law.samples))
    tr.add("dmat.exact_law.rational_calls", int(law.exact))


def _count_pair_law(tr, args, kwargs, result):
    tr.add("dmat.pair_distance_law.values", len(result[0]))


def _count_mc(tr, args, kwargs, result):
    tr.add("poly.evaluate_mc.draws", args[2] if len(args) > 2 else kwargs["m"])


def _count_prohorov(tr, args, kwargs, result):
    metric, p, q = args[:3]
    cross = np.asarray(metric, dtype=float)[np.ix_(p.atoms, q.atoms)]
    ts = np.unique(cross)
    tr.add("prohorov.prohorov_exact.calls", 1)
    tr.add("prohorov.breakpoints", len(ts) + int(ts.size == 0 or ts[0] > 0.0))


def _count_bounds(tr, args, kwargs, result):
    kind = "trees" if args[0].label.startswith("kingman") else "clouds"
    tr.add(f"mgp.gap.{kind}.sum", max(0.0, result.upper - result.lower))
    tr.add(f"mgp.gap.{kind}.n", 1)


def _count_exact_mgp(tr, args, kwargs, result):
    tr.add("mgp.mgp_exact.slack.sum", result.slack)
    tr.add("mgp.mgp_exact.slack.n", 1)


def _count_test(tr, args, kwargs, result):
    tr.add("stats.two_sample_test.permutations", result.permutations)


def _count_save(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.add("serialize.bytes_written", os.path.getsize(path))


# (module, function, counter hook, span namer); the span name defaults to
# "<module>.<function>".
TRACED = (
    ("dmat", "exact_law", _count_exact_law, None),
    ("dmat", "pair_distance_law", _count_pair_law, None),
    ("poly", "evaluate_exact", None, None),
    ("poly", "evaluate_mc", _count_mc, None),
    ("compact", "family_tightness", None, None),
    ("compact", "distance_tail", None, None),
    ("prohorov", "prohorov_exact", _count_prohorov, None),
    ("mgp", "mgp_lower", None, None),
    ("mgp", "mgp_upper", None, None),
    ("mgp", "mgp_bounds", _count_bounds, None),
    ("mgp", "mgp_exact", _count_exact_mgp, None),
    ("mgp", "glue", None, None),
    ("core", "validate", None, None),
    ("core", "canonicalize", None, None),
    ("stats", "two_sample_test", _count_test, None),
    ("stats", "convergence_table", None, None),
    ("gen", "kingman", None, None),
    ("gen", "moran", None, None),
    ("gen", "euclidean_cloud", None, None),
    ("serialize", "load_space", None, None),
    ("serialize", "save_space", _count_save, None),
    ("cli", "run", None, _cli_span),
    ("cli", "replay", None, None),
)

# Spans whose tracemalloc peak is reported as "<span>.peak_mib".
PEAK_SPANS = ("dmat.exact_law", "mgp.mgp_lower", "mgp.mgp_upper", "core.validate")


class _Frame:
    __slots__ = ("id", "name", "start", "child", "base", "peak")

    def __init__(self, span_id, name):
        self.id = span_id
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.base = 0
        self.peak = 0


class Tracer:
    """Spans and counters for the traced public functions of ``mmmspace``."""

    def __init__(self):
        self.values: dict = {}
        self.spans: list = []  # (id, parent id, name, start, end), ids from 0
        self.memory = False
        self._stack: list = []
        self._patched: list = []
        self._next_id = 0

    def add(self, key: str, amount) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def take(self) -> dict:
        """Return the values gathered since the last call and start afresh."""
        out, self.values = self.values, {}
        return out

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmmspace" or name.startswith("mmmspace."))
        ]
        for mod_name, fn_name, counter, namer in TRACED:
            original = getattr(importlib.import_module(f"mmmspace.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter, namer)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, counter, namer):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            parent = self._stack[-1] if self._stack else None
            span = namer(args, kwargs) if namer else name
            frame = _Frame(self._next_id, span)
            self._next_id += 1
            if self.memory:
                peak_so_far = tracemalloc.get_traced_memory()[1]
                if parent is not None:
                    parent.peak = max(parent.peak, peak_so_far)
                tracemalloc.reset_peak()
                frame.base = frame.peak = tracemalloc.get_traced_memory()[0]
            self._stack.append(frame)
            ok = False
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                self._stack.pop()
                self.add(f"{span}.s", (end - frame.start) - frame.child)
                if namer:
                    self.add(f"{name}.s", (end - frame.start) - frame.child)
                self.spans.append((frame.id, parent.id if parent else None, span,
                                   frame.start, end))
                if self.memory:
                    frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                    if span in PEAK_SPANS:
                        key = f"{span}.peak_mib"
                        self.values[key] = max(
                            self.values.get(key, 0.0), (frame.peak - frame.base) / MIB
                        )
                    if parent is not None:
                        parent.peak = max(parent.peak, frame.peak)
                if ok and counter is not None:
                    counter(self, args, kwargs, result)
                if ok and parent is not None and (parent.name, span) == (
                    "poly.evaluate_exact", "dmat.exact_law"
                ):
                    self.add("poly.evaluate_exact.enumerated_calls", 1)
                if parent is not None:
                    parent.child += clock() - enter
            return result

        return wrapper


def finish_round(values: dict) -> dict:
    """Turn the sum/count pairs gathered in one round into means."""
    out = {}
    for key, value in values.items():
        if key.endswith(".n"):
            continue
        if key.endswith(".sum"):
            base = key[: -len(".sum")]
            out[base] = value / values[base + ".n"]
        else:
            out[key] = value
    return out
