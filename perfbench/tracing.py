"""Spans around the public functions of locstab, installed from outside.

A :class:`Tracer` wraps every public function of the traced modules and
installs the wrapper at each module attribute that refers to the original,
which is the name a caller looks up (``locstab.stability.span_rank``,
``locstab.cli.load_set``, ...).  Only public names are touched, so private
helpers can change freely.  The originals are restored on exit.

Each call records one span: its name, its parent span, the request (CLI
operation) it belongs to, start and end, and counts taken from its
arguments and result.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    mats = args[0] if args else kwargs["mats"]
    return {"rows": len(mats), "rank": result}


def _conflict_pairs(args, kwargs, result):
    return {
        "conflict_pairs": sum(
            len(getattr(rec, "conflict_pairs", None) or ()) for rec in result.parties
        )
    }


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _subsets(args, kwargs, result):
    return {"subsets": result.checked}


# Counts recorded at a boundary, by span name.
COUNTERS = {
    "numerics.span_rank": _rows,
    "stability.is_locally_stable": _conflict_pairs,
    "states.load_set": _file_bytes,
    "constructions.subset_campaign": _subsets,
}


def public_functions(module):
    """Functions a module defines and exports (``__all__``, else no leading _)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        # [name, parent, request, start, end, counts]
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, self.request,
                    time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package, layers):
        """Wrap the public functions of ``layers`` (submodule names of
        ``package``) wherever a module of the package refers to them."""
        modules = [package] + [getattr(package, layer) for layer in layers]
        wrappers = {}
        for layer in layers:
            for fname, fn in public_functions(getattr(package, layer)).items():
                wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        patched = [
            (module, attr, value)
            for module in modules
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers
        ]
        try:
            for module, attr, value in patched:
                setattr(module, attr, wrappers[value])
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def add(self, name, counts):
        """Attach counts measured by the caller to the latest span ``name``."""
        for span in reversed(self.spans):
            if span[0] == name:
                merged = dict(span[5] or {})
                for key, value in counts.items():
                    merged[key] = merged.get(key, 0) + value
                span[5] = merged
                return

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        return own

    def summary(self):
        """Per span name: calls, summed self time, and summed counts."""
        out = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += own
            for key, value in (span[5] or {}).items():
                entry[key] += value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, request, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "request": request,
                    "start": start, "end": end, "counts": counts or {},
                }) + "\n")
