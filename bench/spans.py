"""In-memory span recorder used by the traced benchmark run.

A span is one call into a wrapped function: name, start, end and the id of
the span that was open when it began.  Spans stay in memory while the
program runs and are written as JSON lines afterwards, so the trace adds no
I/O to the timed region.  The program is single-threaded at ``--workers 1``,
so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Records spans for the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # dicts: id, name, parent, start, end, plus attributes
        self._open = []

    def wrap(self, name, fn, attributes=None):
        """Return fn wrapped in a span called `name`.

        attributes(args, kwargs, result) may return a dict that is merged
        into the span after the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if attributes is not None:
                span.update(attributes(args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def rebind(original, replacement, modules) -> int:
    """Point every module-level reference to `original` at `replacement`.

    Covers names bound by ``from .x import y`` and values of module-level
    dicts (such as a command table).  Returns the number of references
    replaced.
    """
    count = 0
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        count += 1
    return count


def package_modules(prefix: str) -> list:
    """Loaded modules of a package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]
