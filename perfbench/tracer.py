"""In-memory span recorder that wraps the package's functions from outside.

A span is a dict with `id`, `name`, `parent`, `run`, `start`, `end` and an
`attrs` dict. Spans are appended when they open, kept in memory and written
out once at the end of a run. The layer of a span is its name up to the first
dot. Wrapping replaces a module or class attribute by a timing wrapper, so it
only sees calls that resolve the name through that attribute at call time;
work inside spawned worker processes is not traced.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._points: list[tuple] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add_point(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        """Register `owner.attr` to be wrapped in a `name` span while installed.

        `attrs_fn(args, kwargs, result)` returns extra span attributes. The
        first registration of an attribute wins. Missing attributes are
        skipped, so a renamed function only loses its span.
        """
        taken = any(o is owner and a == attr for o, a, _, _ in self._points)
        if hasattr(owner, attr) and not taken:
            self._points.append((owner, attr, name, attrs_fn))

    @property
    def wrapped(self) -> list[str]:
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._points]

    @contextmanager
    def installed(self):
        for owner, attr, name, attrs_fn in self._points:
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else getattr(owner, attr)
            wrapper = self._wrap(fn, name, attrs_fn)
            setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            self._saved.append((owner, attr, raw))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if attrs_fn is not None:
                    rec["attrs"].update(attrs_fn(args, kwargs, out))
                return out

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def subtree(spans: list[dict], root: dict) -> list[dict]:
    """All spans below `root` (spans are stored in opening order)."""
    ids = {root["id"]}
    out = []
    for rec in spans:
        if rec["parent"] in ids:
            ids.add(rec["id"])
            out.append(rec)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children are nested and disjoint.
    """
    out = {rec["id"]: duration(rec) for rec in spans}
    for rec in spans:
        if rec["parent"] in out:
            out[rec["parent"]] -= duration(rec)
    return out
