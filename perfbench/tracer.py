"""Spans recorded from outside the library, by wrapping its public functions.

A Tracer replaces each chosen function by a wrapper in every module
namespace that holds it (a function imported by five modules is wrapped
in all five), and each chosen method on its class.  A call through a
wrapper appends one span: name, start, end, parent span, request id and an
optional observation of the result.  Spans stay in memory until the run
ends.  Element arithmetic is never wrapped: one extra Python call per field
operation would swamp the microsecond-scale work being measured.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, request, info]
        self._stack: list[int] = []
        self.request = None             # id stamped on spans opened from now on
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = "raised"
                raise
            finally:
                self._close(span)
            if observe is not None:
                span[5] = observe(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around benchmark-side work."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    # -- installing -----------------------------------------------------------

    def wrap_function(self, name: str, owner, attr: str, namespaces, observe=None) -> None:
        """Wrap owner.attr and rebind it wherever a namespace holds the
        same function object."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, observe)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def wrap_method(self, name: str, cls, attr: str, observe=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "info": info}) + "\n")

