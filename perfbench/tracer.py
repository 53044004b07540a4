"""Spans around calls into surfmaps, kept in memory.

A span has a name, a start, an end, the span that was open when it
began (its parent, -1 at the top) and a size: the unit of work the
span's name counts (darts, edges, faces or objects returned). For a
wrapped generator the span runs from its first item to exhaustion, and
``busy`` holds the time spent inside the generator, which is what a
parent's self time subtracts.

``Tracer(record=False)`` only times, so the untraced and traced runs go
through the same code and differ only by the spans kept and the
wrapped library functions.
"""

from __future__ import annotations

import base64
import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


class _Timing:
    __slots__ = ("dt", "index")

    def __init__(self):
        self.dt = 0.0
        self.index = -1


class Tracer:
    def __init__(self, record: bool = True):
        self.record = record
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("q")
        self.busy: dict[int, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, size: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> float:
        t = perf_counter()
        self._stack.pop()
        self.end[i] = t
        return t - self.start[i]

    @contextmanager
    def span(self, name: str, size: int = 0):
        """Time the block; with recording on, also keep it as a span."""
        timing = _Timing()
        if not self.record:
            t0 = perf_counter()
            try:
                yield timing
            finally:
                timing.dt = perf_counter() - t0
            return
        timing.index = i = self._open(name, size)
        try:
            yield timing
        finally:
            timing.dt = self._close(i)

    def set_size(self, timing: _Timing, size: int) -> None:
        """Set a span's size once the work it counts is known."""
        if timing.index >= 0:
            self.size[timing.index] = size

    # -- wrapping library functions ---------------------------------------

    def wrap(self, module, attr: str, name: str, size=None, observe=None,
             generator: bool = False) -> None:
        """Replace module.attr, and every surfmaps module's reference to
        the same object, by a wrapper that records a span per call.

        size(result) gives the span's size; observe(result) sees every
        result. A generator's span counts the items it yielded.
        """
        original = getattr(module, attr)
        if generator:
            @wraps(original)
            def wrapper(*args, **kwargs):
                i = self._open(name, 0)
                self._stack.pop()
                busy, n = 0.0, 0
                it = original(*args, **kwargs)
                try:
                    while True:
                        self._stack.append(i)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            busy += perf_counter() - t0
                            self._stack.pop()
                        n += 1
                        yield item
                finally:
                    self.end[i] = perf_counter()
                    self.busy[i] = busy
                    self.size[i] = n
        else:
            @wraps(original)
            def wrapper(*args, **kwargs):
                i = self._open(name, 0)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(i)
                if size is not None:
                    self.size[i] = size(result)
                if observe is not None:
                    observe(result)
                return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "surfmaps":
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def unwrap(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """Spans as JSON-safe columns; arrays travel base64-encoded."""
        def enc(a: array) -> str:
            return base64.b64encode(a.tobytes()).decode("ascii")

        return {
            "count": len(self.start),
            "names": self.names,
            "name_id": enc(self.name_id),
            "start": enc(self.start),
            "end": enc(self.end),
            "parent": enc(self.parent),
            "size": enc(self.size),
            "busy": {str(k): v for k, v in self.busy.items()},
        }


class Spans:
    """Decoded spans of one job, with per-name queries."""

    def __init__(self, exported: dict):
        def dec(code: str, key: str) -> array:
            a = array(code)
            a.frombytes(base64.b64decode(exported[key]))
            return a

        self.names = exported["names"]
        self.name_id = dec("H", "name_id")
        self.start = dec("d", "start")
        self.end = dec("d", "end")
        self.parent = dec("i", "parent")
        self.size = dec("q", "size")
        self.busy = {int(k): v for k, v in exported["busy"].items()}
        self._by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name_id):
            self._by_name.setdefault(self.names[nid], []).append(i)
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.duration(i)
        self._covered = covered

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, i: int) -> float:
        """Time spent in the span: busy time for a generator."""
        b = self.busy.get(i)
        return self.end[i] - self.start[i] if b is None else b

    def of(self, name: str, size: int | None = None) -> list[int]:
        idx = self._by_name.get(name, [])
        if size is None:
            return idx
        return [i for i in idx if self.size[i] == size]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.of(name))

    def self_time(self, name: str) -> float:
        """Summed duration minus the part its child spans cover."""
        return sum(self.duration(i) - self._covered[i] for i in self.of(name))

    def sizes(self, name: str) -> int:
        return sum(self.size[i] for i in self.of(name))

    def durations(self, name: str, size: int | None = None) -> list[float]:
        return [self.duration(i) for i in self.of(name, size)]
