"""Spans recorded around calls into effectrestore's public functions.

The benchmark never edits the package.  It records a span for each call it
makes into a layer, and for in-process CLI runs it swaps each traced
function for a recording wrapper wherever a module of the package holds a
reference to it (so ``cli`` sees the wrapper exactly where it calls the
function).  Spans stay in memory and are written out when the benchmark
ends.  A span's self time is its duration minus the time its direct
children cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator


class Tracer:
    """In-memory span recorder; spans of one pipeline pass share a pass id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def begin_pass(self) -> int:
        self.pass_id += 1
        return self.pass_id

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[tuple, dict, object], dict] | None = None,
        *,
        peak: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``attrs(args, kwargs, result)`` adds work counts (rows, resamples)
        to the span.  With ``peak`` the call runs under tracemalloc and the
        span carries its peak traced allocation in MB; tracemalloc starts
        outside the span, so only its allocation hooks land inside it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            try:
                with self.span(name) as rec:
                    out = fn(*args, **kwargs)
                    if attrs is not None:
                        rec.update(attrs(args, kwargs, out))
            finally:
                if peak:
                    rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            return out

        return traced

    def summary(self, pass_id: int) -> dict[str, dict]:
        """Per span name in one pass: call count, total and self seconds,
        and the sum of every numeric attribute the spans carry."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in spans:
            agg = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time.get(s["id"], 0.0)
            for key, val in s.items():
                if key not in ("id", "name", "parent", "pass", "start", "end"):
                    agg[key] = agg.get(key, 0) + val
        return out


class _NoSpans:
    """Stands in for a Tracer in untraced passes."""

    def span(self, name: str):
        return nullcontext()


NO_SPANS = _NoSpans()


def package_modules() -> list:
    """The loaded modules of the effectrestore package."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "effectrestore" or name.startswith("effectrestore."))]


@contextmanager
def patched(modules: list, replacements: list[tuple[Callable, Callable]]) -> Iterator[None]:
    """Replace each original function by its wrapper wherever one of
    ``modules`` holds it by name; restore every binding on exit."""
    undo = []
    try:
        for original, wrapper in replacements:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
