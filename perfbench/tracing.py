"""Spans and counts recorded around calls into the program's layers.

Nothing inside ``src`` is instrumented.  The tracer replaces a layer's public
function, as the layer above looks it up (a class attribute or a name in the
calling module), with a wrapper that records a span or bumps a count, and
puts the original back when the traced phase ends.  Spans nest: a span's
self time is its duration minus the durations of its direct children, so
the self times of all spans add up to the durations of the outermost spans.
Self time and count are kept per span name and per (name, parent name).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.results: dict[str, int] = defaultdict(int)  # summed len(result)
        # (name, parent name or None) -> [self ns, count]
        self.under: dict[tuple[str, Optional[str]], list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[list] = []  # [name, child ns] of each open span
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #

    def span(self, name: str, fn: Callable, measure_len: bool = False) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``."""
        clock = time.perf_counter_ns
        stack, under = self._stack, self.under
        self_ns, calls, results = self.self_ns, self.calls, self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[1]
                self_ns[name] += own
                calls[name] += 1
                slot = under[name, parent]
                slot[0] += own
                slot[1] += 1
                if stack:
                    stack[-1][1] += duration
            if measure_len:
                results[name] += len(out)
            return out

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only bumps the count ``name``."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #

    def patch(
        self, owner: Any, attr: str, name: str, timed: bool = True,
        measure_len: bool = False,
    ) -> None:
        original = getattr(owner, attr)
        wrapped = (
            self.span(name, original, measure_len) if timed else self.count(name, original)
        )
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def ms(self, name: str) -> float:
        """Summed self time of every span named ``name``, in ms."""
        return self.self_ns.get(name, 0) / 1e6

    def ms_under(self, name: str, parent_name: str) -> tuple[float, int]:
        """Summed self time (ms) and count of ``name`` spans whose parent
        span is named ``parent_name``."""
        own, count = self.under.get((name, parent_name), (0, 0))
        return own / 1e6, count
