"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program: it wraps bound public methods and
module-level functions with timing shims, from these files, for the
duration of one traced run.  Every shim records a span (name, start, end,
parent span) into an in-memory list; the list is written out once, when
the run ends.  A span's *self* time is its duration minus the part its
child spans cover.

Shims pass arguments and results through untouched, so a traced training
run follows the same trajectory as an untraced one; the benchmark checks
that bit for bit.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Collects nested spans and restores every patch it made."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list[Any]] = []
        #: Per-span child-covered seconds, parallel to :attr:`spans`.
        self._child: list[float] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        #: Free-form counts recorded at the same boundaries (e.g. hits).
        self.counts: dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the enclosed block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._child.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self._child[parent] += record[2] - record[1]

    def patch(self, owner: Any, attr: str, name: str,
              counter: Callable[[Any], str | None] | None = None) -> None:
        """Shadow ``owner.attr`` with a spanned shim until :meth:`restore`.

        ``owner`` is an instance (the shim shadows the bound method) or a
        module (the shim replaces a function the module looks up at call
        time).  ``counter``, if given, maps each result to the name of a
        count to increment (or ``None``).
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                label = counter(result)
                if label is not None:
                    self.counts[label] = self.counts.get(label, 0) + 1
            return result

        setattr(owner, attr, shim)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(undo)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- aggregation ---------------------------------------------------------
    def totals(self, *, under: str | None = None, outside: str | None = None
               ) -> dict[str, dict[str, float]]:
        """``{name: {calls, busy_s, self_s}}`` over the selected spans.

        ``under`` keeps only spans with an ancestor (or self) whose name
        starts with that prefix; ``outside`` drops those with such an
        ancestor.  Nested spans of one name (recursion) count once.
        """
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if under is not None and not self._has_ancestor(index, under):
                continue
            if outside is not None and self._has_ancestor(index, outside):
                continue
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - self._child[index]
            if not self._has_ancestor(parent, name, exact=True):
                entry["busy_s"] += end - start
        return out

    def _has_ancestor(self, index: int, prefix: str, *, exact: bool = False) -> bool:
        while index >= 0:
            name = self.spans[index][0]
            if name == prefix or (not exact and name.startswith(prefix)):
                return True
            index = self.spans[index][3]
        return False

    def write(self, path: Path) -> None:
        """Write the spans and counts as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": self.counts,
        }))
