"""Wall-clock timing helpers used by the benchmark harness and trainer.

:class:`Timer` is the trainer's *training clock* (``train_seconds``,
``epoch_seconds``), not a profiling probe: phase timings are spans of
:class:`repro.obs.trace.Tracer`.
"""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """A resumable wall-clock stopwatch.

    Two properties make this safe for *sampling-based* readers — code
    that reads a shared stopwatch mid-run (an evaluation callback reading
    the training clock):

    * :attr:`elapsed` always includes the in-flight interval while the
      stopwatch is running, so a mid-run read is never stale;
    * reading never perturbs the accumulated state — ``stop()`` later
      returns exactly what it would have without the read.

    :attr:`intervals` counts completed start/stop cycles, which turns the
    stopwatch into a (total seconds, calls) pair — mean seconds per
    timed region for free.

    Example
    -------
    >>> timer = Timer()
    >>> with timer:
    ...     pass  # timed region
    >>> timer.elapsed >= 0.0
    True
    >>> timer.intervals
    1
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._started_at: float | None = None
        #: Completed start/stop cycles since construction or reset().
        self.intervals = 0

    def start(self) -> "Timer":
        """Start (or resume) the stopwatch."""
        if self._started_at is not None:
            raise RuntimeError("Timer is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the stopwatch and return the total elapsed seconds."""
        if self._started_at is None:
            raise RuntimeError("Timer is not running")
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        self.intervals += 1
        return self._elapsed

    def reset(self) -> None:
        """Zero the accumulated time and interval count; ends up stopped."""
        self._elapsed = 0.0
        self._started_at = None
        self.intervals = 0

    @property
    def running(self) -> bool:
        """Whether the stopwatch is currently running."""
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds, including the current run if active."""
        if self._started_at is None:
            return self._elapsed
        return self._elapsed + (time.perf_counter() - self._started_at)

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"Timer({self.elapsed:.6f}s, {state})"
