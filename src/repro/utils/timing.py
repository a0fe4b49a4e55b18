"""Timing helpers used by the efficiency experiments (Fig. 7 of the paper).

The paper reports training scalability and per-trajectory inference runtime.
:class:`Timer` is a context manager for one-shot wall-clock measurements;
:func:`format_duration` renders them.  Accumulated timings live in
:mod:`repro.obs` (spans and histograms).
"""

from __future__ import annotations

import time

__all__ = ["Timer", "format_duration"]


class Timer:
    """Context manager measuring wall-clock time of a block.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def format_duration(seconds: float) -> str:
    """Human-readable duration, e.g. ``'1.2ms'``, ``'3.4s'``, ``'2m 05s'``."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m {rem:04.1f}s"
