"""Host-speed normalization of measured times.

On a shared host the speed of the same code drifts by tens of percent over
seconds, because neighbours compete for cores and caches. While measuring, a
run therefore times a fixed reference loop, which shares no code with the
library, every PERIOD seconds from a SIGALRM handler, and scales measured
time by REF_NOMINAL / (reference time) piecewise between samples. A scaled time
is the time the same work would take on a host that runs the reference in
REF_NOMINAL seconds. Reference time is kept out of every measured interval,
and the unscaled times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.1  # seconds between reference samples
REF_NOMINAL = 0.003  # typical reference time during a run on the 2-core host it was tuned on

_MASKS = [(i * 2654435761) & 0xFFFFF for i in range(48)]


def reference() -> int:
    """Fixed pure-Python work: integer arithmetic, bit counts, tuples, dicts
    and lists, the operations the library's hot loops are made of."""
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    masks = _MASKS
    for r in range(10):
        keyed: dict = {}
        sub = masks[r:r + 5]
        for m in masks:
            keyed.setdefault(tuple((m & x).bit_count() for x in sub), []).append(m)
        acc += len(keyed)
        row = [x * 31 % 1000003 for x in masks]
        acc += sum(a * b % 65521 for a, b in zip(row, masks))
    return acc


class HostSpeed:
    """A clock that excludes reference time, plus the scale to apply to
    intervals read from it. Samples are taken while the object is entered
    as a context manager; signal handlers run between bytecodes of the main
    thread, so a sample never overlaps the code being measured."""

    def __init__(self) -> None:
        self.durations: list[float] = []  # reference times, in order
        self._at: list[float] = []  # clock reading when each was taken
        self._scale: list[float] = []  # scale from that reading on
        self._paused = 0.0
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.durations.append(t1 - t0)
        self._at.append(t0 - self._paused)
        self._scale.append(REF_NOMINAL / (t1 - t0))
        self._paused += t1 - t0

    def now(self) -> float:
        """Clock reading with all reference time taken out."""
        while True:
            paused = self._paused
            t = time.perf_counter()
            if paused == self._paused:  # no sample ran in between
                return t - paused

    def scaled(self, a: float, b: float) -> float:
        """The interval [a, b] of this clock at the nominal host speed: each
        stretch between samples is scaled by the sample that opens it."""
        at, scale = self._at, self._scale
        i = max(bisect.bisect_right(at, a) - 1, 0)
        total, x = 0.0, a
        while True:
            end = min(b, at[i + 1]) if i + 1 < len(at) else b
            total += (end - x) * scale[i]
            if end >= b:
                return total
            x, i = end, i + 1
