"""Host-speed calibration: a fixed reference loop timed while the program runs.

The vCPUs this benchmark was written on change speed by up to ~45% from
one second to the next and drift over minutes, and the two vCPUs do so
independently, so neither a calibration run before a pass nor one on the
other vCPU tracks the speed the pass actually got.  A ``Meter`` therefore
samples the speed inside the timed region itself: every ``period_s`` a
SIGALRM handler runs ``reference_loop`` and records how long it took.  The
handler's own time is kept out of ``Meter.clock``, so a region timed with
that clock holds only the program's work.

A speed factor is ``REF_SAMPLE_S`` over the mean time of the samples taken
during a stretch of the region, with the sample just before and just after
it: the stretch's clock time times its factor is the time it would have
taken on a host that runs the reference loop in ``REF_SAMPLE_S``
("reference seconds").  A change to the program moves the region's clock
time and leaves the reference loop alone, so it moves the product by the
same share; a host slowdown moves both and cancels out.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from dataclasses import dataclass, replace

# About the reference loop's median time on a 2-vCPU x86-64 box (Python
# 3.11, numpy 2.4) while a workload runs.  It only fixes the unit.
REF_SAMPLE_S = 1.25e-3

PASS_PERIOD_S = 0.05  # one sample per 50 ms of a pass costs about 2.5%
SETUP_PERIOD_S = 0.01  # set-up lasts ~0.2 s, so sample it more densely


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, then objects and dicts."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    counts: dict[str, int] = {}
    out = []
    p = _Point(0.0, 1.0)
    for i in range(250):
        p = replace(p, x=p.x + 0.5)
        key = f"{i % 97:04X}"
        counts[key] = counts.get(key, 0) + 1
        out.append((math.hypot(p.x, p.y), key))
    out.sort()
    return s + len(out) + len(counts)


class Meter:
    """Samples host speed during a region and keeps the samples' time out of ``clock``."""

    def __init__(self):
        self.spent = 0.0  # seconds spent in samples, ever
        self.samples: list[float] = []
        self._busy = False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent sampling."""
        return time.perf_counter() - self.spent

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not the sample's work
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self, period_s: float) -> None:
        """Sample once now, then every ``period_s`` until ``stop``."""
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def mark(self) -> int:
        """A point in the region, for ``speed``."""
        return len(self.samples)

    def stop(self) -> None:
        """Stop sampling and sample once more."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def speed(self, begin: int = 0, end: int | None = None) -> float:
        """Speed factor between two marks (default: the whole region), after ``stop``."""
        end = len(self.samples) - 1 if end is None else end
        around = self.samples[max(begin - 1, 0):end + 1]
        return REF_SAMPLE_S / (sum(around) / len(around))
