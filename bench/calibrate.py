"""Sampling the host's speed while a timed operation runs.

The virtual machine this benchmark was built on runs at a speed that drifts
by up to a factor of two, over seconds to minutes, with no stolen time to
show for it.  A pass time alone therefore spreads by 10-40% between runs of
the same code.  While a timed operation runs, a timer interrupts it every
``INTERVAL`` seconds to time one fixed round of pure-Python work: build
tuples and strings and count them in a dict.  The round shares no code with
milsem, so a change to milsem cannot move it, but it slows down with the
host the way milsem's allocation-heavy code does.  A pass's cost in rounds,
its time less the rounds' time divided by the mean round time, spreads far
less than its time in seconds.  Set-up times are scaled the same way, to
the speed at which a round takes ``NOMINAL_ROUND_S``.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL = 0.02
ROUND_ITEMS = 1500
# a round's time on the machine the benchmark was built on, give or take
# the drift; set-up times are scaled to it
NOMINAL_ROUND_S = 0.001

perf_counter = time.perf_counter


def calibration_round() -> int:
    counts: dict = {}
    for i in range(ROUND_ITEMS):
        key = (i, (i % 7, "a"), str(i % 13))
        counts[key] = counts.get(key[1], 0) + 1
    return len(counts)


class Calibrator:
    """Context manager; while active, a round runs every ``INTERVAL``
    seconds and its duration is appended to ``rounds``."""

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of milsem's objects is not the round's
        t0 = perf_counter()
        calibration_round()
        self.rounds.append(perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
