"""The tier-1 per-test time limit.

A learner fault that keeps a search going would otherwise hang the whole
run with no test named.  Each test call runs under a real-time interval
timer; one still running after `LIMIT` seconds is failed by name, and the
run goes on.  The timer needs ``SIGALRM`` and the main thread, so where
either is missing tests run without a limit.
"""

import signal
import threading

import pytest

# seconds; the slowest test takes about 3 s
LIMIT = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} still running after {LIMIT} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
