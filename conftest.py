"""A time limit on every test, so a search that stops terminating fails its
test instead of hanging the suite. It sits at the root so that it covers
both test trees, ``tests/`` and ``perfbench/``.

``pytest-timeout`` is not a test dependency, so the limit is a real-time
interval timer: SIGALRM fires in the main thread and fails the test that is
running. Fork children do not inherit the timer.
"""

import multiprocessing
import signal

import pytest

# seconds; the slowest test takes a few seconds
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit(request):
    def expire(signum, frame):
        # a pool's shutdown and the interpreter's exit both wait for the pool's
        # workers, so the test's worker processes stop with it
        for child in multiprocessing.active_children():
            child.terminate()
        # pytest.fail raises outside Exception, so no `except Exception` swallows it
        pytest.fail(f"{request.node.nodeid} ran past its {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
