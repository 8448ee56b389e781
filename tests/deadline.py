"""``deadline``: fail a test with ``TimeoutError`` instead of letting it
hang (a lost pool worker or a stuck build would otherwise block forever)."""

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds):
    def timeout(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
