"""A SIGALRM time budget that an ignored exception cannot lose.

An exception raised by a signal handler while a finalizer (``__del__``) or a
gc callback runs is printed as ignored and dropped, and a one-shot timer
does not fire again: the work then runs on past its budget unseen.  So the
timer of ``budget`` repeats every REPEAT_S once the budget is spent, until
the block ends; from then on, whether the block ended by the budget's error
or otherwise, the handler raises nothing, and the timer is disarmed and the
previous handler restored.
"""

import signal
from contextlib import contextmanager

REPEAT_S = 0.05


@contextmanager
def budget(seconds: float, error, *args):
    """Raise error(*args) from SIGALRM once the block has run for seconds,
    and again every REPEAT_S until the block ends."""
    ended = False

    def on_alarm(signum, frame):
        if not ended:
            raise error(*args)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds, REPEAT_S)
    try:
        yield
    finally:
        ended = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
