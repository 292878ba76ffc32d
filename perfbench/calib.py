"""Calibration against the changing speed of a shared machine.

The benchmark machine's cores are shared with other tenants and change
speed by up to 2x within seconds, whatever runs. A fixed slice of work is
timed twice right before and twice right after every op and every set-up
step; the step's CPU time is scaled by the slice's reference time over
the median of those four samples, which reports it at one reference
speed. The slice is pure-Python object and JSON work, the mix the
benchmarked code runs. Raw wall times are kept in the details line.

Before the after-samples, the threads the step started are waited for
and its garbage is collected, so the samples time the machine and not
the state the step left behind; a thread still running then is an error.
"""
from __future__ import annotations

import gc
import json
import statistics
import threading
import time

# Reference seconds of one slice: the scale is 1 when the machine runs a
# slice in exactly this time.
REFERENCE_S = 0.0045

# How long the threads a step started get to end after it returned.
SETTLE_S = 5.0

_DOC = {f"k{i}": {"a": [1, 2, 3], "b": "x" * 20, "c": {"d": i}} for i in range(30)}


def _slice() -> None:
    for _ in range(8):
        json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
    total = 0
    for i in range(2000):
        total += len(str(i))


def sample() -> float:
    """Wall seconds the slice takes right now."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


class LeftoverThread(Exception):
    """A thread the timed step started was still running after it."""


def _settle(before: set, keep) -> None:
    """Wait for the threads started since ``before`` to end, except those
    ``keep()`` names, then collect the garbage left behind."""
    deadline = time.perf_counter() + SETTLE_S
    for thread in set(threading.enumerate()) - before - keep():
        thread.join(max(deadline - time.perf_counter(), 0.0))
        if thread.is_alive():
            raise LeftoverThread(f"{thread.name} still running after the step")
    gc.collect()


def timed(fn, clock=None, keep=frozenset):
    """Run ``fn`` between samples; return its result, its wall seconds and
    its seconds at the reference speed.

    Only the process's CPU time is scaled: time spent waiting (on the
    server thread's wake-up, on the disk) does not run faster on a faster
    core and is kept as measured. ``clock(fn)`` may time the call itself
    and return (result, wall seconds). ``keep()`` names the threads the
    step may leave running (a server it started for later steps).
    """
    around = [sample(), sample()]
    before = set(threading.enumerate())
    cpu0 = time.process_time()
    if clock is None:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    else:
        result, wall = clock(fn)
    cpu = time.process_time() - cpu0
    _settle(before, keep)
    around += [sample(), sample()]
    speed = REFERENCE_S / statistics.median(around)
    return result, wall, max(wall - cpu, 0.0) + cpu * speed
